package sim

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"runtime"
	"testing"
	"time"
)

// runStepSoup is runSoup with its workers and children written as step
// processes — the joiner, the one WaitGroup user, stays a coroutine, so
// the two kinds hand off to each other throughout. Each step runs exactly
// what the coroutine runs between two blocking calls and returns what it
// blocked on.
func runStepSoup(seed int64) (uint64, *Engine) {
	const workers, steps = 12, 90
	e := NewEngine()
	h := fnv.New64a()
	log := func(id int) {
		var b [16]byte
		binary.LittleEndian.PutUint64(b[:8], uint64(e.Now()))
		binary.LittleEndian.PutUint64(b[8:], uint64(int64(id)))
		h.Write(b[:])
	}
	us := func(g *RNG, n int) time.Duration { return time.Duration(g.Intn(n)) * time.Microsecond }

	root := NewRNG(seed)
	disk := NewResource(e, "disk")
	pool := NewPool(e, "oss", 3)
	sem := NewSemaphore(e, 2)
	bar := NewBarrier(e, workers)
	gate := NewGate(e)
	children := NewWaitGroup(e)
	callbacks := 0

	child := func(g *RNG) Step {
		stage := 0
		return func(c *Proc) (time.Duration, error) {
			log(c.ID())
			stage++
			switch stage {
			case 1:
				return c.Now() + us(g, 4), nil
			case 2:
				_, end := disk.Book(us(g, 3))
				return end, nil
			}
			children.Done()
			return Done, nil
		}
	}
	// A worker's step resumes at one of three points: the top of an
	// iteration (after a plain blocking call, which logs first), holding the
	// semaphore, or back from the sleep it holds the semaphore over.
	const (
		top = iota
		held
		slept
	)
	for w := 0; w < workers; w++ {
		g := root.Fork()
		step, at, started := 0, top, false
		e.SpawnStep("worker", func(p *Proc) (time.Duration, error) {
			switch {
			case !started:
				started = true
				log(p.ID())
			case at == held:
				log(p.ID())
				at = slept
				return p.Now() + us(g, 3), nil
			case at == slept:
				sem.Release()
				at = top
				log(p.ID())
				step++
			default:
				log(p.ID())
				step++
			}
			for ; step < steps; step++ {
				switch {
				case step%30 == 29:
					if !bar.Arrive(p) {
						return Parked, nil
					}
				case step == 5 || step == 15:
					if !gate.Pass(p) {
						return Parked, nil
					}
				default:
					switch g.Intn(12) {
					case 0:
						return p.Now() + us(g, 5) - time.Microsecond, nil
					case 1:
						return p.Now() + us(g, 6) - 2*time.Microsecond, nil
					case 2:
						return p.Now(), nil
					case 3:
						_, end := disk.Book(us(g, 4))
						return end, nil
					case 4:
						_, end := pool.Book(g.Intn(7)-3, us(g, 4))
						return end, nil
					case 5:
						_, end := pool.BookLeastLoaded(us(g, 4))
						return end, nil
					case 6:
						at = held
						if !sem.Take(p) {
							return Parked, nil
						}
						log(p.ID())
						at = slept
						return p.Now() + us(g, 3), nil
					case 7:
						children.Add(1)
						e.SpawnStep("child", child(g.Fork()))
						continue
					case 8:
						children.Add(1)
						e.SpawnStepAt(p.Now()+us(g, 5), "late-child", child(g.Fork()))
						continue
					case 9:
						callbacks++
						id := -callbacks
						e.After(us(g, 4), func() { log(id) })
						continue
					case 10:
						callbacks++
						id := -callbacks
						e.After(us(g, 4), func() {
							log(id)
							e.After(time.Microsecond, func() { log(id) })
						})
						continue
					case 11:
						e.After(us(g, 3), func() { e.WakeNow(p) })
						return Parked, nil
					}
				}
				log(p.ID())
			}
			return Done, nil
		})
	}
	opened := false
	e.SpawnStepAt(15*time.Microsecond, "opener", func(p *Proc) (time.Duration, error) {
		if !opened {
			opened = true
			log(p.ID())
			gate.Open()
		}
		return Done, nil
	})
	e.SpawnAt(20*time.Microsecond, "joiner", func(p *Proc) {
		for i := 0; i < 8; i++ {
			children.Wait(p)
			log(p.ID())
			p.Sleep(10 * time.Microsecond)
		}
	})
	e.Run()
	return h.Sum64(), e
}

// TestStepSoupMatchesCoroutineSoup: the soup run as step processes has the
// schedule the coroutine soup has — the pinned resumption log and event
// count — and the same hand-offs and in-place wake-ups, so a process's
// kind changes its cost and nothing else.
func TestStepSoupMatchesCoroutineSoup(t *testing.T) {
	hash, e := runStepSoup(7)
	if err := e.Err(); err != nil {
		t.Fatalf("step soup failed: %v", err)
	}
	if hash != soupHash || e.EventsExecuted != soupEvents {
		t.Errorf("step soup schedule: hash %#x, %d events; want %#x, %d",
			hash, e.EventsExecuted, soupHash, soupEvents)
	}
	_, co := runSoup(7)
	if e.Switches != co.Switches || e.InPlaceWakes != co.InPlaceWakes || e.Now() != co.Now() {
		t.Errorf("step soup: %d switches, %d in place, ends %v; coroutine soup: %d, %d, %v",
			e.Switches, e.InPlaceWakes, e.Now(), co.Switches, co.InPlaceWakes, co.Now())
	}
	if e.Live() != 0 {
		t.Errorf("%d processes live after the step soup", e.Live())
	}
}

// TestStepErrorFailsRun: a step's error is the run's error, the clock
// stops where it was returned, and a step parked at a barrier the failed
// one never reaches is finished without being called again — nothing is
// left live and no goroutine outlives the run.
func TestStepErrorFailsRun(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine()
	bar := NewBarrier(e, 2)
	boom := errors.New("boom")
	calls := 0
	e.SpawnStep("waiter", func(p *Proc) (time.Duration, error) {
		if calls++; calls > 1 {
			t.Error("a parked step was called after the run failed")
		}
		if !bar.Arrive(p) {
			return Parked, nil
		}
		return Done, nil
	})
	slept := false
	e.SpawnStep("failer", func(p *Proc) (time.Duration, error) {
		if !slept {
			slept = true
			return p.Now() + time.Second, nil
		}
		return 0, boom
	})
	end := e.Run()
	if e.Err() != boom || end != time.Second {
		t.Errorf("Err = %v at %v, want %v at 1s", e.Err(), end, boom)
	}
	if e.Live() != 0 {
		t.Errorf("%d processes live after a failed run", e.Live())
	}
	waitGoroutines(t, before)
}

// TestStepParkedForeverIsDeadlock: a step parked with nothing to wake it
// deadlocks the run, as a parked coroutine does.
func TestStepParkedForeverIsDeadlock(t *testing.T) {
	e := NewEngine()
	e.SpawnStep("stuck", func(p *Proc) (time.Duration, error) { return Parked, nil })
	e.Run()
	if e.Err() == nil {
		t.Fatal("a step parked forever did not deadlock the run")
	}
}

// TestStepRunContextStops: a step whose every wake-up is in place — the
// engine calls it again and again without touching the queue — still stops
// when the run's context is canceled.
func TestStepRunContextStops(t *testing.T) {
	e := NewEngine()
	e.SpawnStep("loop", func(p *Proc) (time.Duration, error) { return p.Now() + time.Second, nil })
	ctx, cancel := context.WithCancel(context.Background())
	stop := time.AfterFunc(10*time.Millisecond, cancel)
	defer stop.Stop()
	e.RunContext(ctx)
	if !errors.Is(e.Err(), context.Canceled) || e.Live() != 0 {
		t.Errorf("Err = %v, %d live; want %v, 0", e.Err(), e.Live(), context.Canceled)
	}
	if e.InPlaceWakes+1 != e.EventsExecuted {
		t.Errorf("%d events, %d in place: want every wake-up after the first in place", e.EventsExecuted, e.InPlaceWakes)
	}
}

// BenchmarkHandoffStep is BenchmarkHandoff's ring with every process a
// step: each hand-off is a call from the event loop.
func BenchmarkHandoffStep(b *testing.B) {
	const procs, laps = 64, 256
	var events int64
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		for r := 0; r < procs; r++ {
			lap := 0
			e.SpawnStepAt(time.Duration(r), "ring", func(p *Proc) (time.Duration, error) {
				if lap++; lap > laps {
					return Done, nil
				}
				return p.Now() + procs, nil
			})
		}
		e.Run()
		events += e.EventsExecuted
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
}
