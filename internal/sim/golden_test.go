package sim

import (
	"encoding/binary"
	"hash/fnv"
	"testing"
	"time"
)

// The schedule of the process soup below, taken on the commit before the
// kernel's event loop moved onto the process goroutines (8289886). A change
// to either constant means some simulation somewhere now orders its events
// differently: every trace, sweep point and golden file downstream moves.
const (
	soupHash   = uint64(0x8f47e658a8c19c06)
	soupEvents = int64(1611)
)

// What the soup cost and where it ended, as the soup written as coroutine
// processes gave it before the kernel kept step processes only: a step
// process's counts equal a coroutine's, so these are the hand-offs and
// in-place wake-ups every `wrun` kernel line was compared against.
const (
	soupSwitches     = int64(1153)
	soupInPlaceWakes = int64(76)
	soupEnd          = 339 * time.Microsecond
)

// runSoup drives every primitive of the package from a seeded mix of step
// processes and callbacks and returns a hash of (now, process id) taken at
// each resumption, with the engine. Durations are whole microseconds from a
// small range, so same-instant ties — where only (t, seq) order decides —
// are the common case. The joiner waits on a count of the children not yet
// done, which the last one to finish wakes.
func runSoup(seed int64) (uint64, *Engine) {
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
	children := 0    // spawned and not yet done
	var joiner *Proc // parked until children drops to zero
	childDone := func() {
		if children--; children == 0 && joiner != nil {
			e.WakeNow(joiner)
			joiner = nil
		}
	}
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
			childDone()
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
						children++
						e.SpawnStep("child", child(g.Fork()))
						continue
					case 8:
						children++
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
	joins, parked := 0, false
	e.SpawnStepAt(20*time.Microsecond, "joiner", func(p *Proc) (time.Duration, error) {
		if joins == 8 {
			return Done, nil
		}
		if !parked && children > 0 {
			joiner, parked = p, true
			return Parked, nil
		}
		parked = false
		log(p.ID())
		joins++
		return p.Now() + 10*time.Microsecond, nil
	})
	e.Run()
	return h.Sum64(), e
}

// TestScheduleGolden pins the kernel's event order across commits, not only
// within one binary: the soup's resumption log and event count equal the
// constants captured before the kernel was rewritten.
func TestScheduleGolden(t *testing.T) {
	hash, e := runSoup(7)
	if err := e.Err(); err != nil {
		t.Fatalf("soup failed: %v", err)
	}
	if hash != soupHash || e.EventsExecuted != soupEvents {
		t.Errorf("soup schedule: hash %#x, %d events; want %#x, %d",
			hash, e.EventsExecuted, soupHash, soupEvents)
	}
	if again, e2 := runSoup(7); again != hash || e2.EventsExecuted != e.EventsExecuted {
		t.Errorf("soup differs between two runs of one binary: %#x/%d vs %#x/%d",
			again, e2.EventsExecuted, hash, e.EventsExecuted)
	}
}

// TestStepSoupMatchesCoroutineSoup: the soup run as step processes has the
// schedule the coroutine soup had — the pinned resumption log and event
// count — and the same hand-offs, in-place wake-ups and end time, the
// coroutine soup's as recorded before that process kind was deleted.
func TestStepSoupMatchesCoroutineSoup(t *testing.T) {
	hash, e := runSoup(7)
	if err := e.Err(); err != nil {
		t.Fatalf("step soup failed: %v", err)
	}
	if hash != soupHash || e.EventsExecuted != soupEvents {
		t.Errorf("step soup schedule: hash %#x, %d events; want %#x, %d",
			hash, e.EventsExecuted, soupHash, soupEvents)
	}
	if e.Switches != soupSwitches || e.InPlaceWakes != soupInPlaceWakes || e.Now() != soupEnd {
		t.Errorf("step soup: %d switches, %d in place, ends %v; coroutine soup: %d, %d, %v",
			e.Switches, e.InPlaceWakes, e.Now(), soupSwitches, soupInPlaceWakes, soupEnd)
	}
	if e.Live() != 0 {
		t.Errorf("%d processes live after the step soup", e.Live())
	}
}
