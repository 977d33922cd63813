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

// runSoup drives every primitive of the package from a seeded mix of
// processes and callbacks and returns a hash of (now, process id) taken at
// each resumption, with the engine. Durations are whole microseconds from a
// small range, so same-instant ties — where only (t, seq) order decides —
// are the common case.
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
	children := NewWaitGroup(e)
	callbacks := 0

	child := func(g *RNG) func(*Proc) {
		return func(c *Proc) {
			log(c.ID())
			c.Sleep(us(g, 4))
			log(c.ID())
			disk.Use(c, us(g, 3))
			log(c.ID())
			children.Done()
		}
	}
	for w := 0; w < workers; w++ {
		g := root.Fork()
		e.Spawn("worker", func(p *Proc) {
			log(p.ID())
			for step := 0; step < steps; step++ {
				switch {
				case step%30 == 29:
					bar.Wait(p)
				case step == 5 || step == 15:
					gate.Wait(p)
				default:
					switch g.Intn(12) {
					case 0:
						p.Sleep(us(g, 5) - time.Microsecond) // -1µs … 3µs
					case 1:
						p.SleepUntil(p.Now() + us(g, 6) - 2*time.Microsecond)
					case 2:
						p.Yield()
					case 3:
						disk.Use(p, us(g, 4))
					case 4:
						pool.Use(p, g.Intn(7)-3, us(g, 4))
					case 5:
						pool.UseLeastLoaded(p, us(g, 4))
					case 6:
						sem.Acquire(p)
						log(p.ID())
						p.Sleep(us(g, 3))
						sem.Release()
					case 7:
						children.Add(1)
						e.Spawn("child", child(g.Fork()))
						continue
					case 8:
						children.Add(1)
						e.SpawnAt(p.Now()+us(g, 5), "late-child", child(g.Fork()))
						continue
					case 9:
						callbacks++
						id := -callbacks
						e.At(p.Now()+us(g, 4), func() { log(id) })
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
						// Park with the wake-up arranged first: a callback
						// that fires at or after this instant.
						e.After(us(g, 3), func() { e.WakeNow(p) })
						p.Park()
					}
				}
				log(p.ID())
			}
		})
	}
	e.SpawnAt(15*time.Microsecond, "opener", func(p *Proc) {
		log(p.ID())
		gate.Open()
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
