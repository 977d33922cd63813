package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestResourceFCFSQueueing(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "disk")
	var waits []time.Duration
	for i := 0; i < 4; i++ {
		seq(e, 0, "p", func(p *Proc) time.Duration {
			wait, end := r.Book(time.Second)
			waits = append(waits, wait)
			if total := end - p.Now(); total != wait+time.Second {
				t.Errorf("total = %v, want wait+1s", total)
			}
			return end
		})
	}
	end := e.Run()
	if end != 4*time.Second {
		t.Errorf("4 serialized 1s requests ended at %v, want 4s", end)
	}
	for i, w := range waits {
		want := time.Duration(i) * time.Second
		if w != want {
			t.Errorf("waits[%d] = %v, want %v (FCFS arrival order)", i, w, want)
		}
	}
}

func TestResourceIdleBetweenRequests(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "disk")
	seq(e, 0, "p",
		func(p *Proc) time.Duration { _, end := r.Book(time.Second); return end },
		func(p *Proc) time.Duration { return p.Now() + 10*time.Second }, // let the server idle
		func(p *Proc) time.Duration {
			wait, end := r.Book(time.Second)
			if wait != 0 {
				t.Errorf("wait = %v after idle period, want 0", wait)
			}
			return end
		},
	)
	end := e.Run()
	if end != 12*time.Second {
		t.Errorf("end = %v, want 12s", end)
	}
}

func TestResourceUtilization(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "disk")
	seq(e, 0, "p",
		func(p *Proc) time.Duration { _, end := r.Book(2 * time.Second); return end },
		func(p *Proc) time.Duration { return p.Now() + 2*time.Second },
	)
	e.Run()
	if got := r.Utilization(); got != 0.5 {
		t.Errorf("Utilization = %v, want 0.5", got)
	}
}

func TestResourceReserveAccumulates(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "disk")
	seq(e, 0, "p", func(p *Proc) time.Duration {
		s1, e1 := r.Reserve(time.Second)
		s2, e2 := r.Reserve(time.Second)
		if s1 != 0 || e1 != time.Second {
			t.Errorf("first reserve [%v,%v), want [0,1s)", s1, e1)
		}
		if s2 != time.Second || e2 != 2*time.Second {
			t.Errorf("second reserve [%v,%v), want [1s,2s)", s2, e2)
		}
		// A waiting user now queues behind both reservations.
		wait, end := r.Book(time.Second)
		if wait != 2*time.Second {
			t.Errorf("wait = %v, want 2s behind reservations", wait)
		}
		return end
	})
	e.Run()
}

func TestPoolStripedRouting(t *testing.T) {
	e := NewEngine()
	pl := NewPool(e, "oss", 4)
	seq(e, 0, "p", func(p *Proc) time.Duration {
		// Requests to distinct servers do not queue on each other.
		for i := 0; i < 4; i++ {
			pl.Servers[i].Reserve(time.Second)
		}
		wait, end := pl.Book(5, time.Second) // 5 mod 4 = 1
		if wait != time.Second {
			t.Errorf("wait = %v, want 1s (queued behind one reservation)", wait)
		}
		return end
	})
	e.Run()
	if got := pl.Servers[1].Served; got != 2 {
		t.Errorf("server 1 served %d, want 2 (its reservation and index 5)", got)
	}
}

func TestPoolNegativeIndexWraps(t *testing.T) {
	e := NewEngine()
	pl := NewPool(e, "oss", 4)
	seq(e, 0, "p", func(p *Proc) time.Duration {
		_, end := pl.Book(-1, time.Second) // should map to server 3, not panic
		return end
	})
	e.Run()
	if pl.Servers[3].Served != 1 {
		t.Errorf("server 3 served %d, want 1", pl.Servers[3].Served)
	}
}

func TestPoolLeastLoaded(t *testing.T) {
	e := NewEngine()
	pl := NewPool(e, "mds", 3)
	seq(e, 0, "p",
		func(p *Proc) time.Duration {
			pl.Servers[0].Reserve(10 * time.Second)
			pl.Servers[1].Reserve(5 * time.Second)
			wait, end := pl.BookLeastLoaded(time.Second)
			if wait != 0 {
				t.Errorf("wait = %v, want 0 (server 2 idle)", wait)
			}
			return end
		},
		func(p *Proc) time.Duration {
			if pl.Servers[2].Served != 1 {
				t.Errorf("least-loaded routing picked wrong server")
			}
			return Done
		},
	)
	e.Run()
}

// TestPoolLeastLoadedMatchesFullScan: stopping at the first idle server
// picks the server a scan of the whole pool picks — the one that frees up
// earliest, no earlier than now, ties to the lowest index — whatever the
// servers' free times.
func TestPoolLeastLoadedMatchesFullScan(t *testing.T) {
	prop := func(frees []uint8, nowRaw uint8) bool {
		if len(frees) == 0 {
			return true
		}
		e := NewEngine()
		e.now = time.Duration(nowRaw % 16)
		pl := NewPool(e, "mds", len(frees))
		for i, f := range frees {
			pl.Servers[i].free = time.Duration(f % 32)
		}
		nextFree := func(i int) time.Duration { return max(pl.Servers[i].free, e.now) }
		want := 0
		for i := range pl.Servers {
			if nextFree(i) < nextFree(want) {
				want = i
			}
		}
		served := make([]int64, len(frees))
		seq(e, e.now, "p",
			func(p *Proc) time.Duration { _, end := pl.BookLeastLoaded(time.Nanosecond); return end },
			func(p *Proc) time.Duration {
				for i := range pl.Servers {
					served[i] = pl.Servers[i].Served
				}
				return Done
			},
		)
		e.Run()
		for i, n := range served {
			if (i == want) != (n == 1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestSemaphoreLimitsConcurrency(t *testing.T) {
	e := NewEngine()
	s := NewSemaphore(e, 2)
	var finish []time.Duration
	for i := 0; i < 4; i++ {
		seq(e, 0, "p",
			func(p *Proc) time.Duration { return parkUnless(s.Take(p)) },
			func(p *Proc) time.Duration { return p.Now() + time.Second },
			func(p *Proc) time.Duration {
				s.Release()
				finish = append(finish, p.Now())
				return Done
			},
		)
	}
	e.Run()
	if s.MaxInUse != 2 {
		t.Errorf("MaxInUse = %d, want 2", s.MaxInUse)
	}
	// Two finish at 1s, two at 2s.
	counts := map[time.Duration]int{}
	for _, f := range finish {
		counts[f]++
	}
	if counts[time.Second] != 2 || counts[2*time.Second] != 2 {
		t.Errorf("finish times %v, want two at 1s and two at 2s", finish)
	}
}

func TestSemaphoreReleaseWithoutAcquirePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e := NewEngine()
	s := NewSemaphore(e, 1)
	s.Release()
}

func TestBarrierReleasesAllAtOnce(t *testing.T) {
	e := NewEngine()
	const n = 8
	b := NewBarrier(e, n)
	var times []time.Duration
	for i := 0; i < n; i++ {
		i := i
		seq(e, 0, "rank",
			func(p *Proc) time.Duration { return p.Now() + time.Duration(i)*time.Second }, // staggered arrivals
			func(p *Proc) time.Duration { return parkUnless(b.Arrive(p)) },
			func(p *Proc) time.Duration { times = append(times, p.Now()); return Done },
		)
	}
	e.Run()
	if len(times) != n {
		t.Fatalf("%d ranks passed barrier, want %d", len(times), n)
	}
	for _, tm := range times {
		if tm != 7*time.Second {
			t.Errorf("rank released at %v, want 7s (last arrival)", tm)
		}
	}
	if b.Rounds != 1 {
		t.Errorf("Rounds = %d, want 1", b.Rounds)
	}
}

func TestBarrierReusableAcrossRounds(t *testing.T) {
	e := NewEngine()
	const n, rounds = 4, 5
	b := NewBarrier(e, n)
	passed := 0
	for i := 0; i < n; i++ {
		i := i
		var calls []func(*Proc) time.Duration
		for r := 0; r < rounds; r++ {
			calls = append(calls,
				func(p *Proc) time.Duration { return p.Now() + time.Duration(i+1)*time.Millisecond },
				func(p *Proc) time.Duration { return parkUnless(b.Arrive(p)) },
				func(p *Proc) time.Duration { passed++; return goOn },
			)
		}
		seq(e, 0, "rank", calls...)
	}
	e.Run()
	if passed != n*rounds {
		t.Errorf("passed = %d, want %d", passed, n*rounds)
	}
	if b.Rounds != rounds {
		t.Errorf("Rounds = %d, want %d", b.Rounds, rounds)
	}
}

func TestGateReleasesWaitersAndPassesLateArrivals(t *testing.T) {
	e := NewEngine()
	g := NewGate(e)
	var early, late time.Duration
	seq(e, 0, "early",
		func(p *Proc) time.Duration { return parkUnless(g.Pass(p)) },
		func(p *Proc) time.Duration { early = p.Now(); return Done },
	)
	seq(e, 0, "opener",
		func(p *Proc) time.Duration { return p.Now() + 3*time.Second },
		func(p *Proc) time.Duration { g.Open(); return Done },
	)
	seq(e, 0, "late",
		func(p *Proc) time.Duration { return p.Now() + 5*time.Second },
		func(p *Proc) time.Duration { return parkUnless(g.Pass(p)) }, // already open: must not block
		func(p *Proc) time.Duration { late = p.Now(); return Done },
	)
	e.Run()
	if early != 3*time.Second {
		t.Errorf("early waiter released at %v, want 3s", early)
	}
	if late != 5*time.Second {
		t.Errorf("late waiter at %v, want 5s (no blocking)", late)
	}
	if !g.Opened() {
		t.Error("gate should report opened")
	}
}

// Property: for any set of FCFS demands, the completion time equals the sum
// of demands (work conservation), and waits are non-decreasing in arrival
// order when all requests arrive at time zero.
func TestResourceWorkConservationProperty(t *testing.T) {
	f := func(demands []uint16) bool {
		if len(demands) == 0 || len(demands) > 64 {
			return true
		}
		e := NewEngine()
		r := NewResource(e, "disk")
		var sum time.Duration
		var waits []time.Duration
		for _, d := range demands {
			svc := time.Duration(d) * time.Microsecond
			sum += svc
			seq(e, 0, "p", func(p *Proc) time.Duration {
				w, end := r.Book(svc)
				waits = append(waits, w)
				return end
			})
		}
		end := e.Run()
		if end != sum {
			return false
		}
		for i := 1; i < len(waits); i++ {
			if waits[i] < waits[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: a semaphore of capacity c never admits more than c concurrent
// holders, for any number of contenders and hold times.
func TestSemaphoreCapacityProperty(t *testing.T) {
	f := func(capRaw, nRaw uint8, holds []uint8) bool {
		c := int(capRaw%8) + 1
		n := int(nRaw%32) + 1
		e := NewEngine()
		s := NewSemaphore(e, c)
		for i := 0; i < n; i++ {
			h := time.Millisecond
			if len(holds) > 0 {
				h = time.Duration(holds[i%len(holds)]+1) * time.Millisecond
			}
			seq(e, 0, "p",
				func(p *Proc) time.Duration { return parkUnless(s.Take(p)) },
				func(p *Proc) time.Duration { return p.Now() + h },
				func(p *Proc) time.Duration { s.Release(); return Done },
			)
		}
		e.Run()
		return s.MaxInUse <= c && s.InUse() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
