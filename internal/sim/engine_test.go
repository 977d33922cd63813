package sim

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestClockStartsAtZero(t *testing.T) {
	e := NewEngine()
	if e.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", e.Now())
	}
}

func TestSingleProcSleep(t *testing.T) {
	e := NewEngine()
	var woke time.Duration
	e.Spawn("p", func(p *Proc) {
		p.Sleep(5 * time.Second)
		woke = p.Now()
	})
	end := e.Run()
	if woke != 5*time.Second {
		t.Errorf("woke at %v, want 5s", woke)
	}
	if end != 5*time.Second {
		t.Errorf("Run returned %v, want 5s", end)
	}
}

func TestSleepNegativeTreatedAsZero(t *testing.T) {
	e := NewEngine()
	e.Spawn("p", func(p *Proc) {
		p.Sleep(-time.Second)
		if p.Now() != 0 {
			t.Errorf("time advanced to %v after negative sleep", p.Now())
		}
	})
	e.Run()
}

func TestSleepUntilPastClampsToNow(t *testing.T) {
	e := NewEngine()
	e.Spawn("p", func(p *Proc) {
		p.Sleep(3 * time.Second)
		p.SleepUntil(time.Second) // in the past
		if p.Now() != 3*time.Second {
			t.Errorf("Now = %v, want 3s", p.Now())
		}
	})
	e.Run()
}

func TestMultipleProcsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		e := NewEngine()
		var order []string
		e.Spawn("a", func(p *Proc) {
			p.Sleep(2 * time.Second)
			order = append(order, "a2")
			p.Sleep(2 * time.Second)
			order = append(order, "a4")
		})
		e.Spawn("b", func(p *Proc) {
			p.Sleep(1 * time.Second)
			order = append(order, "b1")
			p.Sleep(2 * time.Second)
			order = append(order, "b3")
		})
		e.Run()
		return order
	}
	want := []string{"b1", "a2", "b3", "a4"}
	for trial := 0; trial < 20; trial++ {
		got := run()
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %v, want %v", trial, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: got %v, want %v", trial, got, want)
			}
		}
	}
}

func TestSameTimeEventsRunFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.After(time.Second, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d, want %d (FIFO at equal timestamps)", i, v, i)
		}
	}
}

func TestSpawnAt(t *testing.T) {
	e := NewEngine()
	var started time.Duration
	e.SpawnAt(7*time.Second, "late", func(p *Proc) { started = p.Now() })
	e.Run()
	if started != 7*time.Second {
		t.Errorf("started at %v, want 7s", started)
	}
}

func TestNestedSpawnFromProc(t *testing.T) {
	e := NewEngine()
	var childEnd time.Duration
	e.Spawn("parent", func(p *Proc) {
		p.Sleep(time.Second)
		p.e.Spawn("child", func(c *Proc) {
			c.Sleep(2 * time.Second)
			childEnd = c.Now()
		})
		p.Sleep(5 * time.Second)
	})
	end := e.Run()
	if childEnd != 3*time.Second {
		t.Errorf("child finished at %v, want 3s", childEnd)
	}
	if end != 6*time.Second {
		t.Errorf("sim ended at %v, want 6s", end)
	}
}

func TestAfterCallback(t *testing.T) {
	e := NewEngine()
	var at time.Duration
	e.After(4*time.Second, func() { at = e.Now() })
	e.Run()
	if at != 4*time.Second {
		t.Errorf("callback at %v, want 4s", at)
	}
}

func TestRunUntilStopsAtDeadline(t *testing.T) {
	e := NewEngine()
	ticks := 0
	e.Spawn("ticker", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Sleep(time.Second)
			ticks++
		}
	})
	e.RunUntil(10 * time.Second)
	if ticks != 10 {
		t.Errorf("ticks = %d, want 10", ticks)
	}
	if e.Now() != 10*time.Second {
		t.Errorf("Now = %v, want 10s", e.Now())
	}
	// Resume to completion.
	e.Run()
	if ticks != 100 {
		t.Errorf("after Run, ticks = %d, want 100", ticks)
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	e := NewEngine()
	e.RunUntil(9 * time.Second)
	if e.Now() != 9*time.Second {
		t.Errorf("Now = %v, want 9s even with no events", e.Now())
	}
}

// TestDeadlockIsError: processes still parked when the queue drains are a
// failure Run reports through Err, and their goroutines are gone when it
// returns.
func TestDeadlockIsError(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine()
	g := NewGate(e)
	unwound := 0
	for i := 0; i < 3; i++ {
		e.Spawn("stuck", func(p *Proc) {
			defer func() { unwound++ }()
			g.Wait(p)
			t.Error("a stuck process ran on")
		})
	}
	e.Run()
	if err := e.Err(); err == nil || !strings.Contains(err.Error(), "deadlock: 3 process(es)") {
		t.Fatalf("Err = %v, want the deadlock", err)
	}
	if e.Live() != 0 || unwound != 3 {
		t.Errorf("%d processes live, %d unwound; want 0 and 3", e.Live(), unwound)
	}
	waitGoroutines(t, before)
}

// TestFailStopsRun: the first Fail ends the run at that event — no later
// event executes, processes parked or not yet started never run again, and
// none of their goroutines outlives Run.
func TestFailStopsRun(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine()
	bar := NewBarrier(e, 3)
	boom := errors.New("boom")
	for i := 0; i < 2; i++ {
		e.Spawn("waiter", func(p *Proc) {
			bar.Wait(p)
			t.Error("a waiter passed the barrier")
		})
	}
	e.Spawn("failer", func(p *Proc) {
		p.Sleep(time.Second)
		e.Fail(boom)
		e.Fail(errors.New("second"))
	})
	e.SpawnAt(time.Minute, "late", func(p *Proc) { t.Error("a process started after the failure") })
	e.After(time.Hour, func() { t.Error("an event ran after the failure") })
	if end := e.Run(); end != time.Second {
		t.Errorf("run ended at %v, want 1s", end)
	}
	if e.Err() != boom {
		t.Errorf("Err = %v, want the first failure", e.Err())
	}
	if e.Live() != 0 {
		t.Errorf("%d processes live after a failed run", e.Live())
	}
	waitGoroutines(t, before)
}

// TestProcessPanicReachesRunCaller: a panic in a process, or in a callback
// run inside one, stops the run and reaches Run's caller with its own value,
// after every other process — parked, or spawned and never started — has
// been unwound with its deferred calls run.
func TestProcessPanicReachesRunCaller(t *testing.T) {
	boom := errors.New("boom")
	cases := map[string]func(e *Engine){
		"process": func(e *Engine) {
			e.Spawn("panicker", func(p *Proc) {
				p.Sleep(time.Second)
				panic(boom)
			})
		},
		"callback": func(e *Engine) {
			e.Spawn("sleeper", func(p *Proc) {
				e.After(time.Second, func() { panic(boom) })
				p.Sleep(2 * time.Second) // the callback runs inside this park
			})
		},
	}
	for name, spawn := range cases {
		t.Run(name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			e := NewEngine()
			bar := NewBarrier(e, 4)
			unwound := 0
			for i := 0; i < 3; i++ {
				e.Spawn("waiter", func(p *Proc) {
					defer func() { unwound++ }()
					bar.Wait(p)
				})
			}
			e.SpawnAt(time.Hour, "late", func(p *Proc) { t.Error("a process started after the panic") })
			spawn(e)
			got := func() (r any) {
				defer func() { r = recover() }()
				e.Run()
				return nil
			}()
			if got != boom {
				t.Fatalf("Run's caller recovered %v, want the process's panic", got)
			}
			if unwound != 3 || e.Live() != 0 {
				t.Errorf("%d waiters unwound, %d processes live; want 3 and 0", unwound, e.Live())
			}
			if e.Err() == nil || !strings.Contains(e.Err().Error(), "boom") {
				t.Errorf("Err = %v, want the panic recorded", e.Err())
			}
			waitGoroutines(t, before)
		})
	}
}

// TestUnwindSwallowedByProcess: a process whose own deferred recover
// swallows the stopped engine's unwinding still ends, and is counted done;
// a deferred call that blocks while it unwinds unwinds again at once.
func TestUnwindSwallowedByProcess(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine()
	g := NewGate(e)
	var swallowed any
	p := e.Spawn("swallower", func(p *Proc) {
		defer func() { swallowed = recover() }()
		defer p.Sleep(time.Second)
		g.Wait(p)
		t.Error("the gate opened")
	})
	e.Spawn("failer", func(p *Proc) {
		p.Sleep(time.Second)
		e.Fail(errors.New("boom"))
	})
	e.Run()
	if swallowed == nil {
		t.Error("the parked process was not unwound by a panic")
	}
	if !p.done || e.Live() != 0 {
		t.Errorf("done = %v, %d processes live; want true and 0", p.done, e.Live())
	}
	waitGoroutines(t, before)
}

// waitGoroutines waits for the goroutine count to fall back to want: an
// exiting process hands control back before its goroutine is quite gone.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > want; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, want %d: processes leaked", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic when scheduling into the past")
		}
	}()
	e := NewEngine()
	e.After(time.Second, func() {
		e.After(-time.Second, func() {}) // now = 1s; scheduling at 0 is the past
	})
	e.Run()
}

func TestSleptAccounting(t *testing.T) {
	e := NewEngine()
	var slept time.Duration
	e.Spawn("p", func(p *Proc) {
		p.Sleep(3 * time.Second)
		p.Sleep(4 * time.Second)
		slept = p.Slept
	})
	e.Run()
	if slept != 7*time.Second {
		t.Errorf("Slept = %v, want 7s", slept)
	}
}

func TestProcIDsSequential(t *testing.T) {
	e := NewEngine()
	var ids []int
	for i := 0; i < 5; i++ {
		p := e.Spawn("p", func(p *Proc) {})
		ids = append(ids, p.ID())
	}
	e.Run()
	for i, id := range ids {
		if id != i {
			t.Errorf("ids[%d] = %d, want %d", i, id, i)
		}
	}
}

func TestEventsExecutedCounter(t *testing.T) {
	e := NewEngine()
	e.After(time.Second, func() {})
	e.After(2*time.Second, func() {})
	e.Run()
	if e.EventsExecuted != 2 {
		t.Errorf("EventsExecuted = %d, want 2", e.EventsExecuted)
	}
}

func TestManyProcsScale(t *testing.T) {
	e := NewEngine()
	const n = 2000
	done := 0
	for i := 0; i < n; i++ {
		i := i
		e.Spawn("p", func(p *Proc) {
			p.Sleep(time.Duration(i%17) * time.Millisecond)
			done++
		})
	}
	e.Run()
	if done != n {
		t.Errorf("done = %d, want %d", done, n)
	}
	if e.Live() != 0 {
		t.Errorf("Live = %d, want 0", e.Live())
	}
}

func TestYieldOrdersSameInstant(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Spawn("a", func(p *Proc) {
		order = append(order, "a-first")
		p.Yield()
		order = append(order, "a-second")
	})
	e.Spawn("b", func(p *Proc) {
		order = append(order, "b-first")
	})
	e.Run()
	want := []string{"a-first", "b-first", "a-second"}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestFailRecordsFirstError(t *testing.T) {
	e := NewEngine()
	errA := errors.New("first failure")
	errB := errors.New("second failure")
	e.Spawn("a", func(p *Proc) {
		p.Sleep(time.Millisecond)
		e.Fail(errA)
	})
	e.Spawn("b", func(p *Proc) {
		p.Sleep(2 * time.Millisecond)
		e.Fail(errB)
	})
	e.Run()
	if e.Err() != errA {
		t.Errorf("Err = %v, want the first recorded error", e.Err())
	}
	e.Fail(nil)
	if e.Err() != errA {
		t.Error("Fail(nil) overwrote the recorded error")
	}
}

func TestErrNilWithoutFailures(t *testing.T) {
	e := NewEngine()
	e.Spawn("ok", func(p *Proc) { p.Sleep(time.Millisecond) })
	e.Run()
	if e.Err() != nil {
		t.Errorf("Err = %v, want nil", e.Err())
	}
}

// TestInPlaceWakeYieldsToSameInstant: a Sleep whose wake-up ties with an
// event already queued for that instant must go through the queue — the
// earlier-scheduled event runs first (FIFO) — while a Sleep that ends
// strictly before the queue's head returns in place.
func TestInPlaceWakeYieldsToSameInstant(t *testing.T) {
	e := NewEngine()
	var order []string
	e.After(5*time.Second, func() { order = append(order, "callback@5") })
	e.Spawn("p", func(p *Proc) {
		p.Sleep(3 * time.Second) // head is at 5s: in place
		if e.InPlaceWakes != 1 || e.Switches != 1 {
			t.Errorf("after a sleep to before the head: %d in-place wake-ups, %d switches; want 1, 1",
				e.InPlaceWakes, e.Switches)
		}
		p.SleepUntil(5 * time.Second) // ties with the callback: queued behind it
		order = append(order, "p@5")
		if e.InPlaceWakes != 1 {
			t.Errorf("a wake-up tied with a queued event was served in place")
		}
		p.Yield() // nothing else at 5s any more
		if e.InPlaceWakes != 2 {
			t.Errorf("a yield with nothing else queued went through the queue")
		}
	})
	e.Run()
	if len(order) != 2 || order[0] != "callback@5" || order[1] != "p@5" {
		t.Errorf("order = %v, want the callback scheduled first to run first", order)
	}
	// start, sleep, callback, sleep-until, yield; into p and back to Run.
	if e.EventsExecuted != 5 || e.Switches != 2 {
		t.Errorf("%d events, %d switches; want 5, 2", e.EventsExecuted, e.Switches)
	}
}

// TestClockFrozenAfterFail: once Fail is recorded the clock never moves
// again, not even for the failing process's own later Sleeps — the first of
// them parks it for good and Run unwinds it.
func TestClockFrozenAfterFail(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine()
	boom := errors.New("boom")
	unwound := false
	e.Spawn("failer", func(p *Proc) {
		defer func() { unwound = true }()
		p.Sleep(time.Second)
		e.Fail(boom)
		p.Sleep(time.Second) // queue empty: in place if it ignored the error
		t.Errorf("the failing process ran on to %v", p.Now())
	})
	if end := e.Run(); end != time.Second || e.Now() != time.Second {
		t.Errorf("run ended at %v, want 1s", end)
	}
	if e.Err() != boom || !unwound || e.Live() != 0 {
		t.Errorf("Err = %v, unwound = %v, live = %d", e.Err(), unwound, e.Live())
	}
	waitGoroutines(t, before)
}

// TestRunUntilStopsAtFail: RunUntil shares Run's loop, so a Fail stops it at
// that event too — the clock stays there and every process is unwound.
func TestRunUntilStopsAtFail(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine()
	boom := errors.New("boom")
	e.Spawn("failer", func(p *Proc) {
		p.Sleep(2 * time.Second)
		e.Fail(boom)
	})
	e.Spawn("ticker", func(p *Proc) {
		for {
			p.Sleep(time.Second)
			if p.Now() > 2*time.Second {
				t.Errorf("ticked at %v, after the failure", p.Now())
			}
		}
	})
	e.After(3*time.Second, func() { t.Error("an event ran after the failure") })
	if end := e.RunUntil(10 * time.Second); end != 2*time.Second {
		t.Errorf("RunUntil returned %v, want 2s", end)
	}
	if e.Err() != boom || e.Live() != 0 {
		t.Errorf("Err = %v, live = %d", e.Err(), e.Live())
	}
	waitGoroutines(t, before)
}

// TestInPlaceWakeRespectsBound: a lone process's Sleeps are all in place,
// and still none of them may carry it past RunUntil's deadline.
func TestInPlaceWakeRespectsBound(t *testing.T) {
	e := NewEngine()
	ticks := 0
	e.Spawn("ticker", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Sleep(time.Second)
			ticks++
		}
	})
	e.RunUntil(10*time.Second + time.Second/2)
	if ticks != 10 || e.Now() != 10*time.Second+time.Second/2 {
		t.Errorf("after RunUntil(10.5s): %d ticks at %v, want 10", ticks, e.Now())
	}
	if e.InPlaceWakes != 10 || e.Pending() != 1 {
		t.Errorf("%d in-place wake-ups, %d pending; want 10 and the 11th tick queued", e.InPlaceWakes, e.Pending())
	}
	e.Run()
	if ticks != 100 || e.Now() != 100*time.Second {
		t.Errorf("after Run: %d ticks at %v", ticks, e.Now())
	}
}

// TestFinishedProcPassesBaton: a process that returns runs the loop from
// its deferred exit — the callback due next runs there, then control goes
// to the process behind it, and Run sees none of it until the end.
func TestFinishedProcPassesBaton(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Spawn("first", func(p *Proc) { order = append(order, "first") })
	e.After(time.Second, func() {
		order = append(order, "callback")
		e.After(time.Second, func() { order = append(order, "chained") })
	})
	e.SpawnAt(3*time.Second, "second", func(p *Proc) {
		order = append(order, "second")
		p.Sleep(time.Second)
		order = append(order, "second-done")
	})
	if end := e.Run(); end != 4*time.Second {
		t.Errorf("run ended at %v, want 4s", end)
	}
	want := []string{"first", "callback", "chained", "second", "second-done"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	// Run → first → second → Run: the callbacks and the sleep cost none.
	if e.Switches != 3 || e.EventsExecuted != 5 {
		t.Errorf("%d switches, %d events; want 3, 5", e.Switches, e.EventsExecuted)
	}
}

// TestSwitchesAtMostOnePerEvent: two processes that alternate strictly cost
// one switch per blocking call — half what a central loop pays — and the
// count repeats exactly.
func TestSwitchesAtMostOnePerEvent(t *testing.T) {
	run := func() *Engine {
		e := NewEngine()
		r := NewResource(e, "disk")
		for i := 0; i < 2; i++ {
			e.Spawn("p", func(p *Proc) {
				for j := 0; j < 50; j++ {
					r.Use(p, time.Millisecond)
				}
			})
		}
		e.Run()
		return e
	}
	a, b := run(), run()
	if a.Switches > a.EventsExecuted+1 {
		t.Errorf("%d switches for %d events: more than one per event", a.Switches, a.EventsExecuted)
	}
	if a.Switches != b.Switches || a.InPlaceWakes != b.InPlaceWakes || a.EventsExecuted != b.EventsExecuted {
		t.Errorf("counters differ between identical runs: %d/%d/%d vs %d/%d/%d",
			a.EventsExecuted, a.Switches, a.InPlaceWakes, b.EventsExecuted, b.Switches, b.InPlaceWakes)
	}
}

// TestEventQueuePopsInOrder: whatever order events are pushed in, and with
// pops interleaved, the queue hands them back by (t, seq).
func TestEventQueuePopsInOrder(t *testing.T) {
	g := NewRNG(11)
	e := NewEngine()
	var last event
	popped := 0
	check := func() {
		ev := e.pop()
		if popped > 0 && !last.before(&ev) {
			t.Fatalf("pop %d: (%v, %d) after (%v, %d)", popped, ev.t, ev.seq, last.t, last.seq)
		}
		last = ev
		popped++
	}
	for i := 0; i < 2000; i++ {
		// Times only ever move forward of what was popped, as in a run.
		e.schedule(last.t+time.Duration(g.Intn(8)), nil, nil)
		if g.Intn(3) == 0 {
			check()
		}
	}
	for e.Pending() > 0 {
		check()
	}
	if popped != 2000 {
		t.Errorf("popped %d of 2000", popped)
	}
}

// TestRunContextStops: canceling RunContext's context stops the run within a
// second, fails it with the context's error and unwinds every process —
// both for one process whose every wake-up is in place, so dispatch never
// runs, and for two processes handing off at every event.
func TestRunContextStops(t *testing.T) {
	for _, procs := range []int{1, 2} {
		before := runtime.NumGoroutine()
		e := NewEngine()
		unwound := 0
		for i := 0; i < procs; i++ {
			e.Spawn("loop", func(p *Proc) {
				defer func() { unwound++ }()
				for {
					p.Sleep(time.Second)
				}
			})
		}
		ctx, cancel := context.WithCancel(context.Background())
		var canceled time.Time
		stop := time.AfterFunc(10*time.Millisecond, func() {
			canceled = time.Now()
			cancel()
		})
		e.RunContext(ctx)
		stop.Stop()
		if took := time.Since(canceled); took > time.Second {
			t.Errorf("%d procs: the run went on %v after cancel", procs, took)
		}
		if !errors.Is(e.Err(), context.Canceled) {
			t.Errorf("%d procs: Err = %v, want %v", procs, e.Err(), context.Canceled)
		}
		if unwound != procs || e.Live() != 0 {
			t.Errorf("%d procs: %d unwound, %d live", procs, unwound, e.Live())
		}
		// One process wakes in place every time; two hand off at every event.
		if inPlace := e.InPlaceWakes > 0; inPlace != (procs == 1) {
			t.Errorf("%d procs: %d events, %d in place", procs, e.EventsExecuted, e.InPlaceWakes)
		}
		waitGoroutines(t, before)
	}
}

// BenchmarkHandoff times the process hand-off alone: 64 processes in a
// ring, each waking one tick after the one before it, so every event hands
// control to a different process and nothing else happens in between.
func BenchmarkHandoff(b *testing.B) {
	const procs, laps = 64, 256
	var events int64
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		for r := 0; r < procs; r++ {
			e.SpawnAt(time.Duration(r), "ring", func(p *Proc) {
				for j := 0; j < laps; j++ {
					p.Sleep(procs)
				}
			})
		}
		e.Run()
		events += e.EventsExecuted
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
}
