package sim

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"
)

// seq spawns a step process at start that makes calls in turn: each call
// returns what the process then waits for — a wake time, Parked once it is
// on a wait list, Done to end there, or goOn for no wait at all — and the
// next call runs when that wait is over. The process ends after the last
// call's wait.
func seq(e *Engine, start time.Duration, name string, calls ...func(p *Proc) time.Duration) *Proc {
	i := 0
	return e.SpawnStepAt(start, name, func(p *Proc) (time.Duration, error) {
		for i < len(calls) {
			i++
			if w := calls[i-1](p); w != goOn {
				return w, nil
			}
		}
		return Done, nil
	})
}

// goOn is what a seq call returns to go on to the next call at once.
const goOn time.Duration = -3

// parkUnless is what a seq call returns once it has tried to pass a barrier
// or gate: goOn if it passed, else Parked.
func parkUnless(passed bool) time.Duration {
	if passed {
		return goOn
	}
	return Parked
}

// finished counts the processes of ps that have finished.
func finished(ps []*Proc) int {
	n := 0
	for _, p := range ps {
		if p.done {
			n++
		}
	}
	return n
}

// ticker is a step that wakes a second later n times, counting the
// wake-ups in ticks.
func ticker(ticks *int, n int) Step {
	started := false
	return func(p *Proc) (time.Duration, error) {
		if started {
			*ticks++
		}
		started = true
		if *ticks == n {
			return Done, nil
		}
		return p.Now() + time.Second, nil
	}
}

func TestClockStartsAtZero(t *testing.T) {
	e := NewEngine()
	if e.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", e.Now())
	}
}

func TestSingleProcSleep(t *testing.T) {
	e := NewEngine()
	var woke time.Duration
	seq(e, 0, "p",
		func(p *Proc) time.Duration { return p.Now() + 5*time.Second },
		func(p *Proc) time.Duration { woke = p.Now(); return Done },
	)
	end := e.Run()
	if woke != 5*time.Second {
		t.Errorf("woke at %v, want 5s", woke)
	}
	if end != 5*time.Second {
		t.Errorf("Run returned %v, want 5s", end)
	}
}

// TestSleepNegativeTreatedAsZero: a wake time a negative sleep away wakes
// the process now.
func TestSleepNegativeTreatedAsZero(t *testing.T) {
	e := NewEngine()
	seq(e, 0, "p",
		func(p *Proc) time.Duration { return p.Now() - time.Second },
		func(p *Proc) time.Duration {
			if p.Now() != 0 {
				t.Errorf("time advanced to %v after negative sleep", p.Now())
			}
			return Done
		},
	)
	e.Run()
}

func TestSleepUntilPastClampsToNow(t *testing.T) {
	e := NewEngine()
	seq(e, 0, "p",
		func(p *Proc) time.Duration { return p.Now() + 3*time.Second },
		func(p *Proc) time.Duration { return time.Second }, // in the past
		func(p *Proc) time.Duration {
			if p.Now() != 3*time.Second {
				t.Errorf("Now = %v, want 3s", p.Now())
			}
			return Done
		},
	)
	e.Run()
}

func TestMultipleProcsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		e := NewEngine()
		var order []string
		seq(e, 0, "a",
			func(p *Proc) time.Duration { return p.Now() + 2*time.Second },
			func(p *Proc) time.Duration { order = append(order, "a2"); return p.Now() + 2*time.Second },
			func(p *Proc) time.Duration { order = append(order, "a4"); return Done },
		)
		seq(e, 0, "b",
			func(p *Proc) time.Duration { return p.Now() + 1*time.Second },
			func(p *Proc) time.Duration { order = append(order, "b1"); return p.Now() + 2*time.Second },
			func(p *Proc) time.Duration { order = append(order, "b3"); return Done },
		)
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
	seq(e, 7*time.Second, "late", func(p *Proc) time.Duration { started = p.Now(); return Done })
	e.Run()
	if started != 7*time.Second {
		t.Errorf("started at %v, want 7s", started)
	}
}

func TestNestedSpawnFromProc(t *testing.T) {
	e := NewEngine()
	var childEnd time.Duration
	seq(e, 0, "parent",
		func(p *Proc) time.Duration { return p.Now() + time.Second },
		func(p *Proc) time.Duration {
			seq(p.e, p.Now(), "child",
				func(c *Proc) time.Duration { return c.Now() + 2*time.Second },
				func(c *Proc) time.Duration { childEnd = c.Now(); return Done },
			)
			return p.Now() + 5*time.Second
		},
	)
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
	e.SpawnStep("ticker", ticker(&ticks, 100))
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
// failure Run reports through Err, they are finished when it returns, and
// no goroutine outlives it.
func TestDeadlockIsError(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine()
	g := NewGate(e)
	var stuck []*Proc
	for i := 0; i < 3; i++ {
		stuck = append(stuck, seq(e, 0, "stuck",
			func(p *Proc) time.Duration { return parkUnless(g.Pass(p)) },
			func(p *Proc) time.Duration { t.Error("a stuck process ran on"); return Done },
		))
	}
	e.Run()
	unwound := finished(stuck)
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
// no goroutine outlives Run.
func TestFailStopsRun(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine()
	bar := NewBarrier(e, 3)
	boom := errors.New("boom")
	for i := 0; i < 2; i++ {
		seq(e, 0, "waiter",
			func(p *Proc) time.Duration { return parkUnless(bar.Arrive(p)) },
			func(p *Proc) time.Duration { t.Error("a waiter passed the barrier"); return Done },
		)
	}
	seq(e, 0, "failer",
		func(p *Proc) time.Duration { return p.Now() + time.Second },
		func(p *Proc) time.Duration {
			e.Fail(boom)
			e.Fail(errors.New("second"))
			return Done
		},
	)
	seq(e, time.Minute, "late", func(p *Proc) time.Duration { t.Error("a process started after the failure"); return Done })
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

// TestProcessPanicReachesRunCaller: a panic in a step, or in a callback
// run while a step sleeps, stops the run and reaches Run's caller with its
// own value, after every other process — parked, or spawned and never
// started — has been finished.
func TestProcessPanicReachesRunCaller(t *testing.T) {
	boom := errors.New("boom")
	cases := map[string]func(e *Engine){
		"process": func(e *Engine) {
			seq(e, 0, "panicker",
				func(p *Proc) time.Duration { return p.Now() + time.Second },
				func(p *Proc) time.Duration { panic(boom) },
			)
		},
		"callback": func(e *Engine) {
			seq(e, 0, "sleeper", func(p *Proc) time.Duration {
				e.After(time.Second, func() { panic(boom) })
				return p.Now() + 2*time.Second // the callback runs during this sleep
			})
		},
	}
	for name, spawn := range cases {
		t.Run(name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			e := NewEngine()
			bar := NewBarrier(e, 4)
			var waiters []*Proc
			for i := 0; i < 3; i++ {
				waiters = append(waiters, seq(e, 0, "waiter",
					func(p *Proc) time.Duration { return parkUnless(bar.Arrive(p)) }))
			}
			seq(e, time.Hour, "late", func(p *Proc) time.Duration { t.Error("a process started after the panic"); return Done })
			spawn(e)
			got := func() (r any) {
				defer func() { r = recover() }()
				e.Run()
				return nil
			}()
			unwound := finished(waiters)
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

// waitGoroutines waits for the goroutine count to fall back to want: the
// kernel starts none, so any left over leaked from a run.
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

func TestProcIDsSequential(t *testing.T) {
	e := NewEngine()
	var ids []int
	for i := 0; i < 5; i++ {
		p := seq(e, 0, "p")
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
		seq(e, 0, "p",
			func(p *Proc) time.Duration { return p.Now() + time.Duration(i%17)*time.Millisecond },
			func(p *Proc) time.Duration { done++; return Done },
		)
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
	seq(e, 0, "a",
		func(p *Proc) time.Duration { order = append(order, "a-first"); return p.Now() },
		func(p *Proc) time.Duration { order = append(order, "a-second"); return Done },
	)
	seq(e, 0, "b", func(p *Proc) time.Duration { order = append(order, "b-first"); return Done })
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
	seq(e, 0, "a",
		func(p *Proc) time.Duration { return p.Now() + time.Millisecond },
		func(p *Proc) time.Duration { e.Fail(errA); return Done },
	)
	seq(e, 0, "b",
		func(p *Proc) time.Duration { return p.Now() + 2*time.Millisecond },
		func(p *Proc) time.Duration { e.Fail(errB); return Done },
	)
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
	seq(e, 0, "ok", func(p *Proc) time.Duration { return p.Now() + time.Millisecond })
	e.Run()
	if e.Err() != nil {
		t.Errorf("Err = %v, want nil", e.Err())
	}
}

// TestInPlaceWakeYieldsToSameInstant: a wake time that ties with an event
// already queued for that instant must go through the queue — the
// earlier-scheduled event runs first (FIFO) — while one strictly before
// the queue's head is taken in place.
func TestInPlaceWakeYieldsToSameInstant(t *testing.T) {
	e := NewEngine()
	var order []string
	e.After(5*time.Second, func() { order = append(order, "callback@5") })
	seq(e, 0, "p",
		func(p *Proc) time.Duration { return p.Now() + 3*time.Second }, // head is at 5s: in place
		func(p *Proc) time.Duration {
			if e.InPlaceWakes != 1 || e.Switches != 1 {
				t.Errorf("after a sleep to before the head: %d in-place wake-ups, %d switches; want 1, 1",
					e.InPlaceWakes, e.Switches)
			}
			return 5 * time.Second // ties with the callback: queued behind it
		},
		func(p *Proc) time.Duration {
			order = append(order, "p@5")
			if e.InPlaceWakes != 1 {
				t.Errorf("a wake-up tied with a queued event was served in place")
			}
			return p.Now() // nothing else at 5s any more
		},
		func(p *Proc) time.Duration {
			if e.InPlaceWakes != 2 {
				t.Errorf("a yield with nothing else queued went through the queue")
			}
			return Done
		},
	)
	e.Run()
	if len(order) != 2 || order[0] != "callback@5" || order[1] != "p@5" {
		t.Errorf("order = %v, want the callback scheduled first to run first", order)
	}
	// start, sleep, callback, sleep-until, yield; into p and back to the loop.
	if e.EventsExecuted != 5 || e.Switches != 2 {
		t.Errorf("%d events, %d switches; want 5, 2", e.EventsExecuted, e.Switches)
	}
}

// TestClockFrozenAfterFail: once Fail is recorded the clock never moves
// again, not even for the failing process's own next wake time — it is
// never taken, and Run finishes the process.
func TestClockFrozenAfterFail(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine()
	boom := errors.New("boom")
	p := seq(e, 0, "failer",
		func(p *Proc) time.Duration { return p.Now() + time.Second },
		func(p *Proc) time.Duration {
			e.Fail(boom)
			return p.Now() + time.Second // queue empty: in place if it ignored the error
		},
		func(p *Proc) time.Duration { t.Errorf("the failing process ran on to %v", p.Now()); return Done },
	)
	if end := e.Run(); end != time.Second || e.Now() != time.Second {
		t.Errorf("run ended at %v, want 1s", end)
	}
	if unwound := p.done; e.Err() != boom || !unwound || e.Live() != 0 {
		t.Errorf("Err = %v, unwound = %v, live = %d", e.Err(), unwound, e.Live())
	}
	waitGoroutines(t, before)
}

// TestRunUntilStopsAtFail: RunUntil shares Run's loop, so a Fail stops it at
// that event too — the clock stays there and every process is finished.
func TestRunUntilStopsAtFail(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine()
	boom := errors.New("boom")
	seq(e, 0, "failer",
		func(p *Proc) time.Duration { return p.Now() + 2*time.Second },
		func(p *Proc) time.Duration { e.Fail(boom); return Done },
	)
	e.SpawnStep("ticker", func(p *Proc) (time.Duration, error) {
		if p.Now() > 2*time.Second {
			t.Errorf("ticked at %v, after the failure", p.Now())
		}
		return p.Now() + time.Second, nil
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

// TestInPlaceWakeRespectsBound: a lone process's wake-ups are all in place,
// and still none of them may carry it past RunUntil's deadline.
func TestInPlaceWakeRespectsBound(t *testing.T) {
	e := NewEngine()
	ticks := 0
	e.SpawnStep("ticker", ticker(&ticks, 100))
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

// TestFinishedProcPassesBaton: a process that finishes counts its own
// hand-off back to the loop — the callbacks due next run there, and the
// call into the process behind them is no second switch.
func TestFinishedProcPassesBaton(t *testing.T) {
	e := NewEngine()
	var order []string
	seq(e, 0, "first", func(p *Proc) time.Duration { order = append(order, "first"); return Done })
	e.After(time.Second, func() {
		order = append(order, "callback")
		e.After(time.Second, func() { order = append(order, "chained") })
	})
	seq(e, 3*time.Second, "second",
		func(p *Proc) time.Duration { order = append(order, "second"); return p.Now() + time.Second },
		func(p *Proc) time.Duration { order = append(order, "second-done"); return Done },
	)
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
	// loop → first → loop, then second → loop: the callbacks and the sleep
	// cost none.
	if e.Switches != 3 || e.EventsExecuted != 5 {
		t.Errorf("%d switches, %d events; want 3, 5", e.Switches, e.EventsExecuted)
	}
}

// TestSwitchesAtMostOnePerEvent: two processes that alternate strictly cost
// one switch per wake-up, and the count repeats exactly.
func TestSwitchesAtMostOnePerEvent(t *testing.T) {
	run := func() *Engine {
		e := NewEngine()
		r := NewResource(e, "disk")
		for i := 0; i < 2; i++ {
			uses := 0
			e.SpawnStep("p", func(p *Proc) (time.Duration, error) {
				if uses++; uses > 50 {
					return Done, nil
				}
				_, end := r.Book(time.Millisecond)
				return end, nil
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
// second, fails it with the context's error and finishes every process —
// both for one process whose every wake-up is in place, so the loop never
// pops an event, and for two processes handing off at every event.
func TestRunContextStops(t *testing.T) {
	for _, procs := range []int{1, 2} {
		before := runtime.NumGoroutine()
		e := NewEngine()
		var loops []*Proc
		for i := 0; i < procs; i++ {
			loops = append(loops, e.SpawnStep("loop", func(p *Proc) (time.Duration, error) {
				return p.Now() + time.Second, nil
			}))
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
		if unwound := finished(loops); unwound != procs || e.Live() != 0 {
			t.Errorf("%d procs: %d unwound, %d live", procs, unwound, e.Live())
		}
		// One process wakes in place every time; two hand off at every event.
		if inPlace := e.InPlaceWakes > 0; inPlace != (procs == 1) {
			t.Errorf("%d procs: %d events, %d in place", procs, e.EventsExecuted, e.InPlaceWakes)
		}
		waitGoroutines(t, before)
	}
}
