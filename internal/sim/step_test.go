package sim

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"
)

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
// deadlocks the run.
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

// BenchmarkHandoffStep times the process hand-off alone: 64 processes in a
// ring, each waking one tick after the one before it, so every event hands
// control to a different process — a call from the event loop — and nothing
// else happens in between.
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
