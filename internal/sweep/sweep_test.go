package sweep

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"vani/internal/spec"
	"vani/internal/yamlenc"
)

const tinySweep = `
version: 1
name: tiny
base:
  nodes: 2
  ranks_per_node: 2
  scale: 0.01
  seed: 3
grid:
  - param: staging
    values:
      - pfs
      - node-local
  - param: cache
    values:
      - true
      - false
workload: cosmoflow
`

// TestSweepRunDeterministic pins the sweep contract: the report is a pure
// function of the sweep document — parallelism must not change a byte,
// stripe trials included, and the winner improves on the baseline.
func TestSweepRunDeterministic(t *testing.T) {
	var reports [][]byte
	for _, par := range []int{1, 2, 3, 4} {
		sw, err := Parse([]byte(tinySweep))
		if err != nil {
			t.Fatal(err)
		}
		var calls int
		rep, err := sw.Run(Options{
			Parallelism: par,
			OnPoint:     func(done, total int) { calls++ },
		})
		if err != nil {
			t.Fatal(err)
		}
		if calls != 4 {
			t.Errorf("par=%d: OnPoint fired %d times, want 4", par, calls)
		}
		if len(rep.Points) != 4 {
			t.Fatalf("par=%d: %d points, want 4", par, len(rep.Points))
		}
		if rep.Nodes != 2 || rep.RanksPerNode != 2 || rep.Seed != 3 {
			t.Errorf("par=%d: report header %+v", par, rep)
		}
		if rep.Winner.IOTime > rep.Points[0].IOTime {
			t.Errorf("par=%d: winner I/O %s exceeds baseline %s", par, rep.Winner.IOTime, rep.Points[0].IOTime)
		}
		if len(rep.StripeTrials) != len(trialStripes) {
			t.Errorf("par=%d: %d stripe trials, want %d", par, len(rep.StripeTrials), len(trialStripes))
		}
		reports = append(reports, yamlenc.Marshal(rep))
	}
	for i := range reports[1:] {
		if !bytes.Equal(reports[0], reports[i+1]) {
			t.Errorf("report YAML at Parallelism %d differs from Parallelism 1", i+2)
		}
	}
}

// TestSweepCancelAtTaskBoundary: a sweep canceled from its first OnPoint
// starts no further point or trial, returns context.Canceled, and leaves
// no goroutine behind. At Parallelism 1 nothing else is running when the
// first point completes, so exactly one point ever finishes; at 2 the
// point beside it may finish too.
func TestSweepCancelAtTaskBoundary(t *testing.T) {
	for _, par := range []int{1, 2} {
		before := runtime.NumGoroutine()
		sw, err := Parse([]byte(tinySweep))
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		var calls atomic.Int32
		rep, err := sw.RunContext(ctx, Options{
			Parallelism: par,
			OnPoint: func(done, total int) {
				calls.Add(1)
				cancel()
			},
		})
		cancel()
		if !errors.Is(err, context.Canceled) || rep != nil {
			t.Fatalf("par=%d: RunContext = %v, %v; want nil, context.Canceled", par, rep, err)
		}
		if n := int(calls.Load()); n < 1 || n > par {
			t.Errorf("par=%d: %d points finished after the cancel at the first, want 1 to %d", par, n, par)
		}
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
			if time.Now().After(deadline) {
				t.Fatalf("par=%d: %d goroutines before the sweep, %d after", par, before, runtime.NumGoroutine())
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// TestPoolStartsNothingAfterCancel: the pool checks ctx before each task.
// Canceled from inside the first task, one worker starts nothing more —
// neither the queued tasks nor those the first one feeds.
func TestPoolStartsNothingAfterCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var started int
	task := func() error { started++; return nil }
	pl := &pool{feeders: 1}
	pl.queue = []func() error{
		func() error {
			started++
			cancel()
			pl.feed([]func() error{task, task})
			return nil
		},
		task, task,
	}
	if err := pl.run(ctx, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("run = %v, want context.Canceled", err)
	}
	if started != 1 {
		t.Errorf("%d tasks started, want 1", started)
	}
}

// TestPoolFeedsWaitingWorkers: workers that find the queue empty while a
// feeder runs wait for what it feeds and run it; every task runs once.
func TestPoolFeedsWaitingWorkers(t *testing.T) {
	var ran atomic.Int32
	task := func() error { ran.Add(1); return nil }
	pl := &pool{feeders: 1}
	pl.queue = []func() error{func() error {
		time.Sleep(10 * time.Millisecond) // the other workers go idle
		pl.feed([]func() error{task, task, task, task})
		return task()
	}}
	if err := pl.run(context.Background(), 3); err != nil {
		t.Fatal(err)
	}
	if n := ran.Load(); n != 5 {
		t.Errorf("%d tasks ran, want 5", n)
	}
}

func TestSweepInlineWorkload(t *testing.T) {
	golden, err := spec.GoldenBytes("cm1")
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString("version: 1\nname: inline\nbase:\n  nodes: 2\n  scale: 0.01\ngrid:\n  - param: cache\n    values:\n      - true\nworkload:\n")
	for _, line := range strings.Split(strings.TrimRight(string(golden), "\n"), "\n") {
		b.WriteString("  " + line + "\n")
	}
	sw, err := Parse([]byte(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if sw.WorkloadName() != "cm1" {
		t.Errorf("WorkloadName = %q, want cm1", sw.WorkloadName())
	}
	if _, err := sw.Run(Options{}); err != nil {
		t.Fatal(err)
	}
}
