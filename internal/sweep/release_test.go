package sweep

import (
	"bytes"
	"context"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"testing"
	_ "unsafe" // for go:linkname

	"vani/internal/replay"
	"vani/internal/trace"
	"vani/internal/yamlenc"
)

// tracePoison is internal/trace's poisonRecycled switch: while it is set,
// every event array a trace releases and every column slice a table hands
// back is overwritten with a sentinel. Linking to it keeps the switch out
// of trace's API.
//
//go:linkname tracePoison vani/internal/trace.poisonRecycled
var tracePoison atomic.Bool

// toyCaseStudy is the Figure 7 case-study document at two nodes and a
// tenth of its scale: eight points and three stripe trials in well under a
// second.
func toyCaseStudy(t *testing.T) *Sweep {
	t.Helper()
	sw, err := ParseFile("../../examples/sweep-casestudy/casestudy.yaml")
	if err != nil {
		t.Fatal(err)
	}
	sw.Base.Nodes, sw.Base.Scale = 2, 0.002
	return sw
}

// TestSweepCaseStudyOverRecycledTraces: every point releases its trace
// once it is characterized — point 0's once the stripe trials' plan has
// copied it — and its analysis releases its columns, so later points sort
// and transpose into what earlier ones handed back, concurrently at
// Parallelism above 1. With all of it poisoned on the way back, the report
// is byte-identical to the one before anything was poisoned, at every
// Parallelism, and no pooled column is left out. The stripe trials of that
// first report are those replayed from a baseline trace nobody released.
func TestSweepCaseStudyOverRecycledTraces(t *testing.T) {
	sw := toyCaseStudy(t)
	rep, err := sw.Run(Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := yamlenc.Marshal(rep)
	base, _, err := sw.runPoint(context.Background(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	trials, errs, tasks := sw.trialTasks(context.Background(), base.Trace, base.Spec.Storage)
	for i, task := range tasks {
		if err := task(); err != nil {
			t.Fatalf("trial %d: %v (%v)", i, err, errs)
		}
	}
	replay.SortTrials(trials)
	if len(trials) != len(rep.StripeTrials) {
		t.Fatalf("%d stripe trials in the report, %d replayed", len(rep.StripeTrials), len(trials))
	}
	for i, tr := range trials {
		if got := rep.StripeTrials[i]; got != (Trial{Name: tr.Candidate.Name, Runtime: tr.Runtime, IOTime: tr.IOTime}) {
			t.Fatalf("stripe trial %d is %+v, replayed from an unreleased trace %+v", i, got, tr)
		}
	}

	tracePoison.Store(true)
	defer tracePoison.Store(false)
	inUse := trace.ColumnsInUse()
	for round := 0; round < 2; round++ {
		for _, par := range []int{1, 2, 4} {
			rep, err := toyCaseStudy(t).Run(Options{Parallelism: par})
			if err != nil {
				t.Fatal(err)
			}
			if got := yamlenc.Marshal(rep); !bytes.Equal(got, want) {
				t.Fatalf("round %d par %d: the report over recycled traces differs", round, par)
			}
			if got := trace.ColumnsInUse(); got != inUse {
				t.Fatalf("round %d par %d: %d pooled columns still out", round, par, got-inUse)
			}
		}
	}
}

// TestSweepAllocBudget holds a steady-state sweep's allocation per simulated
// event: the toy case study, warmed once, then run three times at
// Parallelism 1 with the collector off, so recycled arrays, chunks and
// columns stay where the sweep left them. On two CPUs it read 46–48
// B/event, alone or in the package's run; the same sweep keeping every
// trace and transposing into fresh columns read 157. The budget is 60, a
// quarter above the measurement and well under 157.
func TestSweepAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is skewed under the race detector")
	}
	sw := toyCaseStudy(t)
	var events int
	for i := range sw.NumPoints() {
		res, _, err := sw.runPoint(context.Background(), i, nil)
		if err != nil {
			t.Fatal(err)
		}
		events += len(res.Trace.Events)
	}
	run := func() {
		if _, err := sw.Run(Options{Parallelism: 1}); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the pools and free lists
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const rounds = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range rounds {
		run()
	}
	runtime.ReadMemStats(&after)
	perEvent := float64(after.TotalAlloc-before.TotalAlloc) / float64(rounds*events)
	t.Logf("%d points, %d events a sweep: %.1f B/event", sw.NumPoints(), events, perEvent)
	if perEvent > 60 {
		t.Errorf("a steady-state sweep allocates %.1f B/event, budget 60", perEvent)
	}
}
