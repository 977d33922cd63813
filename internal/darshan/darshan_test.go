package darshan

import (
	"testing"
	"time"

	"vani/internal/core"
	"vani/internal/spec/spectest"
	"vani/internal/trace"
	"vani/internal/workloads"
)

func haccTrace(t *testing.T) *trace.Trace {
	t.Helper()
	w := workloads.NewHACC()
	spec := w.DefaultSpec()
	spec.Nodes = 4
	spec.RanksPerNode = 8
	spec.Scale = 0.02
	res, err := workloads.Run(w, spec)
	if err != nil {
		t.Fatal(err)
	}
	return res.Trace
}

func jagTrace(t *testing.T) *trace.Trace {
	t.Helper()
	w := workloads.NewJAG()
	w.Epochs = 3
	w.ComputePerEpoch = 3 * time.Second
	spec := w.DefaultSpec()
	spec.Nodes = 4
	spec.Scale = 0.02
	res, err := workloads.Run(w, spec)
	if err != nil {
		t.Fatal(err)
	}
	return res.Trace
}

func TestCountersMatchTrace(t *testing.T) {
	tr := haccTrace(t)
	p := FromTrace(tr)
	s := p.Summarize()

	var wantRead, wantWritten int64
	var wantData int64
	for _, ev := range tr.Events {
		if ev.Level != trace.LevelPosix {
			continue
		}
		switch ev.Op {
		case trace.OpRead:
			wantRead += ev.Size
			wantData++
		case trace.OpWrite:
			wantWritten += ev.Size
			wantData++
		}
	}
	if s.BytesRead != wantRead || s.BytesWritten != wantWritten {
		t.Errorf("bytes = %d/%d, want %d/%d", s.BytesRead, s.BytesWritten, wantRead, wantWritten)
	}
	if s.DataOps != wantData {
		t.Errorf("data ops = %d, want %d", s.DataOps, wantData)
	}
	if s.FilesUsed != 32 || s.FPPFiles != 32 || s.SharedFiles != 0 {
		t.Errorf("file split = %d (%d/%d), want 32 FPP", s.FilesUsed, s.FPPFiles, s.SharedFiles)
	}
	if s.SeqFraction < 0.9 {
		t.Errorf("seq fraction = %v, want sequential", s.SeqFraction)
	}
}

func TestRecordsArePerRankFile(t *testing.T) {
	p := FromTrace(haccTrace(t))
	if len(p.Records) != 32 { // 32 ranks x 1 file each
		t.Fatalf("records = %d, want 32", len(p.Records))
	}
	for i := 1; i < len(p.Records); i++ {
		if p.Records[i].Rank < p.Records[i-1].Rank {
			t.Fatal("records not sorted by rank")
		}
	}
	r := p.Records[0]
	if r.Opens == 0 || r.Closes == 0 || r.Reads == 0 || r.Writes == 0 {
		t.Errorf("record missing counters: %+v", r)
	}
	if r.MaxWriteSize != 16<<20 {
		t.Errorf("max write = %d, want 16MB", r.MaxWriteSize)
	}
	if r.LastAccess <= r.FirstAccess {
		t.Error("access span empty")
	}
}

// TestAggregationLosesPhases demonstrates the paper's Section III-A2
// argument: JAG has two clearly separated I/O phases (initial load and
// end-of-job validation), which the trace-based analyzer finds, but the
// aggregate profile can only report one undifferentiated first-to-last
// span covering the whole job.
func TestAggregationLosesPhases(t *testing.T) {
	tr := jagTrace(t)
	c := core.Analyze(tr, core.DefaultOptions())
	if len(c.Phases) < 2 {
		t.Fatalf("trace analyzer found %d phases, want >= 2", len(c.Phases))
	}
	var phaseTotal time.Duration
	for _, ph := range c.Phases {
		phaseTotal += ph.Runtime
	}
	s := FromTrace(tr).Summarize()
	// The counter span covers compute gaps too: it must be far larger
	// than the actual I/O bursts, which is exactly why it cannot stand in
	// for phase analysis.
	if s.JobIOSpan < 2*phaseTotal {
		t.Errorf("counter span %v vs real burst time %v: expected span to blur phases",
			s.JobIOSpan, phaseTotal)
	}
}

// TestAggregationLosesDependencies: the trace recovers producer/consumer
// app edges for a workflow; the profile has no ordering to do so.
func TestAggregationLosesDependencies(t *testing.T) {
	w := spectest.Golden(t, "montage-mpi", nil)
	spec := w.DefaultSpec()
	spec.Nodes = 4
	spec.RanksPerNode = 8
	spec.Scale = 0.1
	res, err := workloads.Run(w, spec)
	if err != nil {
		t.Fatal(err)
	}
	c := core.Analyze(res.Trace, core.DefaultOptions())
	if len(c.Workflow.AppDeps) == 0 {
		t.Fatal("trace analyzer found no app dependencies")
	}
	// The profile's records carry no application attribution at all —
	// Darshan aggregates per (rank, file), so two apps touching the same
	// file from the same rank are indistinguishable.
	p := FromTrace(res.Trace)
	if len(p.Records) == 0 {
		t.Fatal("empty profile")
	}
}

func TestDerivableMatrix(t *testing.T) {
	yes := []string{
		"workflow.io_amount", "workflow.io_ops_dist", "highlevel.granularity",
		"highlevel.access_pattern", "workflow.fpp_shared_files",
	}
	no := []string{
		"phase.frequency", "workflow.app_data_dependency",
		"figure.timeline", "workflow.io_time", "workflow.cross_node_raw",
	}
	for _, a := range yes {
		if !Derivable(a) {
			t.Errorf("%s should be derivable from counters", a)
		}
	}
	for _, a := range no {
		if Derivable(a) {
			t.Errorf("%s must not be derivable from counters", a)
		}
	}
	if Derivable("unknown.attribute") {
		t.Error("unknown attributes should default to not derivable")
	}
}

func TestEmptyTraceProfile(t *testing.T) {
	p := FromTrace(&trace.Trace{})
	if len(p.Records) != 0 {
		t.Error("phantom records")
	}
	s := p.Summarize()
	if s.DataOps != 0 || s.JobIOSpan != 0 {
		t.Errorf("phantom summary: %+v", s)
	}
}
