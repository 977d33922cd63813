package vani

import (
	"bytes"
	"testing"
	"time"

	"vani/internal/spec/spectest"
	"vani/internal/storage"
)

func TestEndToEndPipeline(t *testing.T) {
	w, err := New("hacc")
	if err != nil {
		t.Fatal(err)
	}
	spec := w.DefaultSpec()
	spec.Nodes = 2
	spec.RanksPerNode = 4
	spec.Scale = 0.02
	res, err := Run(w, spec)
	if err != nil {
		t.Fatal(err)
	}
	c := Characterize(res)
	if c.Workload != "hacc" {
		t.Errorf("workload = %q", c.Workload)
	}
	recs := Advise(c)
	if len(recs) == 0 {
		t.Fatal("no recommendations")
	}
	tuned := spec
	applied := ApplyRecommendations(recs, &tuned)
	if len(applied) == 0 {
		t.Error("nothing applied")
	}
	if tuned.Storage.PFSStripeSize == spec.Storage.PFSStripeSize {
		t.Error("stripe size not tuned for HACC")
	}
}

func TestWorkloadsList(t *testing.T) {
	names := Workloads()
	if len(names) != 7 {
		t.Fatalf("Workloads() = %v", names)
	}
	if _, err := New("bogus"); err == nil {
		t.Error("bogus workload accepted")
	}
}

func TestTraceRoundTripThroughFacade(t *testing.T) {
	w := spectest.GoldenSet(t, "jag", map[string]int64{"epochs": 2, "gpu_per_epoch": int64(100 * time.Millisecond)})
	spec := w.DefaultSpec()
	spec.Nodes = 2
	spec.Scale = 0.02
	res, err := Run(w, spec)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, res.Trace); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	c := Characterize(&Result{Trace: back, Spec: spec})
	if c.Workload != "jag" {
		t.Errorf("round-tripped characterization workload = %q", c.Workload)
	}
	if len(back.Events) != len(res.Trace.Events) {
		t.Error("trace lost events in round trip")
	}
}

func TestOptimizeCosmoFlowCaseStudy(t *testing.T) {
	w := spectest.Golden(t, "cosmoflow", map[string]time.Duration{"gpu_per_file": 0})
	spec := w.DefaultSpec()
	spec.Nodes = 4
	spec.Scale = 0.002
	cs, err := Optimize(w, spec)
	if err != nil {
		t.Fatal(err)
	}
	if cs.JobSpeedup() <= 1 {
		t.Errorf("job speedup = %.2f, want > 1", cs.JobSpeedup())
	}
	if cs.IOSpeedup() <= 1 {
		t.Errorf("I/O speedup = %.2f, want > 1", cs.IOSpeedup())
	}
	if len(cs.Applied) == 0 {
		t.Error("no recommendations applied")
	}
}

func TestOptimizeMontageCaseStudy(t *testing.T) {
	w := spectest.Golden(t, "montage-mpi", montageNoCompute)
	spec := w.DefaultSpec()
	spec.Nodes = 4
	spec.RanksPerNode = 8
	spec.Scale = 0.1
	spec.Iface.StdioPerOpCPU = 0 // client CPU is identical in both runs; isolate storage
	cs, err := Optimize(w, spec)
	if err != nil {
		t.Fatal(err)
	}
	if cs.IOSpeedup() <= 1.5 {
		t.Errorf("Montage I/O speedup = %.2f, want > 1.5", cs.IOSpeedup())
	}
}

func TestProbeSharedBWClientLimited(t *testing.T) {
	// Table IX: a 32-node IOR measures ~64GB/s on Lassen's GPFS — the
	// limit is the clients' aggregate injection bandwidth, not the >2000
	// server system. Wider jobs pull proportionally more until the server
	// ceiling.
	cfg := storage.Lassen()
	bw32, err := ProbeSharedBW(cfg, 32)
	if err != nil {
		t.Fatal(err)
	}
	want := float64(cfg.NodeNICBW) * 32
	if bw32 < want*0.7 || bw32 > want*1.1 {
		t.Errorf("32-node IOR = %.1f GB/s, want ~%.1f GB/s (client-limited)",
			bw32/(1<<30), want/(1<<30))
	}
	bw128, err := ProbeSharedBW(cfg, 128)
	if err != nil {
		t.Fatal(err)
	}
	if bw128 < 3*bw32 {
		t.Errorf("128-node IOR (%.1f GB/s) should scale with clients (32-node: %.1f GB/s)",
			bw128/(1<<30), bw32/(1<<30))
	}
	serverPeak := float64(cfg.PFSServerBW * int64(cfg.PFSServers))
	if bw128 > serverPeak*1.1 {
		t.Errorf("128-node IOR (%.1f GB/s) exceeds server ceiling (%.1f GB/s)",
			bw128/(1<<30), serverPeak/(1<<30))
	}
}

func TestProbeNodeLocalBW(t *testing.T) {
	cfg := storage.Lassen()
	bw, err := ProbeNodeLocalBW(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := float64(cfg.NodeLocalBW)
	if bw < want/2 || bw > want*1.1 {
		t.Errorf("node-local BW %.1f GB/s vs configured %.1f GB/s",
			bw/(1<<30), want/(1<<30))
	}
}

func TestCharacterizationYAMLRoundTrip(t *testing.T) {
	// The full storage-side loop: characterize, emit the YAML artifact,
	// load it back, and verify the advisor reaches the same conclusions.
	w := spectest.Golden(t, "cosmoflow", map[string]time.Duration{"gpu_per_file": 50 * time.Millisecond})
	spec := w.DefaultSpec()
	spec.Nodes = 4
	spec.Scale = 0.002
	res, err := Run(w, spec)
	if err != nil {
		t.Fatal(err)
	}
	c := Characterize(res)
	data := ToYAML(c)
	if len(data) == 0 {
		t.Fatal("empty YAML")
	}
	back, err := FromYAML(data)
	if err != nil {
		t.Fatalf("FromYAML: %v\nartifact:\n%s", err, data[:min(len(data), 2000)])
	}
	if back.Workload != c.Workload ||
		back.Workflow.IOBytes != c.Workflow.IOBytes ||
		back.Workflow.MetaOpsPct != c.Workflow.MetaOpsPct ||
		back.JobConfig != c.JobConfig ||
		back.HighLevel != c.HighLevel ||
		len(back.Apps) != len(c.Apps) ||
		len(back.Phases) != len(c.Phases) {
		t.Fatal("characterization lost content in YAML round trip")
	}
	want := Advise(c)
	got := Advise(back)
	if len(want) != len(got) {
		t.Fatalf("advisor diverged after round trip: %d vs %d recs", len(got), len(want))
	}
	for i := range want {
		if want[i].ID != got[i].ID || want[i].Value != got[i].Value {
			t.Errorf("rec %d: %s=%s vs %s=%s", i, got[i].ID, got[i].Value, want[i].ID, want[i].Value)
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
