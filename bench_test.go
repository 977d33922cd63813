package vani

// These benchmarks regenerate every table and figure of the paper's
// evaluation (see DESIGN.md's per-experiment index) and measure the
// design choices called out for ablation; nothing else. Per-layer
// throughput (trace encode and decode, scan planning, the analyzer's
// parallel speedup) is measured by the benchmark program in bench/.
// Workload runs use reduced scale so the full suite completes in
// minutes; the rendered rows follow the same ratios as the paper-scale
// runs in EXPERIMENTS.md.
//
// Custom metrics reported alongside ns/op:
//   - events/op: trace events produced by the run
//   - speedup:   baseline/optimized improvement (Figures 7-8)
//   - pct:       percentage metrics (tracing overhead, metadata share)

import (
	"sync"
	"testing"
	"time"

	"vani/internal/colstore"
	"vani/internal/core"
	"vani/internal/report"
	"vani/internal/spec/spectest"
	"vani/internal/storage"
	"vani/internal/trace"
)

// benchScale holds per-workload benchmark scales: small enough for tight
// iteration, large enough that every phase and file class appears.
var benchScale = map[string]float64{
	"cm1":             0.05,
	"ior":             0.01,
	"hacc":            0.02,
	"cosmoflow":       0.005,
	"jag":             0.02,
	"montage-mpi":     0.1,
	"montage-pegasus": 0.02,
}

// benchSpec builds the small standard spec for a workload.
func benchSpec(w Workload) Spec {
	spec := w.DefaultSpec()
	spec.Nodes = 4
	if spec.RanksPerNode > 8 {
		spec.RanksPerNode = 8
	}
	spec.Scale = benchScale[w.Name()]
	return spec
}

// benchWorkload constructs a workload with compute shrunk so benches
// exercise the I/O path.
func benchWorkload(b *testing.B, name string) Workload {
	b.Helper()
	switch name {
	case "cm1":
		return spectest.Golden(b, name, map[string]time.Duration{"compute_per_step": 50 * time.Millisecond})
	case "cosmoflow":
		return spectest.Golden(b, name, map[string]time.Duration{"gpu_per_file": 10 * time.Millisecond})
	case "montage-mpi":
		return spectest.Golden(b, name, montageNoCompute)
	case "hacc":
		return spectest.Golden(b, name, map[string]time.Duration{"compute_init": 0})
	case "jag":
		return spectest.GoldenSet(b, name, map[string]int64{"epochs": 5, "gpu_per_epoch": int64(50 * time.Millisecond)})
	case "montage-pegasus":
		return spectest.Golden(b, name, map[string]time.Duration{
			"project_compute": 0, "diff_compute": 0, "fit_compute": 0, "concat_compute": 0,
			"bg_model_compute": 0, "bg_compute": 0, "add_compute": 0, "viewer_compute": 0,
		})
	}
	w, err := New(name)
	if err != nil {
		b.Fatal(err)
	}
	return w
}

// montageNoCompute zeroes Montage-MPI's four compute stages, so the I/O
// difference of the Figure 8 case study dominates.
var montageNoCompute = map[string]time.Duration{
	"project_compute": 0, "add_compute": 0, "shrink_compute": 0, "viewer_compute": 0,
}

// cachedRuns memoizes one run+characterization per workload so the table
// benches measure analysis/rendering, not repeated simulation.
var (
	runOnce sync.Once
	runCols []report.Named
	runRes  map[string]*Result
)

func allRuns(b *testing.B) []report.Named {
	b.Helper()
	runOnce.Do(func() {
		runRes = make(map[string]*Result)
		for _, name := range Workloads() {
			w, err := New(name)
			if err != nil {
				panic(err)
			}
			res, err := Run(w, benchSpec(w))
			if err != nil {
				panic(err)
			}
			runRes[name] = res
			runCols = append(runCols, report.Named{Name: name, C: Characterize(res)})
		}
	})
	return runCols
}

// benchTable measures regenerating one of the paper's tables from the
// cached characterizations of all six workloads.
func benchTable(b *testing.B, render func(cols []report.Named) string) {
	cols := allRuns(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := render(cols); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable1_HighLevelBehavior(b *testing.B) { benchTable(b, report.TableI) }
func BenchmarkTable2_JobConfiguration(b *testing.B)  { benchTable(b, report.TableII) }
func BenchmarkTable3_WorkflowEntity(b *testing.B)    { benchTable(b, report.TableIII) }
func BenchmarkTable4_ApplicationEntity(b *testing.B) { benchTable(b, report.TableIV) }
func BenchmarkTable5_IOPhaseEntity(b *testing.B)     { benchTable(b, report.TableV) }
func BenchmarkTable6_HighLevelIO(b *testing.B)       { benchTable(b, report.TableVI) }
func BenchmarkTable7_Middleware(b *testing.B)        { benchTable(b, report.TableVII) }
func BenchmarkTable10_DatasetEntity(b *testing.B)    { benchTable(b, report.TableX) }
func BenchmarkTable11_FileEntity(b *testing.B)       { benchTable(b, report.TableXI) }

// BenchmarkTable8_NodeLocalStorage probes the node-local target (Table
// VIII's measured bandwidth row).
func BenchmarkTable8_NodeLocalStorage(b *testing.B) {
	cfg := storage.Lassen()
	var bw float64
	for i := 0; i < b.N; i++ {
		var err error
		bw, err = ProbeNodeLocalBW(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(bw/float64(1<<30), "GiB/s")
}

// BenchmarkTable9_SharedStorage runs the 32-node IOR-like probe (Table
// IX's "64GB/s using 32 node IOR" row).
func BenchmarkTable9_SharedStorage(b *testing.B) {
	cfg := storage.Lassen()
	var bw float64
	for i := 0; i < b.N; i++ {
		var err error
		bw, err = ProbeSharedBW(cfg, 32)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(bw/float64(1<<30), "GiB/s")
}

// benchFigure measures the full pipeline for one workload's figure: run,
// characterize, render all three panels.
func benchFigure(b *testing.B, name string) {
	w := benchWorkload(b, name)
	spec := benchSpec(w)
	var events int
	for i := 0; i < b.N; i++ {
		res, err := Run(w, spec)
		if err != nil {
			b.Fatal(err)
		}
		events = len(res.Trace.Events)
		c := Characterize(res)
		if out := report.Figure(c); len(out) == 0 {
			b.Fatal("empty figure")
		}
	}
	b.ReportMetric(float64(events), "events/op")
}

func BenchmarkFigure1_CM1(b *testing.B)            { benchFigure(b, "cm1") }
func BenchmarkFigure2_HACC(b *testing.B)           { benchFigure(b, "hacc") }
func BenchmarkFigure3_CosmoFlow(b *testing.B)      { benchFigure(b, "cosmoflow") }
func BenchmarkFigure4_JAG(b *testing.B)            { benchFigure(b, "jag") }
func BenchmarkFigure5_MontageMPI(b *testing.B)     { benchFigure(b, "montage-mpi") }
func BenchmarkFigure6_MontagePegasus(b *testing.B) { benchFigure(b, "montage-pegasus") }

// BenchmarkFigure7_CosmoFlowOptimization runs the baseline-vs-preload
// comparison and reports the I/O speedup (paper: 2.2x-4.6x).
func BenchmarkFigure7_CosmoFlowOptimization(b *testing.B) {
	w := spectest.Golden(b, "cosmoflow", map[string]time.Duration{"gpu_per_file": 0})
	spec := w.DefaultSpec()
	spec.Nodes = 8
	spec.Scale = 0.005
	var speedup float64
	for i := 0; i < b.N; i++ {
		cs, err := Optimize(w, spec)
		if err != nil {
			b.Fatal(err)
		}
		speedup = cs.IOSpeedup()
	}
	if speedup <= 1 {
		b.Fatalf("speedup = %.2f, want > 1", speedup)
	}
	b.ReportMetric(speedup, "speedup")
}

// BenchmarkFigure8_MontageOptimization runs the baseline-vs-shm
// intermediates comparison and reports the I/O speedup (paper: 3.9x-8x).
func BenchmarkFigure8_MontageOptimization(b *testing.B) {
	w := spectest.Golden(b, "montage-mpi", montageNoCompute)
	spec := w.DefaultSpec()
	spec.Nodes = 8
	spec.RanksPerNode = 8
	spec.Scale = 0.2
	spec.Iface.StdioPerOpCPU = 0
	var speedup float64
	for i := 0; i < b.N; i++ {
		cs, err := Optimize(w, spec)
		if err != nil {
			b.Fatal(err)
		}
		speedup = cs.IOSpeedup()
	}
	if speedup <= 1 {
		b.Fatalf("speedup = %.2f, want > 1", speedup)
	}
	b.ReportMetric(speedup, "speedup")
}

// BenchmarkRecorderOverhead measures the tracing overhead on job runtime
// (Section III-A2 reports ~8% for Recorder).
func BenchmarkRecorderOverhead(b *testing.B) {
	// JAG is the call-dense workload (one STDIO access per 4KB sample),
	// so interception cost shows up the way it did for Recorder.
	w := benchWorkload(b, "jag")
	spec := benchSpec(w)
	var pct float64
	for i := 0; i < b.N; i++ {
		off := spec
		off.TraceEnabled = false
		base, err := Run(w, off)
		if err != nil {
			b.Fatal(err)
		}
		on := spec
		// Calibrated to Recorder's interception cost at the simulation's
		// virtual operation rate; reproduces the paper's ~8% observation.
		on.TraceOverhead = 200 * time.Microsecond
		traced, err := Run(w, on)
		if err != nil {
			b.Fatal(err)
		}
		pct = (float64(traced.Runtime)/float64(base.Runtime) - 1) * 100
	}
	b.ReportMetric(pct, "pct")
}

// ---------------------------------------------------------------------------
// Ablations: the design choices DESIGN.md calls out.

// BenchmarkAblation_Contention compares HACC under the contended FCFS
// server model against an idealized uncontended stack (many servers, no
// NIC limit), quantifying how much of the runtime is queueing.
func BenchmarkAblation_Contention(b *testing.B) {
	w := benchWorkload(b, "hacc")
	spec := benchSpec(w)
	spec.Storage.CacheEnabled = false
	ideal := spec
	ideal.Storage.PFSServers = 4096
	ideal.Storage.NodeNICBW = 0
	ideal.Storage.PFSMetaServers = 4096
	var ratio float64
	for i := 0; i < b.N; i++ {
		contended, err := Run(w, spec)
		if err != nil {
			b.Fatal(err)
		}
		free, err := Run(w, ideal)
		if err != nil {
			b.Fatal(err)
		}
		ratio = float64(contended.Runtime) / float64(free.Runtime)
	}
	if ratio < 1 {
		b.Fatalf("contention ratio %.2f < 1", ratio)
	}
	b.ReportMetric(ratio, "slowdown")
}

// BenchmarkAblation_PageCache toggles the client page cache, the source
// of Montage's write-then-read bandwidth spikes (Figure 5c).
func BenchmarkAblation_PageCache(b *testing.B) {
	w := benchWorkload(b, "montage-mpi")
	spec := benchSpec(w)
	nocache := spec
	nocache.Storage.CacheEnabled = false
	var ratio float64
	for i := 0; i < b.N; i++ {
		with, err := Run(w, spec)
		if err != nil {
			b.Fatal(err)
		}
		without, err := Run(w, nocache)
		if err != nil {
			b.Fatal(err)
		}
		ratio = float64(without.Runtime) / float64(with.Runtime)
	}
	b.ReportMetric(ratio, "slowdown")
}

// BenchmarkAblation_HDF5Chunking toggles dataset chunking for CosmoFlow,
// the paper's "no chunking slows down metadata accesses" observation.
func BenchmarkAblation_HDF5Chunking(b *testing.B) {
	w := benchWorkload(b, "cosmoflow")
	spec := benchSpec(w)
	chunked := spec
	chunked.Iface.HDF5Chunked = true
	var ratio float64
	for i := 0; i < b.N; i++ {
		un, err := Run(w, spec)
		if err != nil {
			b.Fatal(err)
		}
		ch, err := Run(w, chunked)
		if err != nil {
			b.Fatal(err)
		}
		ratio = float64(un.Runtime) / float64(ch.Runtime)
	}
	if ratio < 1 {
		b.Fatalf("chunking made CosmoFlow slower (%.2f)", ratio)
	}
	b.ReportMetric(ratio, "speedup")
}

// BenchmarkAblation_CollectiveSync toggles MPI-IO's communicator-scaled
// synchronization metadata, CosmoFlow's "aggregation of small files
// across many processes" cost.
func BenchmarkAblation_CollectiveSync(b *testing.B) {
	w := benchWorkload(b, "cosmoflow")
	spec := benchSpec(w)
	nosync := spec
	nosync.Iface.MPIIOCommScaling = false
	nosync.Iface.MPIIOSyncMetaPerOpen = 0
	nosync.Iface.MPIIOSyncMetaPerData = 0
	var ratio float64
	for i := 0; i < b.N; i++ {
		with, err := Run(w, spec)
		if err != nil {
			b.Fatal(err)
		}
		without, err := Run(w, nosync)
		if err != nil {
			b.Fatal(err)
		}
		ratio = float64(with.Runtime) / float64(without.Runtime)
	}
	b.ReportMetric(ratio, "slowdown")
}

// BenchmarkAblation_PhaseThreshold sweeps the phase-detection gap and
// reports how segmentation changes, validating that Table V is robust to
// the threshold choice within an order of magnitude.
func BenchmarkAblation_PhaseThreshold(b *testing.B) {
	allRuns(b)
	res := runRes["cm1"]
	var fine, coarse int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := core.Analyze(res.Trace, core.Options{PhaseGap: 20 * time.Millisecond})
		c := core.Analyze(res.Trace, core.Options{PhaseGap: 10 * time.Second})
		fine, coarse = len(f.Phases), len(c.Phases)
	}
	if fine < coarse {
		b.Fatalf("finer gap found fewer phases (%d < %d)", fine, coarse)
	}
	b.ReportMetric(float64(fine), "fine-phases")
	b.ReportMetric(float64(coarse), "coarse-phases")
}

// BenchmarkAblation_ColumnarAnalysis compares aggregating over the
// columnar table against scanning row-major events, the paper's
// parquet-conversion argument.
func BenchmarkAblation_ColumnarAnalysis(b *testing.B) {
	allRuns(b)
	tr := runRes["montage-pegasus"].Trace
	tb := colstore.FromEvents(tr.Events, 0)
	b.Run("columnar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var sum int64
			tb.ForEachChunk(func(c *colstore.Chunk) {
				for j := 0; j < c.N; j++ {
					if trace.Op(c.Op[j]) == trace.OpRead {
						sum += c.Size[j]
					}
				}
			})
			if sum == 0 {
				b.Fatal("no reads")
			}
		}
	})
	b.Run("row-major", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var sum int64
			for j := range tr.Events {
				if tr.Events[j].Op == trace.OpRead {
					sum += tr.Events[j].Size
				}
			}
			if sum == 0 {
				b.Fatal("no reads")
			}
		}
	})
}

// BenchmarkAblation_AsyncMiddleware toggles UnifyFS-style relaxed
// consistency for CM1, whose rank-0 small writes otherwise pay
// synchronous shared-file PFS cost (the paper's Section IV-D2 async-I/O
// optimization, gated on the cross-node RAW attribute).
func BenchmarkAblation_AsyncMiddleware(b *testing.B) {
	w := benchWorkload(b, "cm1")
	spec := benchSpec(w)
	relaxed := spec
	relaxed.Storage.RelaxedConsistency = true
	var ratio float64
	for i := 0; i < b.N; i++ {
		sync, err := Run(w, spec)
		if err != nil {
			b.Fatal(err)
		}
		async, err := Run(w, relaxed)
		if err != nil {
			b.Fatal(err)
		}
		ratio = float64(sync.Runtime) / float64(async.Runtime)
	}
	if ratio < 1 {
		b.Fatalf("async middleware slowed CM1 (%.2f)", ratio)
	}
	b.ReportMetric(ratio, "speedup")
}
