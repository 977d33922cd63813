package vani

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (see DESIGN.md's per-experiment index) and measures the
// design choices called out for ablation. Workload runs use reduced scale
// so the full suite completes in minutes; the rendered rows follow the
// same ratios as the paper-scale runs in EXPERIMENTS.md.
//
// Custom metrics reported alongside ns/op:
//   - events/op: trace events produced by the run
//   - speedup:   baseline/optimized improvement (Figures 7-8)
//   - pct:       percentage metrics (tracing overhead, metadata share)

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"vani/internal/colstore"
	"vani/internal/core"
	"vani/internal/darshan"
	"vani/internal/replay"
	"vani/internal/report"
	"vani/internal/sim"
	"vani/internal/spec/spectest"
	"vani/internal/stats"
	"vani/internal/storage"
	"vani/internal/trace"
	"vani/internal/workloads"
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
	}
	w, err := New(name)
	if err != nil {
		b.Fatal(err)
	}
	switch v := w.(type) {
	case *workloads.HACC:
		v.ComputeInit = 0
	case *workloads.JAG:
		v.Epochs = 5
		v.ComputePerEpoch = 50 * time.Millisecond
	case *workloads.MontagePegasus:
		v.ProjectCompute = 0
		v.DiffCompute = 0
		v.BgModelCompute = 0
		v.BgCompute = 0
		v.AddCompute = 0
		v.ViewerCompute = 0
		v.ConcatCompute = 0
		v.FitCompute = 0
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
	runOnce  sync.Once
	runCols  []report.Named
	runChars map[string]*Characterization
	runRes   map[string]*Result
)

func allRuns(b *testing.B) ([]report.Named, map[string]*Characterization) {
	b.Helper()
	runOnce.Do(func() {
		runChars = make(map[string]*Characterization)
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
			c := Characterize(res)
			runChars[name] = c
			runRes[name] = res
			runCols = append(runCols, report.Named{Name: name, C: c})
		}
	})
	return runCols, runChars
}

// benchTable measures regenerating one of the paper's tables from the
// cached characterizations of all six workloads.
func benchTable(b *testing.B, render func(cols []report.Named) string) {
	cols, _ := allRuns(b)
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
	_, chars := allRuns(b)
	res := runRes["cm1"]
	var fine, coarse int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := core.Analyze(res.Trace, core.Options{PhaseGap: 20 * time.Millisecond})
		c := core.Analyze(res.Trace, core.Options{PhaseGap: 10 * time.Second})
		fine, coarse = len(f.Phases), len(c.Phases)
	}
	_ = chars
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
	_, _ = allRuns(b)
	tr := runRes["montage-pegasus"].Trace
	tb := colstore.FromTrace(tr)
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
	b.Run("columnar-fused", func(b *testing.B) {
		isRead := func(i int) bool { return trace.Op(tb.Op(i)) == trace.OpRead }
		for i := 0; i < b.N; i++ {
			agg := &colstore.Agg{Pred: isRead}
			tb.Scan(1, agg)
			if agg.Bytes == 0 {
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

// ---------------------------------------------------------------------------
// Substrate microbenchmarks.

// BenchmarkKernel_EventThroughput measures raw simulation kernel event
// processing: 64 processes contending on one FCFS resource for 256
// rounds each (~33K scheduled events per iteration).
func BenchmarkKernel_EventThroughput(b *testing.B) {
	var events int64
	for i := 0; i < b.N; i++ {
		e := sim.NewEngine()
		r := sim.NewResource(e, "disk")
		for pnum := 0; pnum < 64; pnum++ {
			e.Spawn("p", func(p *sim.Proc) {
				for j := 0; j < 256; j++ {
					r.Use(p, time.Microsecond)
				}
			})
		}
		e.Run()
		events = e.EventsExecuted
	}
	b.ReportMetric(float64(events), "events/op")
}

// BenchmarkTraceCodec measures trace serialization round-trip throughput
// (write + full read) in the default on-disk format.
func BenchmarkTraceCodec(b *testing.B) {
	_, _ = allRuns(b)
	tr := runRes["hacc"].Trace
	var buf bytes.Buffer
	if err := WriteTrace(&buf, tr); err != nil {
		b.Fatal(err)
	}
	size := buf.Len()
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := WriteTrace(&buf, tr); err != nil {
			b.Fatal(err)
		}
		if _, err := ReadTrace(bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}

// codecFixtures builds one large synthetic trace (~200K events) and its
// encodings, plain and under flate, shared by the encode/decode throughput
// benches so comparisons run over identical data.
var (
	codecOnce    sync.Once
	codecTrace   *Trace
	codecV2      []byte
	codecV2Flate []byte
)

func codecFixtures(b *testing.B) {
	b.Helper()
	codecOnce.Do(func() {
		rng := sim.NewRNG(11)
		tr := trace.NewTracer()
		tr.SetMeta(trace.Meta{
			Workload: "bench", JobID: "bench-1", Nodes: 32, CoresPerNode: 40,
			Ranks: 1280, PFSDir: "/p/gpfs1", NodeLocalDir: "/dev/shm",
		})
		app := tr.AppID("bench")
		var files []int32
		for i := 0; i < 64; i++ {
			files = append(files, tr.FileID(fmt.Sprintf("/p/gpfs1/part%02d", i)))
		}
		var clock time.Duration
		const nEvents = 200_000
		for i := 0; i < nEvents; i++ {
			clock += time.Duration(rng.Intn(2000)) * time.Microsecond
			op := trace.OpRead
			if rng.Intn(2) == 0 {
				op = trace.OpWrite
			}
			tr.Record(trace.Event{
				Level: trace.LevelPosix, Op: op,
				Rank: int32(rng.Intn(1280)), Node: int32(rng.Intn(32)),
				App: app, File: files[rng.Intn(len(files))],
				Offset: int64(rng.Intn(1 << 30)), Size: int64(rng.Intn(1 << 22)),
				Start: clock, End: clock + time.Duration(rng.Intn(5000))*time.Microsecond,
			})
		}
		codecTrace = tr.Finish()
		encode := func(f func(*bytes.Buffer) error) []byte {
			var buf bytes.Buffer
			if err := f(&buf); err != nil {
				panic(err)
			}
			return buf.Bytes()
		}
		codecV2 = encode(func(buf *bytes.Buffer) error { return trace.WriteV2(buf, codecTrace) })
		codecV2Flate = encode(func(buf *bytes.Buffer) error {
			return trace.WriteV2With(buf, codecTrace, trace.V2Options{Compress: true})
		})
	})
}

// BenchmarkTraceEncode measures encode throughput (MB/s of produced bytes),
// plain and under the outer flate layer. The encoder fans block encoding
// over the worker pool; its output is byte-identical at every parallelism.
func BenchmarkTraceEncode(b *testing.B) {
	codecFixtures(b)
	for _, bench := range []struct {
		name    string
		encoded []byte
		write   func(*bytes.Buffer) error
	}{
		{"v2", codecV2, func(buf *bytes.Buffer) error { return trace.WriteV2(buf, codecTrace) }},
		{"v2-flate", codecV2Flate, func(buf *bytes.Buffer) error {
			return trace.WriteV2With(buf, codecTrace, trace.V2Options{Compress: true})
		}},
	} {
		b.Run(bench.name, func(b *testing.B) {
			var buf bytes.Buffer
			buf.Grow(len(bench.encoded))
			b.SetBytes(int64(len(bench.encoded)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := bench.write(&buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTraceDecodeToTable measures the full ingest path: log bytes to
// analyzable column chunks, every column decoded. Blocks decode
// independently, serially or fanned over the worker pool straight into
// chunk adoption.
func BenchmarkTraceDecodeToTable(b *testing.B) {
	codecFixtures(b)
	wantRows := len(codecTrace.Events)
	decodeV2 := func(data []byte, par int) (*colstore.Table, error) {
		br, err := trace.NewBlockReader(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			return nil, err
		}
		return colstore.FromBlocksSpec(br, par, colstore.ScanSpec{Cols: trace.AllCols}, nil)
	}
	for _, bench := range []struct {
		name   string
		bytes  []byte
		decode func() (*colstore.Table, error)
	}{
		{"v2-serial", codecV2, func() (*colstore.Table, error) { return decodeV2(codecV2, 1) }},
		{"v2-parallel", codecV2, func() (*colstore.Table, error) { return decodeV2(codecV2, 0) }},
		{"v2-flate-parallel", codecV2Flate, func() (*colstore.Table, error) { return decodeV2(codecV2Flate, 0) }},
	} {
		b.Run(bench.name, func(b *testing.B) {
			b.SetBytes(int64(len(bench.bytes)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tb, err := bench.decode()
				if err != nil {
					b.Fatal(err)
				}
				if tb.Len() != wantRows {
					b.Fatalf("decoded %d rows, want %d", tb.Len(), wantRows)
				}
			}
		})
	}
}

// BenchmarkCodecMatrix measures every column codec the writer supports over
// the same 200K-event fixture: encoded size (enc-bytes) and full-column-scan
// decode throughput (MB/s over the encoded bytes; every column
// materialized). "v22-auto" is the per-segment cost model, the forced
// variants pin one segment codec everywhere, and the -flate row wraps the
// block in an outer deflate layer.
func BenchmarkCodecMatrix(b *testing.B) {
	codecFixtures(b)
	wantRows := len(codecTrace.Events)
	for _, bench := range []struct {
		name string
		opt  trace.V2Options
	}{
		{"v22-auto", trace.V2Options{}},
		{"v22-flate", trace.V2Options{Compress: true}},
		{"v22-raw", trace.V2Options{Codec: trace.CodecForceRaw}},
		{"v22-rle", trace.V2Options{Codec: trace.CodecForceRLE}},
		{"v22-dict", trace.V2Options{Codec: trace.CodecForceDict}},
		{"v22-for", trace.V2Options{Codec: trace.CodecForceFOR}},
	} {
		b.Run(bench.name, func(b *testing.B) {
			var buf bytes.Buffer
			if err := trace.WriteV2With(&buf, codecTrace, bench.opt); err != nil {
				b.Fatal(err)
			}
			enc := buf.Bytes()
			b.SetBytes(int64(len(enc)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				br, err := trace.NewBlockReader(bytes.NewReader(enc), int64(len(enc)))
				if err != nil {
					b.Fatal(err)
				}
				tb, err := colstore.FromBlocksSpec(br, 0, colstore.ScanSpec{Cols: trace.AllCols}, nil)
				if err != nil {
					b.Fatal(err)
				}
				if err := tb.Materialize(0, trace.AllCols); err != nil {
					b.Fatal(err)
				}
				if tb.Len() != wantRows {
					b.Fatalf("decoded %d rows, want %d", tb.Len(), wantRows)
				}
			}
			b.ReportMetric(float64(len(enc)), "enc-bytes")
		})
	}
}

// BenchmarkScanPlanner measures what predicate pushdown buys on a windowed
// scan of a block log. All cases process the same encoded log (SetBytes, so
// MB/s compares directly): "full" materializes every row and column;
// "window25-fullscan" decodes everything and filters in memory (the
// no-pushdown baseline); "window25-pruned" pushes the window down to the
// footer index so ~3/4 of the blocks are never decoded;
// "window25-projected" additionally declares a two-column projection and
// skips materializing the other nine.
func BenchmarkScanPlanner(b *testing.B) {
	codecFixtures(b)
	end := codecTrace.Events[len(codecTrace.Events)-1].Start
	window := trace.Filter{From: end / 4, To: end / 2}
	open := func() *trace.BlockReader {
		br, err := trace.NewBlockReader(bytes.NewReader(codecV2), int64(len(codecV2)))
		if err != nil {
			b.Fatal(err)
		}
		return br
	}
	plan := func(spec colstore.ScanSpec, want trace.ColSet) (*colstore.Table, error) {
		tb, err := colstore.FromBlocksSpec(open(), 0, spec, nil)
		if err != nil {
			return nil, err
		}
		if want != 0 {
			if err := tb.Materialize(0, want); err != nil {
				return nil, err
			}
		}
		return tb, nil
	}
	wantRows := len(trace.FilterEvents(codecTrace.Events, window))
	for _, bench := range []struct {
		name string
		rows int
		scan func() (*colstore.Table, error)
	}{
		{"full", len(codecTrace.Events), func() (*colstore.Table, error) {
			return plan(colstore.ScanSpec{}, trace.AllCols)
		}},
		{"window25-fullscan", wantRows, func() (*colstore.Table, error) {
			tr, err := trace.Read(bytes.NewReader(codecV2))
			if err != nil {
				return nil, err
			}
			return colstore.FromEvents(trace.FilterEvents(tr.Events, window), 0), nil
		}},
		{"window25-pruned", wantRows, func() (*colstore.Table, error) {
			return plan(colstore.ScanSpec{Filter: window}, trace.AllCols)
		}},
		{"window25-projected", wantRows, func() (*colstore.Table, error) {
			return plan(colstore.ScanSpec{Filter: window, Cols: trace.ColStart | trace.ColSize}, 0)
		}},
	} {
		b.Run(bench.name, func(b *testing.B) {
			b.SetBytes(int64(len(codecV2)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tb, err := bench.scan()
				if err != nil {
					b.Fatal(err)
				}
				if tb.Len() != bench.rows {
					b.Fatalf("scanned %d rows, want %d", tb.Len(), bench.rows)
				}
			}
		})
	}
}

// BenchmarkAnalyzer measures full characterization of a mid-sized trace.
func BenchmarkAnalyzer(b *testing.B) {
	_, _ = allRuns(b)
	res := runRes["montage-mpi"]
	cfg := res.Spec.Storage
	opt := core.DefaultOptions()
	opt.Storage = &cfg
	b.ReportMetric(float64(len(res.Trace.Events)), "events")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := core.Analyze(res.Trace, opt)
		if c.Workflow.IOBytes == 0 {
			b.Fatal("empty analysis")
		}
	}
}

// BenchmarkAnalyzerParallelism is the analyzer's scaling curve: one full
// characterization, from encoded v2.2 bytes to entities, at 1, 2, 4 and
// GOMAXPROCS workers, over 32-node hacc and cm1 logs, rank-interleaved
// after the k-way merge. Tables are planned lazily, as the file path plans
// them, and anew per iteration (an analysis materializes the columns it
// reads). MB/s is over the encoded log; the outputs are bit-identical at
// every setting.
func BenchmarkAnalyzerParallelism(b *testing.B) {
	for _, wl := range []struct {
		name  string
		scale float64
	}{
		{"hacc", 0.3},
		{"cm1", 0.15},
	} {
		w := benchWorkload(b, wl.name)
		spec := w.DefaultSpec()
		spec.Nodes, spec.Scale = 32, wl.scale
		res, err := Run(w, spec)
		if err != nil {
			b.Fatal(err)
		}
		var enc bytes.Buffer
		if err := trace.WriteV2(&enc, res.Trace); err != nil {
			b.Fatal(err)
		}
		cfg := res.Spec.Storage
		for _, arm := range []struct {
			name string
			par  int
		}{
			{"par=1", 1},
			{"par=2", 2},
			{"par=4", 4},
			{"par=max", 0},
		} {
			b.Run(wl.name+"/"+arm.name, func(b *testing.B) {
				opt := core.DefaultOptions()
				opt.Storage = &cfg
				opt.Parallelism = arm.par
				b.SetBytes(int64(enc.Len()))
				b.ReportMetric(float64(len(res.Trace.Events)), "rows")
				for i := 0; i < b.N; i++ {
					br, err := trace.NewBlockReader(bytes.NewReader(enc.Bytes()), int64(enc.Len()))
					if err != nil {
						b.Fatal(err)
					}
					tb, err := colstore.FromBlocksSpec(br, arm.par, colstore.ScanSpec{}, nil)
					if err != nil {
						b.Fatal(err)
					}
					c, err := core.AnalyzeTable(res.Trace, tb, opt)
					if err != nil {
						b.Fatal(err)
					}
					if c.Workflow.IOBytes == 0 {
						b.Fatal("empty analysis")
					}
				}
			})
		}
	}
}

// BenchmarkColumnarize measures the row-to-chunk transposition stage at
// both parallelism settings.
func BenchmarkColumnarize(b *testing.B) {
	_, _ = allRuns(b)
	tr := runRes["montage-mpi"].Trace
	for _, bench := range []struct {
		name string
		par  int
	}{
		{"seq", 1},
		{"par", 0},
	} {
		b.Run(bench.name, func(b *testing.B) {
			b.ReportMetric(float64(len(tr.Events)), "events")
			for i := 0; i < b.N; i++ {
				if tb := colstore.FromEvents(tr.Events, bench.par); tb.Len() == 0 {
					b.Fatal("empty table")
				}
			}
		})
	}
}

// BenchmarkDistributionFit measures the Table VI distribution classifier.
func BenchmarkDistributionFit(b *testing.B) {
	rng := sim.NewRNG(7)
	xs := make([]float64, 50000)
	for i := range xs {
		xs[i] = rng.Gamma(2, 3)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if k := stats.FitDistribution(xs); k != stats.DistGamma {
			b.Fatalf("classified %v", k)
		}
	}
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

// BenchmarkReplay measures re-executing a captured HACC trace against a
// candidate storage configuration (the tuner's inner loop).
func BenchmarkReplay(b *testing.B) {
	_, _ = allRuns(b)
	tr := runRes["hacc"].Trace
	opt := replay.DefaultOptions()
	opt.PreserveThinkTime = false
	b.ReportMetric(float64(len(tr.Events)), "events")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := replay.Run(tr, opt)
		if err != nil {
			b.Fatal(err)
		}
		if res.Ops == 0 {
			b.Fatal("empty replay")
		}
	}
}

// BenchmarkDarshanReduction measures collapsing a full trace into the
// Darshan-style aggregate profile, the lossy alternative the paper
// rejects for its characterization.
func BenchmarkDarshanReduction(b *testing.B) {
	_, _ = allRuns(b)
	tr := runRes["montage-mpi"].Trace
	b.ReportMetric(float64(len(tr.Events)), "events")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := darshan.FromTrace(tr)
		if len(p.Records) == 0 {
			b.Fatal("empty profile")
		}
	}
}
