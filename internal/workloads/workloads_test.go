package workloads_test

import (
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"testing"
	"time"

	"vani/internal/cluster"
	"vani/internal/spec"
	"vani/internal/spec/spectest"
	"vani/internal/storage"
	"vani/internal/trace"
	"vani/internal/workloads"
)

// jagDataPath is JAG's one shared dataset file.
const jagDataPath = "/p/gpfs1/jag/images_scalars.npy"

// tinySpec returns a fast configuration for tests: 4 nodes, small scale.
func tinySpec(w spec.Workload, scale float64) workloads.Spec {
	s := w.DefaultSpec()
	s.Nodes = 4
	if s.RanksPerNode > 8 {
		s.RanksPerNode = 8
	}
	s.Scale = scale
	return s
}

func mustRun(t *testing.T, w spec.Workload, spec workloads.Spec) *workloads.Result {
	t.Helper()
	res, err := w.Run(spec)
	if err != nil {
		t.Fatalf("Run(%s): %v", w.Name(), err)
	}
	return res
}

// TestRegistryComplete: the catalog holds the seven exemplars, each a
// golden spec under exactly one name.
func TestRegistryComplete(t *testing.T) {
	want := []string{"cm1", "cosmoflow", "hacc", "ior", "jag", "montage-mpi", "montage-pegasus"}
	got := spec.Names()
	for i := 1; i < len(got); i++ {
		if got[i] == got[i-1] {
			t.Errorf("%s is in the catalog twice", got[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("Names() = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", got, want)
		}
	}
	if _, err := spec.New("nope"); err == nil {
		t.Error("unknown workload accepted")
	}
	if len(spec.All()) != len(want) {
		t.Error("All() incomplete")
	}
}

func TestRunRejectsBadScale(t *testing.T) {
	w := spectest.Golden(t, "hacc", nil)
	for _, scale := range []float64{0, -1, 1.5} {
		s := tinySpec(w, scale)
		if _, err := w.Run(s); err == nil {
			t.Errorf("scale %v accepted", scale)
		}
	}
}

func TestRunRejectsBadJob(t *testing.T) {
	w := spectest.Golden(t, "hacc", nil)
	s := tinySpec(w, 0.01)
	s.Nodes = 0
	if _, err := w.Run(s); err == nil {
		t.Error("zero nodes accepted")
	}
}

// perWorkload invariants checked for every exemplar.
func checkCommonInvariants(t *testing.T, w spec.Workload, res *workloads.Result) {
	t.Helper()
	tr := res.Trace
	if len(tr.Events) == 0 {
		t.Fatalf("%s: empty trace", w.Name())
	}
	if res.Runtime <= 0 {
		t.Errorf("%s: runtime %v", w.Name(), res.Runtime)
	}
	if tr.Meta.Workload != w.Name() {
		t.Errorf("%s: meta workload %q", w.Name(), tr.Meta.Workload)
	}
	if tr.JobRuntime() > res.Runtime {
		t.Errorf("%s: events end (%v) after job end (%v)", w.Name(), tr.JobRuntime(), res.Runtime)
	}
	ranks := map[int32]bool{}
	for _, ev := range tr.Events {
		if ev.End < ev.Start {
			t.Fatalf("%s: event ends before start: %+v", w.Name(), ev)
		}
		if ev.Op.IsData() && ev.Size <= 0 {
			t.Fatalf("%s: data op with size %d", w.Name(), ev.Size)
		}
		if int(ev.Node) >= res.Spec.Nodes || ev.Node < 0 {
			t.Fatalf("%s: event on node %d of %d", w.Name(), ev.Node, res.Spec.Nodes)
		}
		ranks[ev.Rank] = true
	}
	if len(ranks) < res.Job.Ranks()/2 {
		t.Errorf("%s: only %d of %d ranks traced", w.Name(), len(ranks), res.Job.Ranks())
	}
	if len(tr.Samples) == 0 {
		t.Errorf("%s: no dataset value sample attached", w.Name())
	}
}

func countByOp(tr *trace.Trace) (data, meta int) {
	for _, ev := range tr.Events {
		switch {
		case ev.Op.IsData():
			data++
		case ev.Op.IsMeta():
			meta++
		}
	}
	return
}

func bytesByOp(tr *trace.Trace, lv trace.Level) (read, written int64) {
	for _, ev := range tr.Events {
		if ev.Level != lv {
			continue
		}
		switch ev.Op {
		case trace.OpRead:
			read += ev.Size
		case trace.OpWrite:
			written += ev.Size
		}
	}
	return
}

func TestCM1Shape(t *testing.T) {
	w := spectest.Golden(t, "cm1", nil)
	res := mustRun(t, w, tinySpec(w, 0.05))
	checkCommonInvariants(t, w, res)
	tr := res.Trace

	// Only rank 0 writes simulation data; node leaders open/close.
	writers := map[int32]bool{}
	openers := map[int32]bool{}
	for _, ev := range tr.Events {
		if ev.Level != trace.LevelPosix || ev.File < 0 {
			continue
		}
		isStep := tr.Files[ev.File].Path[:17] == "/p/gpfs1/cm1/out/"
		if !isStep {
			continue
		}
		if ev.Op == trace.OpWrite {
			writers[ev.Rank] = true
		}
		if ev.Op == trace.OpOpen {
			openers[ev.Rank] = true
		}
	}
	if len(writers) != 1 || !writers[0] {
		t.Errorf("step-file writers = %v, want {0}", writers)
	}
	if len(openers) != res.Spec.Nodes {
		t.Errorf("step-file openers = %d ranks, want one per node (%d)", len(openers), res.Spec.Nodes)
	}

	// Writes are 4KB, reads are 16MB.
	for _, ev := range tr.Events {
		if ev.Level == trace.LevelPosix && ev.Op == trace.OpWrite && ev.Size > 4096 {
			t.Fatalf("CM1 write of %d bytes, want <=4KB", ev.Size)
		}
	}
}

func TestCM1ComputeAndIOAlternate(t *testing.T) {
	w := spectest.Golden(t, "cm1", nil)
	res := mustRun(t, w, tinySpec(w, 0.03))
	var compute, io time.Duration
	for _, ev := range res.Trace.Events {
		if ev.Op == trace.OpCompute {
			compute += ev.Duration()
		} else if ev.Op.IsIO() && ev.Rank == 0 {
			io += ev.Duration()
		}
	}
	if compute == 0 || io == 0 {
		t.Fatal("missing compute or I/O phases")
	}
}

func TestHACCShape(t *testing.T) {
	w := spectest.Golden(t, "hacc", nil)
	spec := tinySpec(w, 0.02)
	res := mustRun(t, w, spec)
	checkCommonInvariants(t, w, res)
	tr := res.Trace

	// Pure FPP: every data file is touched by exactly one rank.
	fileRanks := map[int32]map[int32]bool{}
	for _, ev := range tr.Events {
		if ev.File < 0 || !ev.Op.IsIO() {
			continue
		}
		if fileRanks[ev.File] == nil {
			fileRanks[ev.File] = map[int32]bool{}
		}
		fileRanks[ev.File][ev.Rank] = true
	}
	for f, rs := range fileRanks {
		if len(rs) != 1 {
			t.Errorf("HACC file %s accessed by %d ranks, want 1", tr.FilePath(f), len(rs))
		}
	}
	if len(fileRanks) != res.Job.Ranks() {
		t.Errorf("HACC files = %d, want one per rank (%d)", len(fileRanks), res.Job.Ranks())
	}

	// Checkpoint written then read back: bytes match.
	read, written := bytesByOp(tr, trace.LevelPosix)
	if read != written {
		t.Errorf("HACC read %d != written %d (checkpoint+restart must balance)", read, written)
	}
}

func TestHACCBandwidthVariance(t *testing.T) {
	// Contention must make per-rank I/O times differ (Figure 2c). The
	// client cache is disabled so writes hit the PFS directly; at full
	// scale the cache overflows and the same contention appears.
	w := spectest.Golden(t, "hacc", nil)
	spec := tinySpec(w, 0.02)
	spec.Storage.CacheEnabled = false
	res := mustRun(t, w, spec)
	perRank := map[int32]time.Duration{}
	for _, ev := range res.Trace.Events {
		if ev.Level == trace.LevelPosix && ev.Op == trace.OpWrite {
			perRank[ev.Rank] += ev.Duration()
		}
	}
	var min, max time.Duration
	for _, d := range perRank {
		if min == 0 || d < min {
			min = d
		}
		if d > max {
			max = d
		}
	}
	if max == min {
		t.Error("all ranks saw identical write time; contention model inert")
	}
}

func TestCosmoFlowShape(t *testing.T) {
	// Shrink compute for test speed.
	w := spectest.Golden(t, "cosmoflow", map[string]time.Duration{"gpu_per_file": 100 * time.Millisecond})
	spec := tinySpec(w, 0.002) // ~100 files
	res := mustRun(t, w, spec)
	checkCommonInvariants(t, w, res)
	tr := res.Trace

	data, meta := countByOp(tr)
	if meta <= data {
		t.Errorf("CosmoFlow meta ops (%d) not dominant over data (%d)", meta, data)
	}
	// HDF5 level present.
	hasApp := false
	for _, ev := range tr.Events {
		if ev.Level == trace.LevelApp && ev.Op == trace.OpRead {
			hasApp = true
			break
		}
	}
	if !hasApp {
		t.Error("no app-level HDF5 reads traced")
	}
}

func TestCosmoFlowOptimizedFaster(t *testing.T) {
	// Isolate I/O.
	w := spectest.Golden(t, "cosmoflow", map[string]time.Duration{"gpu_per_file": 0})
	base := tinySpec(w, 0.002)
	// Both runs move the whole dataset over the client NIC once; uncap it
	// so the metadata difference (the paper's bottleneck) is visible at
	// this tiny test scale.
	base.Storage.NodeNICBW = 0
	opt := base
	opt.Optimized = true
	rb := mustRun(t, w, base)
	ro := mustRun(t, w, opt)
	if ro.Runtime >= rb.Runtime {
		t.Errorf("optimized (%v) not faster than baseline (%v)", ro.Runtime, rb.Runtime)
	}
}

func TestJAGShape(t *testing.T) {
	const gpuPerEpoch = 100 * time.Millisecond
	w := spectest.GoldenSet(t, "jag", map[string]int64{"epochs": 5, "gpu_per_epoch": int64(gpuPerEpoch)})
	res := mustRun(t, w, tinySpec(w, 0.02))
	checkCommonInvariants(t, w, res)
	tr := res.Trace

	// Single shared dataset file read by all ranks.
	readers := map[int32]bool{}
	for _, ev := range tr.Events {
		if ev.File >= 0 && tr.Files[ev.File].Path == jagDataPath && ev.Op == trace.OpRead {
			readers[ev.Rank] = true
		}
	}
	if len(readers) != res.Job.Ranks() {
		t.Errorf("JAG dataset read by %d ranks, want all %d", len(readers), res.Job.Ranks())
	}

	// Two I/O phases: reads at start and at end, compute between.
	var firstIOEnd, lastIOStart time.Duration
	var maxComputeEnd time.Duration
	for _, ev := range tr.Events {
		if ev.Op == trace.OpGPUCompute && ev.End > maxComputeEnd {
			maxComputeEnd = ev.End
		}
	}
	for _, ev := range tr.Events {
		if ev.Op == trace.OpRead && ev.File >= 0 && tr.Files[ev.File].Path == jagDataPath {
			if firstIOEnd == 0 || ev.End < firstIOEnd {
				firstIOEnd = ev.End
			}
			if ev.Start > lastIOStart {
				lastIOStart = ev.Start
			}
		}
	}
	if lastIOStart <= maxComputeEnd-2*gpuPerEpoch {
		t.Error("no validation I/O phase after training")
	}
}

func TestMontageMPIShape(t *testing.T) {
	w := spectest.Golden(t, "montage-mpi", nil)
	res := mustRun(t, w, tinySpec(w, 0.1))
	checkCommonInvariants(t, w, res)
	tr := res.Trace

	// Five applications.
	apps := map[string]bool{}
	for _, a := range tr.Apps {
		apps[a] = true
	}
	for _, want := range []string{"mProject", "mImgtbl", "mAddMPI", "mShrink", "mViewer"} {
		if !apps[want] {
			t.Errorf("app %s missing from trace (have %v)", want, tr.Apps)
		}
	}

	// Node leaders do far more I/O ops than non-leaders.
	perRank := map[int32]int{}
	for _, ev := range tr.Events {
		if ev.Op.IsIO() {
			perRank[ev.Rank]++
		}
	}
	leader, nonLeader := perRank[0], perRank[1]
	if leader < 5*nonLeader {
		t.Errorf("leader ops (%d) not >> non-leader ops (%d)", leader, nonLeader)
	}
}

// TestMontageMPISmallScale: at 32 nodes and scale 0.001 the node mosaic is
// not a whole number of view granules (and its RanksPerNode slices leave it
// a few bytes short of nominal), so the sparse sampling reads of mShrink
// and mViewer must clamp their last read to the file's end instead of
// running past EOF.
func TestMontageMPISmallScale(t *testing.T) {
	w := spectest.Golden(t, "montage-mpi", nil)
	spec := w.DefaultSpec()
	spec.Nodes = 32
	spec.Scale = 0.001
	res := mustRun(t, w, spec)
	checkCommonInvariants(t, w, res)
	tr := res.Trace
	const viewGranule = 16 << 10 // the document's view_granule
	clamped := 0
	for _, ev := range tr.Events {
		if ev.Level != trace.LevelPosix || ev.Op != trace.OpRead || ev.File < 0 {
			continue
		}
		info := tr.Files[ev.File]
		if ev.Offset+ev.Size > info.Size {
			t.Fatalf("read [%d,%d) of %s past its size %d", ev.Offset, ev.Offset+ev.Size, info.Path, info.Size)
		}
		if ev.Size < viewGranule && ev.Offset+ev.Size == info.Size {
			clamped++
		}
	}
	if clamped == 0 {
		t.Error("no sampling read was clamped to the mosaic's end; the case no longer covers the boundary")
	}
}

func TestMontageMPIOptimizedFaster(t *testing.T) {
	// Remove compute so the I/O difference dominates.
	w := spectest.Golden(t, "montage-mpi", map[string]time.Duration{
		"project_compute": 0, "add_compute": 0, "shrink_compute": 0, "viewer_compute": 0,
	})
	base := tinySpec(w, 0.1)
	opt := base
	opt.Optimized = true
	rb := mustRun(t, w, base)
	ro := mustRun(t, w, opt)
	if ro.Runtime >= rb.Runtime {
		t.Errorf("optimized (%v) not faster than baseline (%v)", ro.Runtime, rb.Runtime)
	}
	// Optimized run must route intermediate traffic to node-local storage.
	if ro.Sys.Stats[1].BytesWritten == 0 { // TargetNodeLocal
		t.Error("optimized run wrote nothing to node-local storage")
	}
}

func TestMontagePegasusShape(t *testing.T) {
	w := spectest.Golden(t, "montage-pegasus", nil)
	res := mustRun(t, w, tinySpec(w, 0.02))
	checkCommonInvariants(t, w, res)
	tr := res.Trace

	// Nine kernels.
	apps := map[string]bool{}
	for _, a := range tr.Apps {
		apps[a] = true
	}
	for _, want := range []string{"mProject", "mImgTbl", "mDiff", "mFitplane",
		"mConcatFit", "mBgModel", "mBackground", "mAdd", "mViewer"} {
		if !apps[want] {
			t.Errorf("kernel %s missing (have %v)", want, tr.Apps)
		}
	}

	// mViewer's two large requests.
	bigReads := 0
	for _, ev := range tr.Events {
		if ev.Level == trace.LevelPosix && ev.Op == trace.OpRead && ev.Size > 16<<20 {
			bigReads++
		}
	}
	if bigReads != 2 {
		t.Errorf("large (>16MB) reads = %d, want 2 (mViewer)", bigReads)
	}
}

func TestMontagePegasusDiffDominates(t *testing.T) {
	w := spectest.Golden(t, "montage-pegasus", nil)
	res := mustRun(t, w, tinySpec(w, 0.02))
	tr := res.Trace
	byApp := map[string]int64{}
	for _, ev := range tr.Events {
		if ev.Level == trace.LevelMiddleware && ev.Op == trace.OpRead {
			byApp[tr.AppName(ev.App)] += ev.Size
		}
	}
	var total int64
	for _, b := range byApp {
		total += b
	}
	if total == 0 || byApp["mDiff"]*2 < total {
		t.Errorf("mDiff reads %d of %d bytes, want majority", byApp["mDiff"], total)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	w := spectest.Golden(t, "hacc", nil)
	spec := tinySpec(w, 0.01)
	a := mustRun(t, w, spec)
	b := mustRun(t, w, spec)
	if a.Runtime != b.Runtime {
		t.Fatalf("runtimes differ: %v vs %v", a.Runtime, b.Runtime)
	}
	if len(a.Trace.Events) != len(b.Trace.Events) {
		t.Fatalf("event counts differ: %d vs %d", len(a.Trace.Events), len(b.Trace.Events))
	}
	for i := range a.Trace.Events {
		if a.Trace.Events[i] != b.Trace.Events[i] {
			t.Fatalf("event %d differs", i)
		}
	}
}

func TestTraceOverheadAddsRuntime(t *testing.T) {
	w := spectest.Golden(t, "hacc", nil)
	spec := tinySpec(w, 0.01)
	base := mustRun(t, w, spec)
	spec.TraceOverhead = 50 * time.Microsecond
	traced := mustRun(t, w, spec)
	if traced.Runtime <= base.Runtime {
		t.Errorf("overhead run (%v) not slower than base (%v)", traced.Runtime, base.Runtime)
	}
	if traced.Trace.Meta.TraceOverhead == 0 {
		t.Error("trace overhead not recorded in meta")
	}
}

func TestTracingDisabledProducesNoEvents(t *testing.T) {
	w := spectest.Golden(t, "hacc", nil)
	spec := tinySpec(w, 0.01)
	spec.TraceEnabled = false
	res := mustRun(t, w, spec)
	if len(res.Trace.Events) != 0 {
		t.Errorf("disabled tracer captured %d events", len(res.Trace.Events))
	}
	if res.Runtime <= 0 {
		t.Error("untraced run has no runtime")
	}
}

func TestIORShape(t *testing.T) {
	const transfer = 16 << 20 // the document's transfer
	w := spectest.Golden(t, "ior", nil)
	spec := tinySpec(w, 0.01)
	spec.RanksPerNode = 1
	res := mustRun(t, w, spec)
	checkCommonInvariants(t, w, res)
	tr := res.Trace

	read, written := bytesByOp(tr, trace.LevelPosix)
	if read != written || written == 0 {
		t.Errorf("IOR read %d / written %d, want equal nonzero", read, written)
	}
	for _, ev := range tr.Events {
		if ev.Op.IsData() && ev.Size != transfer {
			t.Errorf("transfer of %d bytes, want %d", ev.Size, transfer)
		}
	}
	// fsync traced.
	syncs := 0
	for _, ev := range tr.Events {
		if ev.Op == trace.OpSync {
			syncs++
		}
	}
	if syncs != res.Job.Ranks() {
		t.Errorf("syncs = %d, want one per rank", syncs)
	}
}

func TestIORSharedFileMode(t *testing.T) {
	w := spectest.GoldenSet(t, "ior", map[string]int64{"shared_file": 1})
	spec := tinySpec(w, 0.01)
	spec.RanksPerNode = 2
	res := mustRun(t, w, spec)
	files := map[int32]bool{}
	for _, ev := range res.Trace.Events {
		if ev.File >= 0 {
			files[ev.File] = true
		}
	}
	if len(files) != 1 {
		t.Errorf("shared-file IOR touched %d files, want 1", len(files))
	}
	// Ranks write disjoint regions at rank*perRank offsets.
	offsets := map[int64]int32{}
	for _, ev := range res.Trace.Events {
		if ev.Op == trace.OpWrite {
			if prev, dup := offsets[ev.Offset]; dup && prev != ev.Rank {
				t.Fatalf("offset %d written by ranks %d and %d", ev.Offset, prev, ev.Rank)
			}
			offsets[ev.Offset] = ev.Rank
		}
	}
}

// traceGolden is the SHA-256 of each workload's encoded trace at tinySpec
// scale 0.01, taken on the commit before the kernel's event loop moved onto
// the process goroutines (8289886). TestDeterministicAcrossRuns compares a
// binary with itself; this compares it with that commit.
var traceGolden = map[string]string{
	"cm1":             "51aa7a32ba45bed14b4ff3412b11d84cddae7db10d25fef23b0bf926d01d81b2",
	"cosmoflow":       "1a21cd0cd74ec9b7907652194ffeb49a9966bb60934ae8e665f9b0cde6c6fb00",
	"hacc":            "718357ecb36023fd024084f08dd7f29114e29694ec095b66c8f4c31c2e5a6a3e",
	"ior":             "8a4db8bc3b512ae42c1020db46b14dc0621b10ab6c4e9d651d65a23c019a091d",
	"jag":             "dbefb81be4a143fdfe23fa1835de0712383446acd4d3f4d3d312fc270d476f68",
	"montage-mpi":     "fdb524f1c53f2b7f1f6795567aa046cccf13b3d1df4e480da7bf00e1aebc3714",
	"montage-pegasus": "75fa5d4bb09f76dd35669ba7a403cd48211f21021da52a55398c5787014a9c14",
}

// TestTraceGoldenAcrossCommits: every workload still writes, byte for
// byte, the trace it wrote before the simulator and the tracer's event log
// were rewritten.
func TestTraceGoldenAcrossCommits(t *testing.T) {
	for _, w := range spec.All() {
		res := mustRun(t, w, tinySpec(w, 0.01))
		h := sha256.New()
		if err := trace.WriteV2(h, res.Trace); err != nil {
			t.Fatalf("%s: %v", w.Name(), err)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != traceGolden[w.Name()] {
			t.Errorf("%s: trace sha256 %s, want %s (%d events)", w.Name(), got, traceGolden[w.Name()], len(res.Trace.Events))
		}
	}
}

// generatorGolden pins the golden-spec workloads to what their Go
// generators wrote: event count and SHA-256 of the encoded trace, baseline
// and optimized, two seeds, and a job size where a scaled count meets its
// floor (montage-mpi's sampling reads clamp, jag's validation reads stay at
// 8). cm1, cosmoflow and montage-mpi were taken on the last commit that had
// their generators (708c984); hacc, ior and jag on b0f501b, hacc on Lassen
// and on Cori (where the optimized run checkpoints to the shared burst
// buffer) and ior with a file per process and with one shared file;
// montage-pegasus on 31cffc1, where 136 tasks queue for 16 slots at 4x4,
// add_tasks 200 makes 4 tiles of 2 images (mBackground_8 feeds no tile),
// and at 2x2 scale 0.001 every count is at its floor (one projected image,
// which each mDiff reads twice). The constants were taken from the
// generators, not from the interpreter, so they do not share its bugs.
var generatorGolden = []struct {
	name       string
	machine    string           // "" = Lassen, "cori" = Cori
	set        map[string]int64 // params set before the run
	nodes, rpn int
	scale      float64
	optimized  bool
	seed       int64
	events     int
	sha256     string
}{
	{"cm1", "", nil, 4, 4, 0.02, false, 1, 8626, "efdd2f0583d19e6a78050ba8d510c043b005533eeba8fbfbb3f8743f1a8a36e0"},
	{"cm1", "", nil, 4, 4, 0.02, false, 2, 8626, "23e5c9e4c8e1488b4b4be4d1395a5e027c6ad229f4717ff4ae8521ea40094e04"},
	{"cm1", "", nil, 4, 4, 0.02, true, 1, 8626, "efdd2f0583d19e6a78050ba8d510c043b005533eeba8fbfbb3f8743f1a8a36e0"},
	{"cm1", "", nil, 4, 4, 0.02, true, 2, 8626, "23e5c9e4c8e1488b4b4be4d1395a5e027c6ad229f4717ff4ae8521ea40094e04"},
	{"cosmoflow", "", nil, 4, 4, 0.02, false, 1, 86538, "a214beb879d9299f515ddbbd4e1f14418d220cb53b524fcbc3e7e96492643759"},
	{"cosmoflow", "", nil, 4, 4, 0.02, false, 2, 86538, "d7c6b299c7856e089b4e0bd04e45be62cf4cd705c35d8b0a4e3f1445d210f976"},
	{"cosmoflow", "", nil, 4, 4, 0.02, true, 1, 88528, "d519cc7fbe043642855a6c087937b53c0061a0529e6644c70c519bebff7fdc79"},
	{"cosmoflow", "", nil, 4, 4, 0.02, true, 2, 88528, "0d6ebfbd4598e8081ac27b233c013ab65095a722bbd47bdfe0aa48eeb5d074d4"},
	{"montage-mpi", "", nil, 4, 4, 0.02, false, 1, 39956, "4f48a214c179a20ebfb3860131e5b444ab24f74aaf60e1d2323e3886165d35b9"},
	{"montage-mpi", "", nil, 4, 4, 0.02, false, 2, 39956, "bb3aa28b60fe2c4e9a3111277e374d962b647d1f32bcfbd8d8a067b0034839c8"},
	{"montage-mpi", "", nil, 4, 4, 0.02, true, 1, 39956, "7b72d79d8dbd98eab6154dd7386b39d274a1bc491ab8b93833a7cd1006c872ec"},
	{"montage-mpi", "", nil, 4, 4, 0.02, true, 2, 39956, "912b8053ddbfd61bb2afce7f392047f6af7039759c5f00e35cf01cee596543ac"},
	{"montage-mpi", "", nil, 32, 40, 0.001, false, 1, 317728, "1324d9df7196291a5ee8dc643427dcec796e39018165574e94cc193920675049"},
	{"hacc", "", nil, 4, 4, 0.02, false, 1, 1344, "db1fa4c500eec3536bbd421309970df6ce60e57282d1f2662b1763b593540be7"},
	{"hacc", "", nil, 4, 4, 0.02, true, 1, 1344, "db1fa4c500eec3536bbd421309970df6ce60e57282d1f2662b1763b593540be7"},
	{"hacc", "cori", nil, 4, 4, 0.02, false, 1, 1344, "cadf21865e28dc52cbebfafed8e00206456316ee975fdddf6844b9667b62b423"},
	{"hacc", "cori", nil, 4, 4, 0.02, true, 1, 1344, "f50160621dc374c32b5302b93fe7095511c5650904d09986d502f3b180bc9ceb"},
	{"jag", "", nil, 4, 4, 0.02, false, 1, 20744, "e6522a9b11c6a282820dc449c5d4d5f4733e6288691d10728759ff25ec9b98dc"},
	{"jag", "", nil, 4, 4, 0.02, false, 2, 20742, "eb64bbdb8ecc01a57884d1906538047151ac1b360bcf86e3681aa070814924ec"},
	{"jag", "", nil, 2, 4, 0.005, false, 1, 4275, "07722b88b8b49e4397ab7ca09bc973abe56aa9a1e57047f8534a8b7704ce5306"},
	{"ior", "", nil, 4, 2, 0.02, false, 1, 128, "b8d1c125af5440d0c55cdeb612ae9d69a0f399ed67a662809f94fe99ef0dba4a"},
	{"ior", "", map[string]int64{"shared_file": 1}, 4, 2, 0.02, false, 1, 128, "c03c68ff78206b494a8e9b752226bbd41973ec5c640270cb0bc1f2a80d637c03"},
	{"montage-pegasus", "", nil, 4, 4, 0.02, false, 1, 91539, "cc30de0a3907d055e48a07a580fc99fe04a920f3dfc169ea91a7cdd0b0e74038"},
	{"montage-pegasus", "", nil, 4, 4, 0.02, false, 2, 91539, "c51c9602cc585e58a47620416e4ac687158c3ba877c6bf358bddbcaf0d41ea5b"},
	{"montage-pegasus", "", map[string]int64{"add_tasks": 200}, 4, 4, 0.02, false, 1, 97190, "bdae165ecf70d7eae70078ac0120ff6e8a6d76d28c3bbbbd6a9c1c4500579b3a"},
	{"montage-pegasus", "", nil, 2, 2, 0.001, false, 1, 10248, "116e02692c889683d02f5da583b372a9c2fef2b0286fd3a63f0b8bdb1301d8cf"},
}

func TestGoldenSpecsMatchGenerators(t *testing.T) {
	for _, g := range generatorGolden {
		w := spectest.GoldenSet(t, g.name, g.set)
		sp := w.DefaultSpec()
		if g.machine == "cori" {
			sp.Machine, sp.Storage = cluster.Cori(), storage.Cori()
		}
		sp.Nodes, sp.RanksPerNode, sp.Scale, sp.Optimized, sp.Seed = g.nodes, g.rpn, g.scale, g.optimized, g.seed
		res := mustRun(t, w, sp)
		h := sha256.New()
		if err := trace.WriteV2(h, res.Trace); err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != g.sha256 || len(res.Trace.Events) != g.events {
			t.Errorf("%s %s %v %dx%d scale %v optimized=%v seed %d: %d events, sha256 %s; the generator wrote %d, %s",
				g.name, g.machine, g.set, g.nodes, g.rpn, g.scale, g.optimized, g.seed, len(res.Trace.Events), got, g.events, g.sha256)
		}
	}
}

// TestGoldenSpecIdentity: the names, applications and default run specs the
// generators declared.
func TestGoldenSpecIdentity(t *testing.T) {
	for _, c := range []struct {
		name, app string
		edit      func(*workloads.Spec)
	}{
		{"cm1", "cm1", func(*workloads.Spec) {}},
		{"cosmoflow", "cosmoflow", func(s *workloads.Spec) { s.RanksPerNode, s.TimeLimit = 4, 6*time.Hour }},
		{"montage-mpi", "mProject", func(s *workloads.Spec) { s.Iface.StdioPerOpCPU = 5 * time.Microsecond }},
		{"hacc", "hacc", func(*workloads.Spec) {}},
		{"ior", "ior", func(s *workloads.Spec) { s.RanksPerNode, s.TimeLimit = 1, time.Hour }},
		{"montage-pegasus", "mDiff", func(s *workloads.Spec) {
			s.TimeLimit, s.Iface.StdioPerOpCPU = 12*time.Hour, 5*time.Microsecond
		}},
		{"jag", "jag", func(s *workloads.Spec) {
			s.RanksPerNode, s.TimeLimit, s.Iface.StdioPerOpCPU = 4, 6*time.Hour, 3*time.Millisecond
		}},
	} {
		doc, err := spec.Golden(c.name)
		if err != nil {
			t.Fatal(err)
		}
		w := doc.Compile()
		want := workloads.DefaultSpec()
		c.edit(&want)
		if w.Name() != c.name || doc.App != c.app {
			t.Errorf("%s: Name %q, App %q, want %q, %q", c.name, w.Name(), doc.App, c.name, c.app)
		}
		if got := w.DefaultSpec(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: DefaultSpec() = %+v, want %+v", c.name, got, want)
		}
	}
}

// TestKernelCountersOnResult: a Result carries the kernel's counts, they
// repeat exactly, and cm1 — ranks computing between their own writes, so
// most wake-ups belong to the rank already running — needs a goroutine
// switch for fewer than half its events.
func TestKernelCountersOnResult(t *testing.T) {
	w := spectest.Golden(t, "cm1", nil)
	a := mustRun(t, w, tinySpec(w, 0.01))
	b := mustRun(t, w, tinySpec(w, 0.01))
	if a.KernelEvents == 0 || a.KernelSwitches == 0 {
		t.Fatalf("kernel counters not filled: %d events, %d switches", a.KernelEvents, a.KernelSwitches)
	}
	if a.KernelEvents != b.KernelEvents || a.KernelSwitches != b.KernelSwitches || a.KernelInPlaceWakes != b.KernelInPlaceWakes {
		t.Errorf("kernel counters differ between identical runs: %d/%d/%d vs %d/%d/%d",
			a.KernelEvents, a.KernelSwitches, a.KernelInPlaceWakes, b.KernelEvents, b.KernelSwitches, b.KernelInPlaceWakes)
	}
	if ratio := float64(a.KernelSwitches) / float64(a.KernelEvents); ratio >= 0.5 {
		t.Errorf("cm1: %d switches for %d events (%.2f per event), want below 0.5",
			a.KernelSwitches, a.KernelEvents, ratio)
	}
}
