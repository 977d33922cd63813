package core

import (
	"testing"
	"time"

	"vani/internal/spec"
	"vani/internal/spec/spectest"
	"vani/internal/stats"
	"vani/internal/trace"
	"vani/internal/workloads"
)

// runAndAnalyze executes a workload at small scale and characterizes it.
func runAndAnalyze(t *testing.T, w workloads.Workload, mod func(*workloads.Spec)) *Characterization {
	t.Helper()
	spec := w.DefaultSpec()
	spec.Nodes = 4
	if spec.RanksPerNode > 8 {
		spec.RanksPerNode = 8
	}
	spec.Scale = 0.02
	if mod != nil {
		mod(&spec)
	}
	res, err := workloads.Run(w, spec)
	if err != nil {
		t.Fatalf("Run(%s): %v", w.Name(), err)
	}
	opt := DefaultOptions()
	opt.Storage = &spec.Storage
	return Analyze(res.Trace, opt)
}

func TestAnalyzeCM1(t *testing.T) {
	w := spectest.Golden(t, "cm1", nil)
	c := runAndAnalyze(t, w, func(s *workloads.Spec) { s.Scale = 0.05 })

	if c.Workload != "cm1" {
		t.Errorf("workload = %q", c.Workload)
	}
	// Table II.
	if c.JobConfig.Nodes != 4 || c.JobConfig.CPUCoresPerNode != 40 {
		t.Errorf("job config = %+v", c.JobConfig)
	}
	if c.JobConfig.SharedBBDir != "" || c.JobConfig.PFSDir != "/p/gpfs1" {
		t.Errorf("mounts = %+v", c.JobConfig)
	}
	// Table IV: single app, POSIX.
	if len(c.Apps) != 1 || c.Apps[0].Name != "cm1" {
		t.Fatalf("apps = %+v", c.Apps)
	}
	if c.Apps[0].Interface != "POSIX" {
		t.Errorf("interface = %q, want POSIX", c.Apps[0].Interface)
	}
	// Table VI: 3D normal data, sequential, 4KB writes / 16MB reads.
	if c.HighLevel.DataRepr != "3D" {
		t.Errorf("data repr = %q", c.HighLevel.DataRepr)
	}
	if c.HighLevel.DataDist != stats.DistNormal {
		t.Errorf("data dist = %v, want normal", c.HighLevel.DataDist)
	}
	if c.HighLevel.AccessPattern != "Seq" {
		t.Errorf("pattern = %q", c.HighLevel.AccessPattern)
	}
	if c.HighLevel.Granularity.Write != 4096 {
		t.Errorf("write granularity = %d, want 4096", c.HighLevel.Granularity.Write)
	}
	if c.HighLevel.Granularity.Read != 16<<20 {
		t.Errorf("read granularity = %d, want 16MB", c.HighLevel.Granularity.Read)
	}
	// Workflow: more read than write volume.
	if c.Workflow.ReadBytes <= c.Workflow.WriteBytes {
		t.Errorf("reads (%d) not > writes (%d)", c.Workflow.ReadBytes, c.Workflow.WriteBytes)
	}
	// Phases: initial read burst plus per-step write bursts.
	if len(c.Phases) < 2 {
		t.Fatalf("phases = %d, want >= 2", len(c.Phases))
	}
	if c.Phases[0].IOBytes == 0 {
		t.Error("first phase has no I/O")
	}
	// I/O time must be well under runtime (compute-dominated workload).
	if c.Workflow.IOTime >= c.Workflow.Runtime {
		t.Errorf("IO time %v >= runtime %v", c.Workflow.IOTime, c.Workflow.Runtime)
	}
}

func TestAnalyzeHACC(t *testing.T) {
	w := spectest.Golden(t, "hacc", nil)
	c := runAndAnalyze(t, w, nil)

	if c.Apps[0].Interface != "POSIX" {
		t.Errorf("interface = %q", c.Apps[0].Interface)
	}
	// Pure FPP.
	if c.Workflow.SharedFiles != 0 {
		t.Errorf("shared files = %d, want 0", c.Workflow.SharedFiles)
	}
	if c.Workflow.FPPFiles != 32 { // 4 nodes x 8 ranks
		t.Errorf("FPP files = %d, want 32", c.Workflow.FPPFiles)
	}
	if c.Apps[0].ProcDep != DepFilePerProcess {
		t.Errorf("proc dep = %v", c.Apps[0].ProcDep)
	}
	// Checkpoint + restart balance.
	if c.Workflow.ReadBytes != c.Workflow.WriteBytes {
		t.Errorf("read %d != write %d", c.Workflow.ReadBytes, c.Workflow.WriteBytes)
	}
	// 1D uniform data.
	if c.HighLevel.DataRepr != "1D" || c.HighLevel.DataDist != stats.DistUniform {
		t.Errorf("high level = %+v", c.HighLevel)
	}
	// 16MB granularity both ways.
	if c.HighLevel.Granularity.Read != 16<<20 || c.HighLevel.Granularity.Write != 16<<20 {
		t.Errorf("granularity = %+v", c.HighLevel.Granularity)
	}
	// I/O-dominated: meta ops are a large share (paper: ~50%).
	if c.Workflow.MetaOpsPct < 0.3 {
		t.Errorf("meta ops pct = %v, want >= 0.3", c.Workflow.MetaOpsPct)
	}
}

func TestAnalyzeCosmoFlow(t *testing.T) {
	w := spectest.Golden(t, "cosmoflow", map[string]time.Duration{"gpu_per_file": 50 * time.Millisecond})
	c := runAndAnalyze(t, w, func(s *workloads.Spec) { s.Scale = 0.002 })

	if c.Apps[0].Interface != "HDF5 (MPI-IO)" {
		t.Errorf("interface = %q", c.Apps[0].Interface)
	}
	// Metadata dominance (paper: 98% of ops at the primary level are meta).
	if c.Workflow.MetaOpsPct < 0.5 {
		t.Errorf("meta pct = %v, want majority", c.Workflow.MetaOpsPct)
	}
	// All dataset files shared... each file is read by exactly one rank in
	// our model, so they are FPP; the checkpoint is rank-0 only. What must
	// hold: gamma distribution, hdf5 format, 3D, GPUs in use.
	if c.HighLevel.DataDist != stats.DistGamma {
		t.Errorf("data dist = %v, want gamma", c.HighLevel.DataDist)
	}
	if c.Dataset.Format != "hdf5" {
		t.Errorf("dataset format = %q", c.Dataset.Format)
	}
	if c.Workflow.GPUsUsedPerNode == 0 {
		t.Error("GPU use not detected")
	}
	if c.HighLevel.DataRepr != "3D" {
		t.Errorf("repr = %q", c.HighLevel.DataRepr)
	}
	// Middleware entity: extra I/O cores (40 cores, 4 GPU ranks -> 36,
	// matching Table VII's CosmoFlow row).
	if c.Middleware.ExtraIOCoresPerNode != 36 {
		t.Errorf("extra cores = %d, want 36", c.Middleware.ExtraIOCoresPerNode)
	}
}

func TestAnalyzeJAG(t *testing.T) {
	// Epochs long enough to split I/O phases.
	w := spectest.GoldenSet(t, "jag", map[string]int64{"epochs": 3, "gpu_per_epoch": int64(3 * time.Second)})
	c := runAndAnalyze(t, w, nil)

	if c.Apps[0].Interface != "STDIO" {
		t.Errorf("interface = %q", c.Apps[0].Interface)
	}
	// Single shared dataset file: shared count >= 1.
	if c.Workflow.SharedFiles < 1 {
		t.Errorf("shared files = %d", c.Workflow.SharedFiles)
	}
	// Small-access granularity (4KB samples).
	if c.HighLevel.Granularity.Read != 4096 {
		t.Errorf("read granularity = %d, want 4096", c.HighLevel.Granularity.Read)
	}
	// Middleware buffering: POSIX-visible reads are buffer-sized (64KB).
	if c.Middleware.Granularity.Read != 64<<10 {
		t.Errorf("posix-level read granularity = %d, want 64KB", c.Middleware.Granularity.Read)
	}
	// Two separated I/O phases (start reads, end validation).
	if len(c.Phases) < 2 {
		t.Errorf("phases = %d, want >= 2 (train + validation)", len(c.Phases))
	}
}

func TestAnalyzeMontageMPI(t *testing.T) {
	w := spectest.Golden(t, "montage-mpi", nil)
	c := runAndAnalyze(t, w, func(s *workloads.Spec) { s.Scale = 0.1 })

	if len(c.Apps) != 5 {
		t.Fatalf("apps = %d, want 5 (%+v)", len(c.Apps), c.Apps)
	}
	// STDIO-dominated workflow with app data dependencies.
	if len(c.Workflow.AppDeps) == 0 {
		t.Fatal("no app dependencies detected")
	}
	foundChain := false
	for _, d := range c.Workflow.AppDeps {
		if d.Producer == "mProject" && d.Consumer == "mAddMPI" {
			foundChain = true
		}
	}
	if !foundChain {
		t.Errorf("mProject->mAddMPI dependency missing: %+v", c.Workflow.AppDeps)
	}
	// Small dominant write size at the app level.
	if c.HighLevel.Granularity.Write > 64<<10 {
		t.Errorf("write granularity = %d, want small", c.HighLevel.Granularity.Write)
	}
	// Data ops dominate (paper: 99% data).
	if c.Workflow.DataOpsPct < 0.5 {
		t.Errorf("data pct = %v, want majority", c.Workflow.DataOpsPct)
	}
}

func TestAnalyzeMontagePegasus(t *testing.T) {
	w := spectest.Golden(t, "montage-pegasus", nil)
	c := runAndAnalyze(t, w, nil)

	if len(c.Apps) != 9 {
		t.Fatalf("apps = %d, want 9", len(c.Apps))
	}
	// Pipeline dependencies through the whole DAG.
	need := map[[2]string]bool{
		{"mProject", "mDiff"}:       false,
		{"mDiff", "mFitplane"}:      false,
		{"mFitplane", "mConcatFit"}: false,
		{"mBgModel", "mBackground"}: false,
		{"mBackground", "mAdd"}:     false,
		{"mAdd", "mViewer"}:         false,
	}
	for _, d := range c.Workflow.AppDeps {
		k := [2]string{d.Producer, d.Consumer}
		if _, ok := need[k]; ok {
			need[k] = true
		}
	}
	for k, ok := range need {
		if !ok {
			t.Errorf("dependency %v -> %v missing", k[0], k[1])
		}
	}
}

func TestStorageEntitiesFromConfig(t *testing.T) {
	w := spectest.Golden(t, "hacc", nil)
	c := runAndAnalyze(t, w, nil)
	if c.NodeLocal.ParallelOps != 64 {
		t.Errorf("node-local parallel ops = %d, want 64 (Table VIII)", c.NodeLocal.ParallelOps)
	}
	if c.NodeLocal.MaxBWPerNode != 32<<30 {
		t.Errorf("node-local bw = %d, want 32GiB/s", c.NodeLocal.MaxBWPerNode)
	}
	if c.Shared.MaxBW != 512<<30 {
		t.Errorf("shared bw = %d, want 512GiB/s server aggregate", c.Shared.MaxBW)
	}
	if c.Shared.Dir != "/p/gpfs1" || c.NodeLocal.Dir != "/dev/shm" {
		t.Errorf("dirs = %+v %+v", c.NodeLocal, c.Shared)
	}
}

func TestFigureDataConsistency(t *testing.T) {
	w := spectest.Golden(t, "hacc", nil)
	c := runAndAnalyze(t, w, nil)
	fig := c.Figure
	// Histogram bytes equal workflow read/write bytes.
	if fig.ReadHist.TotalBytes() != c.Workflow.ReadBytes {
		t.Errorf("read hist %d != workflow %d", fig.ReadHist.TotalBytes(), c.Workflow.ReadBytes)
	}
	if fig.WriteHist.TotalBytes() != c.Workflow.WriteBytes {
		t.Errorf("write hist %d != workflow %d", fig.WriteHist.TotalBytes(), c.Workflow.WriteBytes)
	}
	// Timelines conserve bytes too.
	if fig.ReadTL.TotalBytes() != c.Workflow.ReadBytes {
		t.Errorf("read timeline %d != %d", fig.ReadTL.TotalBytes(), c.Workflow.ReadBytes)
	}
	if len(fig.TopFlows) == 0 {
		t.Fatal("no dependency flows")
	}
	for _, fl := range fig.TopFlows {
		if fl.WriterRanks != 1 || fl.ReaderRanks != 1 {
			t.Errorf("HACC flow %s writers=%d readers=%d, want 1/1", fl.Path, fl.WriterRanks, fl.ReaderRanks)
		}
	}
}

func TestPhaseGapControlsSplitting(t *testing.T) {
	w := spectest.Golden(t, "cm1", nil)
	spec := w.DefaultSpec()
	spec.Nodes = 2
	spec.RanksPerNode = 4
	spec.Scale = 0.03
	res, err := workloads.Run(w, spec)
	if err != nil {
		t.Fatal(err)
	}
	fine := Analyze(res.Trace, Options{PhaseGap: 100 * time.Millisecond})
	coarse := Analyze(res.Trace, Options{PhaseGap: time.Hour})
	if len(coarse.Phases) != 1 {
		t.Errorf("huge gap produced %d phases, want 1", len(coarse.Phases))
	}
	if len(fine.Phases) <= len(coarse.Phases) {
		t.Errorf("fine gap (%d phases) not more than coarse (%d)", len(fine.Phases), len(coarse.Phases))
	}
	// Phase bytes must sum to total I/O regardless of the gap.
	var sum int64
	for _, ph := range fine.Phases {
		sum += ph.IOBytes
	}
	if sum != fine.Workflow.IOBytes {
		t.Errorf("phase bytes %d != workflow bytes %d", sum, fine.Workflow.IOBytes)
	}
}

func TestAnalyzeEmptyTrace(t *testing.T) {
	tr := trace.NewTracer().Finish()
	c := Analyze(tr, DefaultOptions())
	if len(c.Apps) != 0 || len(c.Phases) != 0 {
		t.Errorf("empty trace produced entities: %+v", c)
	}
	if c.Workflow.IOBytes != 0 {
		t.Error("phantom I/O")
	}
}

func TestPctPairRounding(t *testing.T) {
	d, m := PctPair(0.304, 0.696)
	if d != 30 || m != 70 {
		t.Errorf("PctPair = %d/%d, want 30/70", d, m)
	}
}

func TestSizeString(t *testing.T) {
	cases := map[int64]string{
		0:          "0",
		512:        "512B",
		4096:       "4KB",
		64 << 10:   "64KB",
		1 << 20:    "1MB",
		16 << 20:   "16MB",
		1 << 30:    "1GB",
		3 << 39:    "1.5TB",
		1536 << 10: "1.5MB",
	}
	for b, want := range cases {
		if got := SizeString(b); got != want {
			t.Errorf("SizeString(%d) = %q, want %q", b, got, want)
		}
	}
}

func TestRankBandwidthPanel(t *testing.T) {
	// Figure 2c: HACC ranks achieve different bandwidths under contention.
	w := spectest.Golden(t, "hacc", nil)
	c := runAndAnalyze(t, w, func(s *workloads.Spec) {
		s.Storage.CacheEnabled = false
	})
	rbw := c.Figure.RankBW
	if len(rbw) != 32 { // 4 nodes x 8 ranks
		t.Fatalf("rank bandwidth entries = %d, want 32", len(rbw))
	}
	var minW, maxW float64
	for i, r := range rbw {
		if r.WriteBW <= 0 || r.ReadBW <= 0 {
			t.Fatalf("rank %d has zero bandwidth: %+v", r.Rank, r)
		}
		if i == 0 || r.WriteBW < minW {
			minW = r.WriteBW
		}
		if r.WriteBW > maxW {
			maxW = r.WriteBW
		}
	}
	if maxW <= minW {
		t.Error("all ranks achieved identical write bandwidth; Figure 2c variance missing")
	}
	// Ranks are reported in order.
	for i := 1; i < len(rbw); i++ {
		if rbw[i].Rank <= rbw[i-1].Rank {
			t.Fatal("rank bandwidth not ordered by rank")
		}
	}
}

// TestCompareBaselineVsOptimized characterizes Montage-MPI before and
// after the Figure 8 reconfiguration: the analyzer must see the
// optimized run's I/O finish sooner.
func TestCompareBaselineVsOptimized(t *testing.T) {
	w := spectest.Golden(t, "montage-mpi", map[string]time.Duration{
		"project_compute": 0, "add_compute": 0, "shrink_compute": 0, "viewer_compute": 0,
	})
	spec := w.DefaultSpec()
	spec.Nodes = 4
	spec.RanksPerNode = 8
	spec.Scale = 0.1
	base, err := workloads.Run(w, spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Optimized = true
	opt, err := workloads.Run(w, spec)
	if err != nil {
		t.Fatal(err)
	}
	cb := Analyze(base.Trace, DefaultOptions())
	co := Analyze(opt.Trace, DefaultOptions())
	if co.Workflow.IOTime <= 0 || co.Workflow.IOTime >= cb.Workflow.IOTime {
		t.Errorf("io_time %v -> %v, want faster", cb.Workflow.IOTime, co.Workflow.IOTime)
	}
}

func TestWorkflowFileInvariant(t *testing.T) {
	// FPP + shared must equal the number of files with I/O, for every
	// workload.
	for _, w := range spec.All() {
		w := w
		c := runAndAnalyze(t, w, func(s *workloads.Spec) {
			s.Scale = 0.01
			if w.Name() == "cm1" || w.Name() == "montage-mpi" {
				s.Scale = 0.05
			}
		})
		total := c.Workflow.FPPFiles + c.Workflow.SharedFiles
		if total != c.Dataset.NumFiles {
			t.Errorf("%s: FPP(%d)+shared(%d) != dataset files (%d)",
				w.Name(), c.Workflow.FPPFiles, c.Workflow.SharedFiles, c.Dataset.NumFiles)
		}
	}
}
