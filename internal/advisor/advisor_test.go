package advisor

import (
	"testing"
	"time"

	"vani/internal/cluster"
	"vani/internal/core"
	"vani/internal/spec/spectest"
	"vani/internal/stats"
	"vani/internal/storage"
	"vani/internal/workloads"
)

func characterize(t *testing.T, w workloads.Workload, mod func(*workloads.Spec)) (*core.Characterization, workloads.Spec) {
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
		t.Fatalf("Run: %v", err)
	}
	opt := core.DefaultOptions()
	opt.Storage = &spec.Storage
	return core.Analyze(res.Trace, opt), spec
}

func byID(recs []Recommendation) map[string]Recommendation {
	m := make(map[string]Recommendation, len(recs))
	for _, r := range recs {
		m[r.ID] = r
	}
	return m
}

func TestCosmoFlowGetsPreloadAndChunking(t *testing.T) {
	w := spectest.Golden(t, "cosmoflow", map[string]time.Duration{"gpu_per_file": 50 * time.Millisecond})
	c, _ := characterize(t, w, func(s *workloads.Spec) { s.Scale = 0.002 })
	recs := byID(Advise(c))
	if _, ok := recs["preload-node-local"]; !ok {
		t.Errorf("preload-node-local missing; got %v", keys(recs))
	}
	if _, ok := recs["hdf5-chunking"]; !ok {
		t.Errorf("hdf5-chunking missing; got %v", keys(recs))
	}
	pre := recs["preload-node-local"]
	if pre.Value != "preload:/dev/shm" {
		t.Errorf("preload value = %q", pre.Value)
	}
	if len(pre.Attributes) == 0 || pre.Rationale == "" {
		t.Error("recommendation lacks traceability")
	}
}

func TestMontageGetsIntermediatesAndPlacement(t *testing.T) {
	w := spectest.Golden(t, "montage-mpi", nil)
	c, _ := characterize(t, w, func(s *workloads.Spec) { s.Scale = 0.1 })
	recs := byID(Advise(c))
	if _, ok := recs["intermediates-node-local"]; !ok {
		t.Errorf("intermediates-node-local missing; got %v", keys(recs))
	}
	if _, ok := recs["placement-colocate"]; !ok {
		t.Errorf("placement-colocate missing; got %v", keys(recs))
	}
	if _, ok := recs["bb-disable-persistence"]; !ok {
		t.Errorf("bb-disable-persistence missing; got %v", keys(recs))
	}
}

func TestHACCGetsStripeAndLocking(t *testing.T) {
	w := workloads.NewHACC()
	c, _ := characterize(t, w, nil)
	recs := byID(Advise(c))
	if r, ok := recs["pfs-stripe-size"]; !ok || r.Value != "16MB" {
		t.Errorf("pfs-stripe-size = %+v, want 16MB", r)
	}
	if _, ok := recs["romio-disable-locking"]; !ok {
		t.Errorf("romio-disable-locking missing (pure FPP workload); got %v", keys(recs))
	}
	// No preload: HACC is not metadata-dominated shared-read.
	if _, ok := recs["preload-node-local"]; ok {
		t.Error("preload recommended for checkpoint workload")
	}
}

func TestCM1GetsAsyncIO(t *testing.T) {
	w := spectest.Golden(t, "cm1", nil)
	c, _ := characterize(t, w, func(s *workloads.Spec) { s.Scale = 0.05 })
	recs := byID(Advise(c))
	if _, ok := recs["async-io"]; !ok {
		t.Errorf("async-io missing for phase-alternating workload; got %v", keys(recs))
	}
	// Shared step files exist, so locking must stay on.
	if _, ok := recs["romio-disable-locking"]; ok {
		t.Error("locking disabled despite shared files")
	}
}

func TestJAGGetsBufferSizing(t *testing.T) {
	w := workloads.NewJAG()
	w.Epochs = 3
	w.ComputePerEpoch = 3 * time.Second
	c, _ := characterize(t, w, nil)
	recs := byID(Advise(c))
	if r, ok := recs["middleware-buffer-size"]; !ok {
		t.Errorf("middleware-buffer-size missing; got %v", keys(recs))
	} else if r.Value != "64KB" {
		t.Errorf("buffer size = %q, want 64KB (16x4KB clamped)", r.Value)
	}
}

func TestApplyTranslatesRecommendations(t *testing.T) {
	w := spectest.Golden(t, "cosmoflow", map[string]time.Duration{"gpu_per_file": 50 * time.Millisecond})
	c, spec := characterize(t, w, func(s *workloads.Spec) { s.Scale = 0.002 })
	recs := Advise(c)
	applied := Apply(recs, &spec)
	if !spec.Optimized {
		t.Error("Apply did not set Optimized for preload recommendation")
	}
	if !spec.Iface.HDF5Chunked {
		t.Error("Apply did not enable HDF5 chunking")
	}
	if len(applied) < 2 {
		t.Errorf("applied = %v", applied)
	}
}

func TestApplyStripeSize(t *testing.T) {
	w := workloads.NewHACC()
	c, spec := characterize(t, w, nil)
	Apply(Advise(c), &spec)
	if spec.Storage.PFSStripeSize != 16<<20 {
		t.Errorf("stripe size = %d, want 16MB", spec.Storage.PFSStripeSize)
	}
}

func TestAppliedSpecRunsFaster(t *testing.T) {
	// End-to-end: characterize -> advise -> apply -> re-run. The advised
	// CosmoFlow run (preload + chunking) must beat the baseline.
	w := spectest.Golden(t, "cosmoflow", map[string]time.Duration{"gpu_per_file": 0})
	base := w.DefaultSpec()
	base.Nodes = 4
	base.Scale = 0.002
	rb, err := workloads.Run(w, base)
	if err != nil {
		t.Fatal(err)
	}
	opt := core.DefaultOptions()
	opt.Storage = &base.Storage
	c := core.Analyze(rb.Trace, opt)
	tuned := base
	Apply(Advise(c), &tuned)
	ro, err := workloads.Run(w, tuned)
	if err != nil {
		t.Fatal(err)
	}
	if ro.Runtime >= rb.Runtime {
		t.Errorf("advised run (%v) not faster than baseline (%v)", ro.Runtime, rb.Runtime)
	}
}

func TestParseSizeRoundTrip(t *testing.T) {
	for _, b := range []int64{1, 512, 4096, 64 << 10, 1 << 20, 3 << 19, 16 << 20, 1 << 30} {
		v, ok := parseSize(core.SizeString(b))
		if !ok || v != b {
			t.Errorf("parseSize(SizeString(%d)) = %d,%v", b, v, ok)
		}
	}
	if _, ok := parseSize("garbage"); ok {
		t.Error("garbage parsed")
	}
	if _, ok := parseSize("5XB"); ok {
		t.Error("bad unit parsed")
	}
}

func TestAdviseEmptyCharacterization(t *testing.T) {
	recs := Advise(&core.Characterization{})
	for _, r := range recs {
		t.Errorf("rule %s fired on empty characterization", r.ID)
	}
}

func keys(m map[string]Recommendation) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	return ks
}

func TestHACCOnCoriGetsSharedBBStaging(t *testing.T) {
	w := workloads.NewHACC()
	c, spec := characterize(t, w, func(s *workloads.Spec) {
		s.Machine = cluster.Cori()
		s.Storage = storage.Cori()
		s.RanksPerNode = 8
	})
	recs := byID(Advise(c))
	r, ok := recs["checkpoint-shared-bb"]
	if !ok {
		t.Fatalf("checkpoint-shared-bb missing on Cori; got %v", keys(recs))
	}
	if r.Value != "/var/opt/cray/dws" {
		t.Errorf("BB dir = %q", r.Value)
	}
	// Applying it flips the workload to the optimized path, and the
	// re-run is faster (SSD tier beats Lustre for the checkpoint).
	tuned := spec
	if applied := Apply(Advise(c), &tuned); !tuned.Optimized {
		t.Fatalf("Apply did not enable BB staging (applied %v)", applied)
	}
	base, err := workloads.Run(w, spec)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := workloads.Run(w, tuned)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Runtime >= base.Runtime {
		t.Errorf("BB-staged run (%v) not faster than Lustre baseline (%v)", opt.Runtime, base.Runtime)
	}
	if opt.Sys.Stats[storage.TargetSharedBB].BytesWritten == 0 {
		t.Error("optimized run wrote nothing to the shared BB")
	}
}

func TestNoSharedBBRuleOnLassen(t *testing.T) {
	w := workloads.NewHACC()
	c, _ := characterize(t, w, nil)
	if _, ok := byID(Advise(c))["checkpoint-shared-bb"]; ok {
		t.Error("shared-BB staging recommended on a machine without one")
	}
}

func TestEvaluatePerRecommendationImpact(t *testing.T) {
	w := spectest.Golden(t, "cosmoflow", map[string]time.Duration{"gpu_per_file": 0})
	spec := w.DefaultSpec()
	spec.Nodes = 4
	spec.Scale = 0.002
	// At this tiny test scale the client-NIC data floor dominates both
	// runs equally; uncap it so the metadata difference each
	// recommendation targets is measurable.
	spec.Storage.NodeNICBW = 0
	res, err := workloads.Run(w, spec)
	if err != nil {
		t.Fatal(err)
	}
	opt := core.DefaultOptions()
	opt.Storage = &spec.Storage
	recs := Advise(core.Analyze(res.Trace, opt))
	impacts, err := Evaluate(w, spec, recs)
	if err != nil {
		t.Fatal(err)
	}
	if len(impacts) != len(recs) {
		t.Fatalf("impacts = %d, want %d", len(impacts), len(recs))
	}
	var preload *Impact
	for i := range impacts {
		im := &impacts[i]
		if im.BaselineRuntime == 0 {
			t.Errorf("%s: no baseline", im.Recommendation.ID)
		}
		if im.Recommendation.ID == "preload-node-local" {
			preload = im
		}
		// Advisory-only recommendations must be flagged, not faked.
		if im.Recommendation.ID == "placement-colocate" && im.Applied {
			t.Error("placement hint claimed to be applied")
		}
	}
	if preload == nil {
		t.Fatal("preload recommendation missing")
	}
	if !preload.Applied || preload.Speedup() <= 1 {
		t.Errorf("preload impact = %+v, want applied speedup > 1", preload)
	}
}

func TestImpactSpeedupZeroWhenNotApplied(t *testing.T) {
	im := Impact{Applied: false, BaselineRuntime: time.Second, TunedRuntime: time.Second}
	if im.Speedup() != 0 {
		t.Error("unapplied impact should report 0 speedup")
	}
}

func TestAsyncIOAppliesRelaxedConsistency(t *testing.T) {
	// CM1 writes through rank 0 only; no node ever reads another node's
	// writes, so the async-io recommendation is safe — and applying it
	// (UnifyFS-style buffering) must shrink the job's I/O cost.
	w := spectest.Golden(t, "cm1", nil)
	c, spec := characterize(t, w, func(s *workloads.Spec) { s.Scale = 0.05 })
	if c.Workflow.CrossNodeRAW {
		t.Fatal("CM1 flagged with cross-node RAW dependency")
	}
	recs := Advise(c)
	tuned := spec
	applied := Apply(recs, &tuned)
	found := false
	for _, id := range applied {
		if id == "async-io" {
			found = true
		}
	}
	if !found {
		t.Fatalf("async-io not applied (applied %v)", applied)
	}
	if !tuned.Storage.RelaxedConsistency {
		t.Fatal("relaxed consistency not enabled")
	}
	base, err := workloads.Run(w, spec)
	if err != nil {
		t.Fatal(err)
	}
	async, err := workloads.Run(w, tuned)
	if err != nil {
		t.Fatal(err)
	}
	if async.Runtime >= base.Runtime {
		t.Errorf("async run (%v) not faster than baseline (%v)", async.Runtime, base.Runtime)
	}
}

func TestCrossNodeRAWBlocksAsyncIO(t *testing.T) {
	// Montage-Pegasus pipes data between tasks on different nodes through
	// PFS files: asynchronous lamination would break its dataflow, so the
	// attribute must be set and the rule must not fire.
	w := workloads.NewMontagePegasus()
	c, _ := characterize(t, w, nil)
	if !c.Workflow.CrossNodeRAW {
		t.Fatal("Pegasus workflow not flagged with cross-node RAW dependency")
	}
	if _, ok := byID(Advise(c))["async-io"]; ok {
		t.Error("async-io recommended despite cross-node dataflow")
	}
}

func TestCompressionRuleRespectsDistribution(t *testing.T) {
	// Compressible (normal) large-write workload: rule fires.
	fire := &core.Characterization{}
	fire.HighLevel.DataDist = stats.DistNormal
	fire.HighLevel.Granularity.Write = 1 << 20
	fire.Workflow.WriteBytes = 10 << 30
	fire.Workflow.ReadBytes = 1 << 30
	if _, ok := byID(Advise(fire))["write-compression"]; !ok {
		t.Error("compression not recommended for compressible large writes")
	}
	// Uniform (high-entropy) data: the paper's 12%-growth caution.
	uniform := *fire
	uniform.HighLevel.DataDist = stats.DistUniform
	if _, ok := byID(Advise(&uniform))["write-compression"]; ok {
		t.Error("compression recommended for uniform data")
	}
	// Small transfers: CPU stage dominates.
	small := *fire
	small.HighLevel.Granularity.Write = 4 << 10
	if _, ok := byID(Advise(&small))["write-compression"]; ok {
		t.Error("compression recommended for 4KB transfers")
	}
	// Read-dominated workload: write-path compression pointless.
	reads := *fire
	reads.Workflow.ReadBytes = 100 << 30
	if _, ok := byID(Advise(&reads))["write-compression"]; ok {
		t.Error("compression recommended for read-dominated workload")
	}
}
