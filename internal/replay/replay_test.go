package replay

import (
	"testing"
	"time"

	"vani/internal/spec/spectest"
	"vani/internal/storage"
	"vani/internal/trace"
	"vani/internal/workloads"
)

func captureTrace(t *testing.T, name string, scale float64) *trace.Trace {
	t.Helper()
	var w workloads.Workload
	switch name {
	case "hacc":
		h := workloads.NewHACC()
		h.ComputeInit = 0
		w = h
	case "cm1":
		w = spectest.Golden(t, "cm1", map[string]time.Duration{"compute_per_step": 20 * time.Millisecond})
	default:
		t.Fatalf("captureTrace: no recipe for %q", name)
	}
	spec := w.DefaultSpec()
	spec.Nodes = 4
	if spec.RanksPerNode > 8 {
		spec.RanksPerNode = 8
	}
	spec.Scale = scale
	res, err := workloads.Run(w, spec)
	if err != nil {
		t.Fatal(err)
	}
	return res.Trace
}

func lassenNoJitter() storage.Config {
	cfg := storage.Lassen()
	cfg.JitterFrac = 0
	return cfg
}

func TestReplayCompletesAndMovesBytes(t *testing.T) {
	tr := captureTrace(t, "hacc", 0.02)
	opt := DefaultOptions()
	opt.Storage = lassenNoJitter()
	res, err := Run(tr, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops == 0 || res.Bytes == 0 {
		t.Fatalf("replay moved nothing: %+v", res)
	}
	if res.Runtime <= 0 || res.IOTime <= 0 {
		t.Fatalf("replay timing empty: %+v", res)
	}
	// Bytes replayed match the original posix traffic (read+write).
	var want int64
	for _, ev := range tr.Events {
		if ev.Level == trace.LevelPosix && ev.Op.IsData() {
			want += ev.Size
		}
	}
	if res.Bytes != want {
		t.Errorf("replayed %d bytes, trace had %d", res.Bytes, want)
	}
}

func TestReplayIsDeterministic(t *testing.T) {
	tr := captureTrace(t, "hacc", 0.01)
	opt := DefaultOptions()
	a, err := Run(tr, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(tr, opt)
	if err != nil {
		t.Fatal(err)
	}
	if a.Runtime != b.Runtime || a.Ops != b.Ops {
		t.Errorf("replays diverged: %v/%d vs %v/%d", a.Runtime, a.Ops, b.Runtime, b.Ops)
	}
}

func TestReplayThinkTimeToggle(t *testing.T) {
	tr := captureTrace(t, "cm1", 0.03)
	with := DefaultOptions()
	with.Storage = lassenNoJitter()
	without := with
	without.PreserveThinkTime = false
	a, err := Run(tr, with)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(tr, without)
	if err != nil {
		t.Fatal(err)
	}
	// Dropping CM1's compute gaps must shrink the replay dramatically.
	if b.Runtime*2 >= a.Runtime {
		t.Errorf("back-to-back replay (%v) not much faster than paced (%v)", b.Runtime, a.Runtime)
	}
}

func TestReplayDetectsBetterConfig(t *testing.T) {
	// A slower candidate PFS must replay slower; a faster one faster. The
	// replayer is only useful if it ranks configurations correctly.
	tr := captureTrace(t, "hacc", 0.02)
	opt := DefaultOptions()
	opt.PreserveThinkTime = false

	slow := lassenNoJitter()
	slow.PFSDataLatency = 10 * time.Millisecond
	fast := lassenNoJitter()
	fast.NodeNICBW = 0

	a, err := Run(tr, withStorage(opt, slow))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(tr, withStorage(opt, lassenNoJitter()))
	if err != nil {
		t.Fatal(err)
	}
	c, err := Run(tr, withStorage(opt, fast))
	if err != nil {
		t.Fatal(err)
	}
	if !(a.Runtime > b.Runtime && b.Runtime > c.Runtime) {
		t.Errorf("replay ordering wrong: slow=%v base=%v fast=%v", a.Runtime, b.Runtime, c.Runtime)
	}
}

func TestReplayRejectsEmptyMeta(t *testing.T) {
	if _, err := Run(&trace.Trace{}, DefaultOptions()); err == nil {
		t.Error("empty trace accepted")
	}
}

func TestTuneRanksCandidates(t *testing.T) {
	tr := captureTrace(t, "hacc", 0.02)
	base := lassenNoJitter()
	base.CacheEnabled = false // expose the PFS path the candidates vary
	base.NodeNICBW = 0        // otherwise the client NIC floor hides it
	opt := DefaultOptions()
	opt.PreserveThinkTime = false

	slow := base
	slow.PFSDataLatency = 5 * time.Millisecond
	cands := []Candidate{
		{Name: "slow", Config: slow},
		{Name: "base", Config: base},
	}
	results, err := Tune(tr, cands, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	if results[0].Candidate.Name != "base" {
		t.Errorf("fastest candidate = %s, want base", results[0].Candidate.Name)
	}
	if results[0].Runtime > results[1].Runtime {
		t.Error("results not sorted fastest first")
	}
}

func TestTuneStripeSweepFindsMatchingStripe(t *testing.T) {
	// HACC writes 16MB transfers. On a server-constrained PFS (16
	// servers, no client cache), a 64KB stripe turns every transfer into
	// 256 queued RPCs per server while a 16MB stripe issues one — the
	// Lustre "match the stripe to the transfer" guidance of Section
	// IV-D3. The sweep must not pick the smallest stripe.
	tr := captureTrace(t, "hacc", 0.02)
	base := lassenNoJitter()
	base.CacheEnabled = false
	base.NodeNICBW = 0
	base.PFSServers = 16
	cands := StripeSweep(base, 64<<10, 1<<20, 16<<20)
	if len(cands) != 3 {
		t.Fatalf("candidates = %d", len(cands))
	}
	opt := DefaultOptions()
	opt.PreserveThinkTime = false
	results, err := Tune(tr, cands, opt)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Candidate.Name == "stripe=64KB" {
		t.Errorf("sweep picked the smallest stripe for 16MB transfers: %+v", results)
	}
}

func TestCacheSweepShape(t *testing.T) {
	cands := CacheSweep(lassenNoJitter())
	if len(cands) != 3 {
		t.Fatalf("cache sweep candidates = %d", len(cands))
	}
	if cands[1].Config.CacheEnabled {
		t.Error("cache=off candidate has cache on")
	}
	if cands[2].Config.ReadAhead != 0 {
		t.Error("readahead=off candidate has read-ahead")
	}
}

func TestTuneEmptyCandidates(t *testing.T) {
	tr := captureTrace(t, "hacc", 0.01)
	if _, err := Tune(tr, nil, DefaultOptions()); err == nil {
		t.Error("empty candidate list accepted")
	}
}

func withStorage(opt Options, cfg storage.Config) Options {
	opt.Storage = cfg
	return opt
}
