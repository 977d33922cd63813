package replay

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"vani/internal/spec"
	"vani/internal/spec/spectest"
	"vani/internal/storage"
	"vani/internal/trace"
)

func captureTrace(t *testing.T, name string, scale float64) *trace.Trace {
	t.Helper()
	var w spec.Workload
	switch name {
	case "hacc":
		w = spectest.Golden(t, "hacc", map[string]time.Duration{"compute_init": 0})
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
	res, err := w.Run(spec)
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

// TestReplayHostileNodeCount: a log whose header claims 2^40 nodes reads
// back, and replaying it numbers only the nodes its ranks run on, so Run and
// Tune end in a result or an error, never in an allocation per claimed node.
func TestReplayHostileNodeCount(t *testing.T) {
	tr := captureTrace(t, "hacc", 0.02)
	hostile := *tr
	hostile.Meta.Nodes = 1 << 40
	var buf bytes.Buffer
	if err := trace.WriteV2(&buf, &hostile); err != nil {
		t.Fatal(err)
	}
	back, err := trace.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Meta.Nodes != 1<<40 {
		t.Fatalf("header reads back %d nodes", back.Meta.Nodes)
	}
	pl, err := NewPlan(back)
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.nodeFiles) > len(pl.scripts) {
		t.Errorf("plan numbers %d nodes for %d ranks", len(pl.nodeFiles), len(pl.scripts))
	}
	if res, err := Run(back, DefaultOptions()); err == nil && res.Ops == 0 {
		t.Error("replay of the hostile header moved nothing")
	}
	if _, err := Tune(back, CacheSweep(storage.Lassen()), DefaultOptions()); err != nil {
		t.Logf("Tune: %v", err)
	}
}

// TestTrialCanceled: a trial under a canceled context stops with an error
// that wraps context.Canceled.
func TestTrialCanceled(t *testing.T) {
	pl, err := NewPlan(captureTrace(t, "hacc", 0.02))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cand := Candidate{Name: "lassen", Config: storage.Lassen()}
	if _, err := pl.Trial(ctx, cand, DefaultOptions()); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled trial: error %v, want context.Canceled", err)
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

// TestTuneMatchesRun: Tune plans once and replays its candidates
// concurrently, and its results equal one Run per candidate, sorted
// fastest first with ties in candidate order (the duplicate candidate
// ties its original exactly).
func TestTuneMatchesRun(t *testing.T) {
	tr := captureTrace(t, "cm1", 0.02)
	opt := DefaultOptions()
	cands := StripeSweep(storage.Lassen(), storage.MiB, 4*storage.MiB, 16*storage.MiB)
	dup := cands[1]
	dup.Name += " again"
	cands = append(cands, dup)

	var want []TrialResult
	for _, c := range cands {
		res, err := Run(tr, withStorage(opt, c.Config))
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, TrialResult{Candidate: c, Runtime: res.Runtime, IOTime: res.IOTime})
	}
	sort.SliceStable(want, func(i, j int) bool { return want[i].Runtime < want[j].Runtime })
	got, err := Tune(tr, cands, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Tune = %+v\nwant one Run per candidate, stably sorted: %+v", got, want)
	}
}

// TestPlanCreatesOnFirstOpenOfWrittenFiles: over a generated trace with
// hundreds of files, the plan marks an open as creating exactly where a
// scan from the start of the trace for each open says so: the first
// planned open of a file whose first data op, at any level, is a write.
func TestPlanCreatesOnFirstOpenOfWrittenFiles(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const files, ranks = 400, 8
	tr := &trace.Trace{Meta: trace.Meta{Nodes: 2, Ranks: ranks}}
	for f := 0; f < files; f++ {
		tr.Files = append(tr.Files, trace.FileInfo{Path: fmt.Sprintf("/p/gpfs1/f%03d", f)})
	}
	ops := []trace.Op{trace.OpOpen, trace.OpOpen, trace.OpRead, trace.OpWrite, trace.OpClose, trace.OpStat, trace.OpCompute}
	levels := []trace.Level{trace.LevelApp, trace.LevelMiddleware, trace.LevelPosix}
	for i := 0; i < 8000; i++ {
		op := ops[rng.Intn(len(ops))]
		file := int32(rng.Intn(files))
		if op == trace.OpCompute {
			file = -1
		}
		tr.Events = append(tr.Events, trace.Event{
			Level: levels[rng.Intn(len(levels))], Op: op, Rank: int32(rng.Intn(ranks)),
			App: int32(rng.Intn(2)), File: file, Start: time.Duration(rng.Intn(4000)),
		})
	}

	// The brute force: the primary level per (app, file), then for each
	// primary open of a file not yet created, a scan from the start.
	type afKey struct{ app, file int32 }
	primary := map[afKey]trace.Level{}
	for _, ev := range tr.Events {
		k := afKey{ev.App, ev.File}
		if cur, ok := primary[k]; ev.Op.IsIO() && (!ok || ev.Level < cur) {
			primary[k] = ev.Level
		}
	}
	firstIsWrite := func(file int32) bool {
		for _, ev := range tr.Events {
			if ev.File == file && ev.Op.IsData() {
				return ev.Op == trace.OpWrite
			}
		}
		return false
	}
	type flagged struct {
		start   time.Duration
		created bool
	}
	want := map[int][]flagged{}
	created := map[int32]bool{}
	for _, ev := range tr.Events {
		if !ev.Op.IsIO() || ev.File < 0 || primary[afKey{ev.App, ev.File}] != ev.Level {
			continue
		}
		f := flagged{start: ev.Start}
		if ev.Op == trace.OpOpen && !created[ev.File] && firstIsWrite(ev.File) {
			f.created, created[ev.File] = true, true
		}
		want[int(ev.Rank)] = append(want[int(ev.Rank)], f)
	}

	pl, err := NewPlan(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.scripts) != len(want) {
		t.Fatalf("plan has %d ranks, want %d", len(pl.scripts), len(want))
	}
	var creates int
	for _, sc := range pl.scripts {
		w := want[sc.rank]
		sort.SliceStable(w, func(i, j int) bool { return w[i].start < w[j].start })
		if len(sc.ops) != len(w) {
			t.Fatalf("rank %d: %d ops planned, want %d", sc.rank, len(sc.ops), len(w))
		}
		for i, op := range sc.ops {
			if op.start != w[i].start || op.created != w[i].created {
				t.Fatalf("rank %d op %d: start %v created %v, the scan says %v %v", sc.rank, i, op.start, op.created, w[i].start, w[i].created)
			}
			if op.created {
				creates++
			}
		}
	}
	if creates < files/10 {
		t.Errorf("only %d creating opens among %d files: the trace does not exercise creation", creates, files)
	}
}

func withStorage(opt Options, cfg storage.Config) Options {
	opt.Storage = cfg
	return opt
}
