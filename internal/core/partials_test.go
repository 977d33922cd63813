package core

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"vani/internal/colstore"
	"vani/internal/spec"
	"vani/internal/trace"
	"vani/internal/workloads"
)

// Tests where chunks meet. The ordered partials of partials.go only run
// their stitches at chunk seams, so these arms put seams everywhere: tiny
// blocks, tables out of Start order, and hand-built partial lists.

// seamSlice returns the trace with at most n consecutive events from its
// middle — enough structure for a scan at one or two events per chunk.
func seamSlice(tr *trace.Trace, n int) *trace.Trace {
	if len(tr.Events) <= n {
		return tr
	}
	cp := *tr
	lo := (len(tr.Events) - n) / 2
	cp.Events = tr.Events[lo : lo+n]
	return &cp
}

func smallRun(t *testing.T, w workloads.Workload) (*trace.Trace, workloads.Spec) {
	t.Helper()
	spec := w.DefaultSpec()
	spec.Nodes = 4
	if spec.RanksPerNode > 8 {
		spec.RanksPerNode = 8
	}
	spec.Scale = 0.02
	res, err := workloads.Run(w, spec)
	if err != nil {
		t.Fatalf("Run(%s): %v", w.Name(), err)
	}
	return res.Trace, spec
}

// TestSeamsMatchOracle: lazily planned tables whose blocks — and so chunks —
// hold 1 to 256 events must characterize exactly as the oracle does, with
// and without a filter, sequentially and in parallel.
func TestSeamsMatchOracle(t *testing.T) {
	for _, w := range spec.All() {
		full, spec := smallRun(t, w)
		for _, be := range []int{1, 2, 7, 37, 256} {
			tr := full
			if be <= 7 {
				tr = seamSlice(full, 1500*be)
			}
			end := tr.Events[len(tr.Events)-1].Start
			start := tr.Events[0].Start
			filters := map[string]trace.Filter{
				"none":     {},
				"combined": {From: start + (end-start)/8, To: start + 3*(end-start)/4, Ranks: []int32{0, 2, 4, 6, 8, 10}, Ops: trace.OpClassIO},
			}
			for fname, f := range filters {
				opt := DefaultOptions()
				opt.Storage = &spec.Storage
				opt.Filter = f
				want := oracleAnalyze(tr, opt)
				for _, par := range []int{1, 4} {
					opt.Parallelism = par
					got, err := AnalyzeTable(tr, lazyTable(t, tr, trace.V2Options{BlockEvents: be}, f), opt)
					if err != nil {
						t.Fatalf("%s block=%d %s par=%d: %v", w.Name(), be, fname, par, err)
					}
					if !reflect.DeepEqual(want, got) {
						t.Errorf("%s block=%d %s par=%d: characterization differs from the oracle", w.Name(), be, fname, par)
					}
				}
			}
		}
	}
}

// TestOutOfOrderTablesMatchOracle: a table need not be in Start order. Fully
// shuffled, locally swapped and reversed event logs (multi-chunk, eagerly
// built) characterize exactly as the oracle does — the chunk-local re-listing
// by Start and the stitches' sort guards stand in for a global sort.
func TestOutOfOrderTablesMatchOracle(t *testing.T) {
	for _, name := range []string{"cosmoflow", "montage-mpi", "jag"} {
		w, err := spec.New(name)
		if err != nil {
			t.Fatal(err)
		}
		tr, spec := smallRun(t, w)
		n := len(tr.Events)
		if n <= colstore.ChunkRows {
			t.Fatalf("%s: %d events do not span two chunks", name, n)
		}
		rng := rand.New(rand.NewSource(3))
		orders := map[string]func([]trace.Event){
			"shuffled": func(evs []trace.Event) {
				rng.Shuffle(len(evs), func(i, j int) { evs[i], evs[j] = evs[j], evs[i] })
			},
			"swapped": func(evs []trace.Event) {
				for i := 0; i+1 < len(evs); i += 2 {
					evs[i], evs[i+1] = evs[i+1], evs[i]
				}
			},
			"reversed": func(evs []trace.Event) {
				for i, j := 0, len(evs)-1; i < j; i, j = i+1, j-1 {
					evs[i], evs[j] = evs[j], evs[i]
				}
			},
		}
		for oname, permute := range orders {
			cp := *tr
			cp.Events = append([]trace.Event(nil), tr.Events...)
			permute(cp.Events)
			opt := DefaultOptions()
			opt.Storage = &spec.Storage
			want := oracleAnalyze(&cp, opt)
			for _, par := range []int{1, 4} {
				opt.Parallelism = par
				got, err := AnalyzeContext(context.Background(), &cp, opt)
				if err != nil {
					t.Fatalf("%s %s par=%d: %v", name, oname, par, err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Errorf("%s %s par=%d: characterization differs from the oracle", name, oname, par)
				}
				got, err = AnalyzeTable(&cp, lazyTable(t, &cp, trace.V2Options{BlockEvents: 509}, trace.Filter{}), opt)
				if err != nil {
					t.Fatalf("%s %s lazy par=%d: %v", name, oname, par, err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Errorf("%s %s lazy par=%d: characterization differs from the oracle", name, oname, par)
				}
			}
		}
	}
}

// TestInvertedIntervalIsBadFormat pins the rule for a row that ends before
// it starts: among the primary rows, whose intervals the I/O time and the
// phases are swept from, it is malformed input on every table shape; on a
// row the sweeps never see it changes nothing.
func TestInvertedIntervalIsBadFormat(t *testing.T) {
	w, err := spec.New("hacc")
	if err != nil {
		t.Fatal(err)
	}
	tr, _ := smallRun(t, w)
	primary, compute := -1, -1
	for i, ev := range tr.Events {
		if primary < 0 && ev.Op.IsData() && ev.End > ev.Start {
			primary = i
		}
		if compute < 0 && !ev.Op.IsIO() && ev.End > ev.Start {
			compute = i
		}
	}
	if primary < 0 || compute < 0 {
		t.Fatal("trace lacks a data row or a compute row to invert")
	}
	invert := func(i int) *trace.Trace {
		cp := *tr
		cp.Events = append([]trace.Event(nil), tr.Events...)
		cp.Events[i].Start, cp.Events[i].End = cp.Events[i].End, cp.Events[i].Start
		return &cp
	}

	bad := invert(primary)
	if _, err := AnalyzeContext(context.Background(), bad, DefaultOptions()); !errors.Is(err, trace.ErrBadFormat) {
		t.Errorf("eager: err = %v, want ErrBadFormat", err)
	}
	for _, vopt := range []trace.V2Options{{}, {Codec: trace.CodecForceRaw}, {BlockEvents: 7}} {
		if _, err := AnalyzeTable(bad, lazyTable(t, bad, vopt, trace.Filter{}), DefaultOptions()); !errors.Is(err, trace.ErrBadFormat) {
			t.Errorf("lazy %+v: err = %v, want ErrBadFormat", vopt, err)
		}
	}

	ok := invert(compute)
	got, err := AnalyzeContext(context.Background(), ok, DefaultOptions())
	if err != nil {
		t.Fatalf("inverted compute row: %v", err)
	}
	if want := oracleAnalyze(ok, DefaultOptions()); !reflect.DeepEqual(want, got) {
		t.Error("inverted compute row: characterization differs from the oracle")
	}
}

func TestStitchPatternAcrossSeam(t *testing.T) {
	k := streamKey{file: 3, rank: 1}
	other := streamKey{file: 3, rank: 2}
	parts := func(first int64) []chunkPart {
		return []chunkPart{
			{prim: streamPart{seq: 1, total: 1, ends: []streamEnd{{k, 0, 100}}}},
			{}, // a chunk the stream skips: the chain must reach across it
			{prim: streamPart{ends: []streamEnd{{k, first, first}, {other, 0, 0}}}},
		}
	}
	pick := func(p *chunkPart) *streamPart { return &p.prim }
	// Backwards over the seam: 1 of 2 pairs sequential. The other rank's
	// stream shares the file but not the chain.
	if got := stitchPattern(parts(99), pick); got != "Random" {
		t.Errorf("first offset behind the previous chunk's last: %s, want Random", got)
	}
	if got := stitchPattern(parts(100), pick); got != "Seq" {
		t.Errorf("first offset at the previous chunk's last: %s, want Seq", got)
	}
	if got := stitchPattern(nil, pick); got != "Seq" {
		t.Errorf("no pairs: %s, want Seq", got)
	}
}

func TestStitchIOTime(t *testing.T) {
	for _, tc := range []struct {
		name  string
		parts []chunkPart
		want  time.Duration
	}{
		{"none", nil, 0},
		{"previous chunk swallows leading intervals",
			[]chunkPart{{ivs: []interval{{0, 100}}}, {ivs: []interval{{10, 20}, {30, 40}, {90, 120}, {200, 210}}}}, 130},
		{"touching intervals merge",
			[]chunkPart{{ivs: []interval{{0, 10}}}, {ivs: []interval{{10, 15}}}}, 15},
		{"chunks out of order",
			[]chunkPart{{ivs: []interval{{50, 60}}}, {ivs: []interval{{0, 10}, {55, 70}}}}, 30},
	} {
		if got := stitchIOTime(tc.parts); got != tc.want {
			t.Errorf("%s: %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestStitchPhases(t *testing.T) {
	cl := func(minS, maxE int64, ranks ...int32) cluster {
		return cluster{minS: minS, maxE: maxE, rows: 2, reads: 1, bytes: 8, ranks: ranks,
			sizes: sizeTally{{8: 1}, nil}}
	}
	spans := func(ps []IOPhaseEntity) (out [][2]int64) {
		for _, p := range ps {
			out = append(out, [2]int64{int64(p.Start), int64(p.End)})
		}
		return out
	}

	// The previous chunk's max End (100) reaches over the next chunk's first
	// three clusters; the fourth is more than the gap past everything.
	parts := []chunkPart{
		{clusters: []cluster{cl(0, 100, 0, 1)}},
		{clusters: []cluster{cl(10, 20, 1, 2), cl(40, 50, 2), cl(104, 110, 0), cl(120, 130, 5)}},
	}
	phases, gran := stitchPhases(parts, 5, 8)
	if got, want := spans(phases), [][2]int64{{0, 110}, {120, 130}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("swallowed clusters: phases %v, want %v", got, want)
	}
	// Four clusters of two rows over ranks {0, 1, 2}; one of two rows on rank 5.
	if p := phases[0]; p.OpsPerRank != 8.0/3 || p.IOBytes != 32 || p.Granule != 8 || p.DataOpsPct != 0.5 {
		t.Errorf("merged phase: %+v", p)
	}
	if p := phases[1]; p.Index != 1 || p.OpsPerRank != 2 {
		t.Errorf("second phase: %+v", p)
	}
	if gran != (Granularity{Read: 8}) {
		t.Errorf("granularity over all clusters: %+v", gran)
	}

	// Chunks of an out-of-order table: their cluster lists interleave.
	parts = []chunkPart{
		{clusters: []cluster{cl(100, 110, 0), cl(300, 310, 0)}},
		{clusters: []cluster{cl(0, 10, 0), cl(200, 210, 0), cl(305, 320, 1)}},
	}
	phases, _ = stitchPhases(parts, 5, 8)
	if got, want := spans(phases), [][2]int64{{0, 10}, {100, 110}, {200, 210}, {300, 320}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("interleaved clusters: phases %v, want %v", got, want)
	}
	if phases[3].OpsPerRank != 2 {
		t.Errorf("last phase spans two clusters of distinct ranks: %+v", phases[3])
	}
	if phases, _ := stitchPhases(nil, 5, 8); phases != nil {
		t.Errorf("no clusters: %v", phases)
	}
}

// TestPartialsAtRandomSeams builds the three partials over random rows cut
// into random chunks — in Start order and shuffled — and checks every stitch
// against the oracle's row-at-a-time definition.
func TestPartialsAtRandomSeams(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const ranks, gap = 6, 40
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(300)
		evs := make([]trace.Event, n)
		var now int64
		for i := range evs {
			now += int64(rng.Intn(30))
			if rng.Intn(25) == 0 {
				now += gap + int64(rng.Intn(100)) // often, not always, a phase break
			}
			op := []trace.Op{trace.OpRead, trace.OpWrite, trace.OpOpen, trace.OpClose}[rng.Intn(4)]
			evs[i] = trace.Event{
				Level: trace.LevelPosix, Op: op, Rank: int32(rng.Intn(ranks)), File: int32(rng.Intn(4)) - 1,
				Offset: int64(rng.Intn(8)) * 64, Size: int64(rng.Intn(3)) * 512,
				Start: time.Duration(now), End: time.Duration(now + int64(rng.Intn(60))),
			}
		}
		if trial%2 == 1 {
			rng.Shuffle(n, func(i, j int) { evs[i], evs[j] = evs[j], evs[i] })
		}

		s := newPartScratch(ranks + 1)
		var parts []chunkPart
		var kept []trace.Event
		for lo := 0; lo < n; {
			hi := min(n, lo+1+rng.Intn(40))
			c := colstore.FromEvents(evs[lo:hi], 1).ChunkAt(0)
			// One row in five is left out of the subset, so ranges break
			// inside chunks too; the oracle sees the member rows only.
			var rows []rowRange
			for j := 0; j < c.N; j++ {
				if rng.Intn(5) != 0 {
					rows = appendRange(rows, j, j+1)
					kept = append(kept, evs[lo+j])
				}
			}
			var part chunkPart
			part.prim = s.streams(c, rows)
			if err := s.sweep(c, rows, gap, &part); err != nil {
				t.Fatal(err)
			}
			parts = append(parts, part)
			lo = hi
		}

		if got, want := stitchPattern(parts, func(p *chunkPart) *streamPart { return &p.prim }), oPattern(kept); got != want {
			t.Fatalf("trial %d: access pattern %s, oracle %s", trial, got, want)
		}
		if got, want := stitchIOTime(parts), oUnion(kept); got != want {
			t.Fatalf("trial %d: I/O time %d, oracle %d", trial, got, want)
		}
		phases, gran := stitchPhases(parts, gap, ranks+1)
		if want := oPhases(kept, gap); !reflect.DeepEqual(phases, want) {
			t.Fatalf("trial %d: %d phases differ from the oracle's %d", trial, len(phases), len(want))
		}
		if want := (Granularity{Read: oDominant(kept, trace.OpRead), Write: oDominant(kept, trace.OpWrite)}); gran != want {
			t.Fatalf("trial %d: granularity %+v, oracle %+v", trial, gran, want)
		}
	}
}

// TestIsolatedEventsStayBounded: the partials of a chunk are O(its rows) and
// a phase's rank set O(the ranks in it), whatever the rank space. A trace of
// isolated events — every row its own stream, interval, cluster and phase —
// over a sparse 100 000-rank space is the worst case for all of them (a
// rank-space-wide bitset per cluster would cost 12 500 B/event here). The
// analyzer before the partials (gathered views, an interval copy) allocated
// 958 B/event on this trace; this one measures 1.4 times that — a size map
// and a rank list per cluster — and the bound is twice.
func TestIsolatedEventsStayBounded(t *testing.T) {
	const n, rankSpace, headBytesPerEvent = 120000, 100000, 958
	tc := trace.NewTracer()
	tc.SetMeta(trace.Meta{Workload: "isolated", Nodes: 1, Ranks: rankSpace})
	app, file := tc.AppID("app"), tc.FileID("/f")
	for i := 0; i < n; i++ {
		start := time.Duration(i) * 10 * time.Second
		tc.Record(trace.Event{
			Level: trace.LevelPosix, Op: trace.OpWrite, Lib: trace.LibPosix, App: app, File: file,
			Rank: int32(i * 7919 % rankSpace), Offset: int64(i) * 4096, Size: 4096,
			Start: start, End: start + time.Millisecond,
		})
	}
	tr := tc.Finish()
	tb := colstore.FromEvents(tr.Events, 1)
	opt := DefaultOptions()
	opt.Parallelism = 2

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c, err := AnalyzeTable(tr, tb, opt)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Phases) != n {
		t.Fatalf("%d phases, want one per event (%d)", len(c.Phases), n)
	}
	perEvent := float64(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("%.0f B/event allocated", perEvent)
	if bound := 2.0 * headBytesPerEvent; perEvent > bound {
		t.Errorf("analysis of %d isolated events allocated %.0f B/event, over the bound of %.0f", n, perEvent, bound)
	}
}
