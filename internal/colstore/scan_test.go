package colstore

import (
	"context"
	"math/bits"
	"math/rand"
	"testing"
	"time"

	"vani/internal/trace"
)

// scanTestFilters sweeps the pushdown predicates: each alone, combined, and
// the match-nothing window.
func scanTestFilters(end time.Duration) []trace.Filter {
	return []trace.Filter{
		{},
		{From: end / 4, To: end / 2},
		{To: end / 8},
		{Ranks: []int32{0, 5, 900}},
		{Levels: []trace.Level{trace.LevelPosix}},
		{Ops: trace.OpClassData},
		{From: end / 8, To: 3 * end / 4, Ranks: []int32{1, 2, 3, 4, 5, 6, 7},
			Levels: []trace.Level{trace.LevelPosix, trace.LevelApp}, Ops: trace.OpClassIO},
		{From: end * 10},
	}
}

// mixedTrace builds a run-structured trace: ranks, levels and ops all
// arrive in runs (so the cost model picks RLE or dict for them), with sizes
// and offsets varied enough that the value columns stay interesting.
func mixedTrace(n int) *trace.Trace {
	rng := rand.New(rand.NewSource(11))
	tr := trace.NewTracer()
	app := tr.AppID("app")
	files := []int32{tr.FileID("/a"), tr.FileID("/b"), tr.FileID("/c")}
	levels := []trace.Level{trace.LevelPosix, trace.LevelMiddleware, trace.LevelApp}
	ops := []trace.Op{trace.OpWrite, trace.OpRead, trace.OpOpen, trace.OpClose}
	var clock time.Duration
	for i := 0; i < n; i++ {
		clock += time.Duration(rng.Intn(90)+1) * time.Nanosecond
		tr.Record(trace.Event{
			Level: levels[i/511%len(levels)], Op: ops[i/257%len(ops)],
			Rank: int32(i / 773 % 16), Node: int32(i / 773 % 16 / 4),
			App: app, File: files[i/1021%len(files)],
			Offset: int64(i) * 512, Size: int64(rng.Intn(1 << 12)),
			Start: clock, End: clock + time.Duration(rng.Intn(40)+1)*time.Nanosecond,
		})
	}
	return tr.Finish()
}

// ruleBlock is the block size of ruleTrace's logs.
const ruleBlock = 4096

// ruleTrace builds a log of seven blocks of ruleBlock events (the last one
// short) over a monotone clock: in even blocks level, op and rank each hold
// one value, which differs between blocks; in odd blocks all three change
// in runs of different lengths.
func ruleTrace() *trace.Trace {
	tr := trace.NewTracer()
	app, file := tr.AppID("app"), tr.FileID("/f")
	levels := []trace.Level{trace.LevelPosix, trace.LevelMiddleware, trace.LevelApp}
	ops := []trace.Op{trace.OpWrite, trace.OpRead, trace.OpOpen, trace.OpClose}
	for i := 0; i < 6*ruleBlock+777; i++ {
		lv, op, rank := i/311, i/97, i/53
		if b := i / ruleBlock; b%2 == 0 {
			lv, op, rank = b/2, b/2, b/2
		}
		start := time.Duration(i) * time.Microsecond
		tr.Record(trace.Event{
			Level: levels[lv%len(levels)], Op: ops[op%len(ops)], Rank: int32(rank % 8),
			Node: int32(rank % 8 / 4), App: app, File: file,
			Offset: int64(i) * 512, Size: 512, Start: start, End: start + time.Microsecond,
		})
	}
	return tr.Finish()
}

// segKind names what a level/op/rank segment came out as.
type segKind int

const (
	kindConst segKind = iota
	kindRLE
	kindDict
	kindFOR
	kindRaw
	numSegKinds
)

var segKindNames = [numSegKinds]string{"constant", "rle", "dict", "for", "raw"}

// kindOf classifies one column segment of a block from its footer codec
// id (raw, RLE, dict, FOR: 0–3, the order of ScanStats.Segs) and the
// block's events: a FOR segment of one value is the writer's constant.
func kindOf(bi trace.BlockInfo, col trace.ColSet, evs []trace.Event) segKind {
	val := func(e *trace.Event) int64 {
		switch col {
		case trace.ColLevel:
			return int64(e.Level)
		case trace.ColOp:
			return int64(e.Op)
		}
		return int64(e.Rank)
	}
	switch bi.SegCodecs[bits.TrailingZeros64(uint64(col))] {
	case 1:
		return kindRLE
	case 2:
		return kindDict
	case 3:
		for i := range evs {
			if val(&evs[i]) != val(&evs[0]) {
				return kindFOR
			}
		}
		return kindConst
	}
	return kindRaw
}

// filterCase is one trace, the layouts it is written in and the filters
// scanned over each.
type filterCase struct {
	name    string
	tr      *trace.Trace
	layouts []trace.V2Options
	filters []trace.Filter
	whole   bool // every row passes
}

// codecLayouts writes a log once per segment codec, at block size be.
func codecLayouts(be int) []trace.V2Options {
	var opts []trace.V2Options
	for _, c := range []trace.CodecMode{trace.CodecAuto, trace.CodecForceRaw, trace.CodecForceRLE, trace.CodecForceDict, trace.CodecForceFOR} {
		opts = append(opts, trace.V2Options{BlockEvents: be, Codec: c})
	}
	return opts
}

var allRanks = []int32{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}

// checkFilterCase is the pushdown equivalence contract at the table layer:
// for every layout, filter and parallelism, the scan's table holds exactly
// the rows FilterEvents keeps from the full decode, in order. When
// tc.whole, every block stays a whole chunk that adopted its block's
// columns by slice, with no selection. It returns how many constrained
// level/op/rank segments of unpruned blocks came out as each kind, counted
// for logs of ruleBlock-event blocks.
func checkFilterCase(t *testing.T, tc filterCase) (seen [numSegKinds]int) {
	t.Helper()
	for _, opt := range tc.layouts {
		br := blockReaderFor(t, tc.tr, opt)
		for fi, f := range tc.filters {
			want := trace.FilterEvents(tc.tr.Events, f)
			if tc.whole && len(want) != len(tc.tr.Events) {
				t.Fatalf("%s filter %d keeps %d of %d rows; the row is not whole-pass", tc.name, fi, len(want), len(tc.tr.Events))
			}
			if opt.BlockEvents == ruleBlock {
				m := f.NewMatcher()
				for k := 0; k < br.NumBlocks(); k++ {
					bi := br.BlockAt(k)
					if m.SkipBlock(bi) {
						continue
					}
					evs := tc.tr.Events[k*ruleBlock : min((k+1)*ruleBlock, len(tc.tr.Events))]
					for _, col := range []trace.ColSet{trace.ColLevel, trace.ColOp, trace.ColRank} {
						if m.NeedColsBlock(bi)&col != 0 {
							seen[kindOf(bi, col, evs)]++
						}
					}
				}
			}
			for _, par := range []int{1, 4} {
				var stats ScanStats
				got := plan(t, br, par, ScanSpec{Filter: f}, &stats)
				if tc.whole {
					if got.NumChunks() != br.NumBlocks() {
						t.Fatalf("%s %+v filter %d: %d chunks from %d blocks", tc.name, opt, fi, got.NumChunks(), br.NumBlocks())
					}
					k := 0
					got.ForEachChunk(func(c *Chunk) {
						n := br.BlockAt(k).Count
						k++
						if c.N != n {
							t.Fatalf("%s %+v filter %d: a whole-pass block was kept through a selection", tc.name, opt, fi)
						}
					})
				}
				assertEvents(t, want, got)
				s := stats.Snapshot()
				if s.RowsKept != int64(len(want)) {
					t.Errorf("%s %+v filter %d: RowsKept=%d, want %d", tc.name, opt, fi, s.RowsKept, len(want))
				}
				if s.BlocksPruned > s.BlocksTotal || s.DecodedBytes > s.PayloadBytes {
					t.Errorf("%s %+v filter %d: inconsistent counters %+v", tc.name, opt, fi, s)
				}
			}
		}
	}
	return seen
}

// TestFromBlocksSpecMatchesFilterEvents holds the equivalence contract over
// block layouts: columnar, flate-compressed and small blocks.
func TestFromBlocksSpecMatchesFilterEvents(t *testing.T) {
	big := bigTrace(2*ChunkRows+123, 42)
	end := big.Events[len(big.Events)-1].Start
	checkFilterCase(t, filterCase{"layouts", big,
		[]trace.V2Options{{}, {Compress: true}, {BlockEvents: 1000}}, scanTestFilters(end), false})
}

// TestPassRunsPerDimensionRule: every constrained level, op or rank
// dimension is tested on decoded rows, whatever its segment came out as.
// Over logs whose constrained segments come out as every kind — constant,
// RLE, dict, FOR and raw — under filters on one, two and three dimensions,
// with and without a window whose edges cut blocks, the table holds exactly
// the rows trace.FilterEvents keeps.
func TestPassRunsPerDimensionRule(t *testing.T) {
	ranks, levels, ops := []int32{1, 2, 5}, []trace.Level{trace.LevelPosix}, trace.OpClassData
	var filters []trace.Filter
	for _, f := range []trace.Filter{
		{Ranks: ranks},
		{Levels: levels},
		{Ops: ops},
		{Ranks: ranks, Ops: ops},
		{Levels: levels, Ops: ops},
		{Ranks: ranks, Levels: levels},
		{Ranks: ranks, Levels: levels, Ops: ops},
		{Ranks: []int32{0, 3}, Levels: []trace.Level{trace.LevelPosix, trace.LevelApp}, Ops: trace.OpClassIO},
	} {
		filters = append(filters, f)
		half := ruleBlock / 2 * time.Microsecond
		f.From, f.To = ruleBlock*time.Microsecond+half, 4*ruleBlock*time.Microsecond+half
		filters = append(filters, f)
	}
	seen := checkFilterCase(t, filterCase{"rule", ruleTrace(), codecLayouts(ruleBlock), filters, false})
	for kind, n := range seen {
		if n == 0 {
			t.Errorf("no constrained dimension came out as a %s segment", segKindNames[kind])
		}
	}
}

// TestCompressedPredicateMatchesFallback: filters over logs written with
// every codec — structured (auto, RLE, dict, FOR) and structureless raw —
// keep the rows trace.FilterEvents keeps, including filters that pass every
// row but one rank and filters with a time window.
func TestCompressedPredicateMatchesFallback(t *testing.T) {
	tr := mixedTrace(2*ChunkRows + 901)
	end := time.Duration(tr.Events[len(tr.Events)-1].Start)
	checkFilterCase(t, filterCase{"mixed", tr, codecLayouts(0), []trace.Filter{
		{Ranks: []int32{1, 3, 5, 7}},
		{Ranks: allRanks[1:]},
		{Levels: []trace.Level{trace.LevelPosix}},
		{Ops: trace.OpClassData},
		{From: end / 8, To: 3 * end / 4, Ranks: []int32{0, 2, 4, 6}, Ops: trace.OpClassIO},
	}, false})
}

// TestRunIntersectionSelection: multi-dimension filters over level, op and
// rank select the rows trace.FilterEvents keeps over every codec, and
// filters that pass every row keep each block as a whole chunk, with no
// selection.
func TestRunIntersectionSelection(t *testing.T) {
	tr := mixedTrace(2*ChunkRows + 901)
	end := time.Duration(tr.Events[len(tr.Events)-1].Start)
	checkFilterCase(t, filterCase{"multi-dim", tr, codecLayouts(0), []trace.Filter{
		{Ranks: []int32{1, 3, 5, 7}, Ops: trace.OpClassData},
		{Levels: []trace.Level{trace.LevelPosix}, Ops: trace.OpClassMeta},
		{Ranks: []int32{0, 2, 4}, Levels: []trace.Level{trace.LevelPosix, trace.LevelApp}, Ops: trace.OpClassIO},
	}, false})
	checkFilterCase(t, filterCase{"whole-pass", tr, codecLayouts(0), []trace.Filter{
		{Ranks: allRanks},
		{Ranks: allRanks, Levels: []trace.Level{trace.LevelPosix, trace.LevelMiddleware, trace.LevelApp}},
		{To: 2 * end},
	}, true})
}

// TestScanCountersKernelSplit: the six served/fallback fields ScanCounters
// keeps for the benchmark's ratios have no producer — every block reads
// decoded rows — so they read 0 after filtered scans over any codec.
func TestScanCountersKernelSplit(t *testing.T) {
	tr := mixedTrace(ChunkRows + 100)
	f := trace.Filter{Ranks: []int32{0, 1, 2}, Ops: trace.OpClassData}
	for _, codec := range []trace.CodecMode{trace.CodecForceDict, trace.CodecForceRLE, trace.CodecForceRaw} {
		var stats ScanStats
		tb := plan(t, blockReaderFor(t, tr, trace.V2Options{Codec: codec}), 2, ScanSpec{Filter: f}, &stats)
		if _, err := unifyOne(tb, 2, ColFile, len(tr.Files)); err != nil {
			t.Fatal(err)
		}
		s := stats.Snapshot()
		kept := [...]int64{s.KernelsServed, s.KernelsFallback, s.GroupServed, s.GroupFallback, s.RunIsectServed, s.RunIsectFallback}
		if kept != [6]int64{} || s.RowsKept == 0 {
			t.Errorf("codec %v: kernel fields %v, rows kept %d; want all 0 and some rows", codec, kept, s.RowsKept)
		}
	}
}

// TestFromBlocksSpecLazyProjection: an unfiltered plan decodes every
// block whole, each column segment exactly once, before the table is
// returned: the decoded bytes never pass the payload size, and a later
// MaterializeContext decodes nothing more.
func TestFromBlocksSpecLazyProjection(t *testing.T) {
	tr := bigTrace(ChunkRows+500, 7)
	br := blockReaderFor(t, tr, trace.V2Options{})
	var stats ScanStats
	got := plan(t, br, 4, ScanSpec{}, &stats)
	s := stats.Snapshot()
	if segs, want := s.SegRaw+s.SegRLE+s.SegDict+s.SegFOR, s.BlocksTotal*trace.NumCols; segs != want {
		t.Errorf("unfiltered plan decoded %d segments, want %d (each of %d blocks' %d once)", segs, want, s.BlocksTotal, trace.NumCols)
	}
	if s.DecodedBytes <= 0 || s.DecodedBytes > s.PayloadBytes {
		t.Errorf("unfiltered plan decoded %d of %d payload bytes", s.DecodedBytes, s.PayloadBytes)
	}
	if err := got.MaterializeContext(context.Background(), 4, trace.AllCols); err != nil {
		t.Fatal(err)
	}
	if again := stats.Snapshot(); again.DecodedBytes != s.DecodedBytes {
		t.Errorf("MaterializeContext decoded %d more bytes", again.DecodedBytes-s.DecodedBytes)
	}
	assertEvents(t, tr.Events, got)
}

// TestTableIrregularChunks: a filtered table's chunks are irregular — each
// holds only the rows its block kept — yet together, in order, they hold
// exactly the filtered rows.
func TestTableIrregularChunks(t *testing.T) {
	tr := bigTrace(3*ChunkRows, 19)
	end := tr.Events[len(tr.Events)-1].Start
	br := blockReaderFor(t, tr, trace.V2Options{})
	f := trace.Filter{Ops: trace.OpClassData, To: 3 * end / 4}
	tb := plan(t, br, 2, ScanSpec{Filter: f}, nil)
	sizes := map[int]bool{}
	tb.ForEachChunk(func(c *Chunk) { sizes[c.N] = true })
	if len(sizes) < 2 {
		t.Fatalf("filtered chunks all hold %v rows: want irregular chunks", sizes)
	}
	assertEvents(t, trace.FilterEvents(tr.Events, f), tb)
}

// TestFromBlocksSpecPruning: a narrow window over a time-ordered multi-block
// log skips whole blocks, decodes each block it reads whole when rows
// survive, and decodes only the filter's column of a read block none of
// whose rows pass, dropping its chunk.
func TestFromBlocksSpecPruning(t *testing.T) {
	tr := bigTrace(4*ChunkRows, 11)
	end := tr.Events[len(tr.Events)-1].Start
	br := blockReaderFor(t, tr, trace.V2Options{})
	f := trace.Filter{From: end / 4, To: end / 2}
	var stats ScanStats
	got := plan(t, br, 4, ScanSpec{Filter: f}, &stats)
	s := stats.Snapshot()
	if s.BlocksTotal != 4 {
		t.Fatalf("BlocksTotal=%d, want 4", s.BlocksTotal)
	}
	if s.BlocksPruned == 0 {
		t.Error("25% window pruned no blocks")
	}
	segs := func(s ScanCounters) int64 { return s.SegRaw + s.SegRLE + s.SegDict + s.SegFOR }
	if read := s.BlocksTotal - s.BlocksPruned; segs(s) != read*trace.NumCols {
		t.Errorf("%d blocks with surviving rows decoded %d segments, want %d", read, segs(s), read*trace.NumCols)
	}
	assertEvents(t, trace.FilterEvents(tr.Events, f), got)

	// A window between two rows of block 1 reads that block and keeps none
	// of its rows: it decodes the Start segment alone.
	i := ChunkRows + ChunkRows/2
	for tr.Events[i+1].Start-tr.Events[i].Start < 2 {
		i++
	}
	gap := tr.Events[i].Start + 1
	var gapStats ScanStats
	none := plan(t, br, 4, ScanSpec{Filter: trace.Filter{From: gap, To: gap}}, &gapStats)
	if g := gapStats.Snapshot(); none.Len() != 0 || g.BlocksTotal-g.BlocksPruned != 1 || segs(g) != 1 {
		t.Errorf("window between two rows: %d rows kept, %d blocks read, %d segments decoded; want 0, 1, 1",
			none.Len(), g.BlocksTotal-g.BlocksPruned, segs(g))
	}

	// The match-nothing window prunes everything and yields an empty table.
	var stats2 ScanStats
	empty := plan(t, br, 4, ScanSpec{Filter: trace.Filter{From: end * 10}}, &stats2)
	if empty.Len() != 0 {
		t.Errorf("past-the-end window kept %d rows", empty.Len())
	}
	if stats2.BlocksPruned.Load() != stats2.BlocksTotal.Load() {
		t.Errorf("past-the-end window read %d blocks",
			stats2.BlocksTotal.Load()-stats2.BlocksPruned.Load())
	}
}

// TestScanStatsCodecMix: a planned scan tallies one decoded segment per
// (block, column) into the codec-mix counters.
func TestScanStatsCodecMix(t *testing.T) {
	tr := runsTrace(2 * ChunkRows)
	br := blockReaderFor(t, tr, trace.V2Options{Codec: trace.CodecAuto})
	var stats ScanStats
	plan(t, br, 2, ScanSpec{}, &stats)
	s := stats.Snapshot()
	total := s.SegRaw + s.SegRLE + s.SegDict + s.SegFOR
	if want := s.BlocksTotal * trace.NumCols; total != want {
		t.Fatalf("codec-mix total %d, want %d (blocks=%d)", total, want, s.BlocksTotal)
	}
	if s.SegRLE == 0 {
		t.Fatal("run-structured trace decoded no RLE segments")
	}
}

// memoSource arms every block's decoded-column memo as it reads it, as
// vanid's block cache does from a trace's second scan.
type memoSource struct{ *trace.BlockReader }

func (m memoSource) ReadBlock(k int) (*trace.BlockData, error) {
	bd, err := m.BlockReader.ReadBlock(k)
	if err == nil {
		bd.EnableMemo()
	}
	return bd, err
}

// TestScanStatsCodecMixMemoFill: a scan that fills block memos counts every
// segment the fill decodes. The first Decode on a memoized block decodes all
// of its segments whatever the filter asked for, so a filtered scan counts
// the same segments and bytes as an unfiltered one.
func TestScanStatsCodecMixMemoFill(t *testing.T) {
	tr := mixedTrace(4 * ChunkRows)
	br := blockReaderFor(t, tr, trace.V2Options{})
	if br.NumBlocks() != 4 {
		t.Fatalf("%d blocks, want 4", br.NumBlocks())
	}
	var got []ScanCounters
	for _, f := range []trace.Filter{{}, {Ops: trace.OpClassData}} {
		var stats ScanStats
		tb, err := FromBlocksSpecContext(context.Background(), memoSource{br}, 2, ScanSpec{Filter: f}, &stats)
		if err != nil {
			t.Fatal(err)
		}
		tb.Release()
		s := stats.Snapshot()
		if segs := s.SegRaw + s.SegRLE + s.SegDict + s.SegFOR; segs != 4*trace.NumCols || s.BlocksPruned != 0 {
			t.Errorf("filter %+v: %d segments counted over %d pruned blocks, want %d and none pruned",
				f, segs, s.BlocksPruned, 4*trace.NumCols)
		}
		got = append(got, s)
	}
	if got[0].DecodedBytes != got[1].DecodedBytes || got[0].DecodedBytes == 0 {
		t.Errorf("decoded bytes %d unfiltered, %d filtered; want equal and nonzero", got[0].DecodedBytes, got[1].DecodedBytes)
	}
}

// TestSelectRowsAllocatesOnlyTheSelection: a block cut to a selection
// allocates nothing — the selection is the caller's block-sized scratch,
// which a scan draws from selBufs — and neither does a block whose rows all
// pass.
func TestSelectRowsAllocatesOnlyTheSelection(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is skewed under the race detector")
	}
	tr := mixedTrace(ChunkRows)
	br := blockReaderFor(t, tr, trace.V2Options{})
	bd, err := br.ReadBlock(0)
	if err != nil {
		t.Fatal(err)
	}
	var cols trace.Columns
	if _, _, err := bd.Decode(trace.ColRank|trace.ColOp, &cols); err != nil {
		t.Fatal(err)
	}
	need := trace.ColRank | trace.ColOp
	partial := trace.Filter{Ranks: []int32{1, 3, 5, 7}, Ops: trace.OpClassData}
	all := trace.Filter{Ranks: []int32{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}}
	part, whole := partial.NewMatcher(), all.NewMatcher()
	buf := new([]int32)
	sel := selectRows(part, need, &cols, buf)
	if len(sel) == 0 || len(sel) == cols.N || &sel[0] != &(*buf)[0] {
		t.Fatalf("partial filter: selection of %d of %d rows; want a proper subset in the scratch", len(sel), cols.N)
	}
	if got := testing.AllocsPerRun(20, func() { selectRows(part, need, &cols, buf) }); got != 0 {
		t.Errorf("partial filter: %v allocations per block, want 0", got)
	}
	if got := testing.AllocsPerRun(20, func() {
		if selectRows(whole, trace.ColRank, &cols, buf) != nil {
			t.Fatal("whole-pass block got a selection")
		}
	}); got != 0 {
		t.Errorf("whole-pass filter: %v allocations per block, want 0", got)
	}
}
