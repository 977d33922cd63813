package colstore

// Selection-backed execution: filtered chunks carry their block run
// summaries re-cut against the selection vector, so key spans and the code
// unifier serve filtered scans exactly as they do whole blocks — with
// results identical to the materialized columns, and the filtered-capture
// and fallback counters moving by exact amounts.

import (
	"errors"
	"testing"

	"vani/internal/trace"
)

// assertKeySpansMatchColumns materializes every chunk and checks that the
// key spans tile it and agree with the columns row by row.
func assertKeySpansMatchColumns(t *testing.T, tb *Table) {
	t.Helper()
	for k := 0; k < tb.NumChunks(); k++ {
		spans, ok := tb.ChunkKeySpans(k, nil)
		if !ok {
			t.Fatalf("chunk %d: key spans not served", k)
		}
		c := tb.ChunkAt(k)
		if err := c.Require(trace.AllCols); err != nil {
			t.Fatal(err)
		}
		row := 0
		for _, s := range spans {
			if s.Lo != row {
				t.Fatalf("chunk %d: span starts at %d, want %d (spans must tile)", k, s.Lo, row)
			}
			for j := s.Lo; j < s.Hi; j++ {
				if c.Level[j] != s.Level || c.Rank[j] != s.Rank || c.Node[j] != s.Node ||
					c.App[j] != s.App || c.File[j] != s.File {
					t.Fatalf("chunk %d row %d: key span keys differ from columns", k, j)
				}
			}
			row = s.Hi
		}
		if row != c.N {
			t.Fatalf("chunk %d: spans cover %d rows of %d", k, row, c.N)
		}
	}
}

// TestSelectionBackedKeySpans: a single-dimension rank filter leaves every
// chunk selection-backed; the re-cut run summaries must serve key spans
// that match the materialized filtered columns, across codecs, with the
// filtered-capture counter moving once per chunk and the unifier answering
// every chunk from its summary without decoding a byte.
func TestSelectionBackedKeySpans(t *testing.T) {
	tr := groupTrace(3)
	f := trace.Filter{Ranks: []int32{1, 3, 5}}
	for _, codec := range []trace.CodecMode{
		trace.CodecAuto, trace.CodecForceRLE, trace.CodecForceDict, trace.CodecForceFOR,
	} {
		br := blockReaderFor(t, tr, trace.V2Options{Codec: codec})
		var stats ScanStats
		tb, err := FromBlocksSpec(br, 2, ScanSpec{Filter: f}, &stats)
		if err != nil {
			t.Fatalf("codec %v: %v", codec, err)
		}
		base := stats.Snapshot()
		if base.GroupFilteredServed != int64(tb.NumChunks()) {
			t.Errorf("codec %v: filtered run capture served %d of %d chunks",
				codec, base.GroupFilteredServed, tb.NumChunks())
		}
		if base.GroupFilteredFallback != 0 {
			t.Errorf("codec %v: filtered run capture fell back on %d chunks, want 0",
				codec, base.GroupFilteredFallback)
		}
		card, err := tb.UnifyCodes(2, ColFile, len(tr.Files))
		if err != nil {
			t.Fatalf("codec %v UnifyCodes: %v", codec, err)
		}
		if card != 4 {
			t.Errorf("codec %v: card = %d, want 4", codec, card)
		}
		sc := stats.Snapshot()
		if d := sc.KernelServed[KGroupAgg] - base.KernelServed[KGroupAgg]; d != int64(tb.NumChunks()) {
			t.Errorf("codec %v: unifier served %d/%d filtered chunks from re-cut summaries",
				codec, d, tb.NumChunks())
		}
		if sc.DecodedBytes != base.DecodedBytes {
			t.Errorf("codec %v: unifier decoded %d bytes on summarized chunks, want 0",
				codec, sc.DecodedBytes-base.DecodedBytes)
		}
		assertKeySpansMatchColumns(t, tb)
	}
}

// TestMultiDimFilteredRunCapture: partial multi-dimension filters flow
// their selection spans from the run-intersection kernel into the re-cut
// (no re-derivation from the selection vector), and whole-pass filters
// keep the unfiltered block summaries — both end with key spans serving.
func TestMultiDimFilteredRunCapture(t *testing.T) {
	tr := groupTrace(3)
	t.Run("partial", func(t *testing.T) {
		f := trace.Filter{Ranks: []int32{1, 3, 5}, Ops: trace.OpClassData}
		br := blockReaderFor(t, tr, trace.V2Options{Codec: trace.CodecForceRLE})
		var stats ScanStats
		tb, err := FromBlocksSpec(br, 2, ScanSpec{Filter: f}, &stats)
		if err != nil {
			t.Fatal(err)
		}
		sc := stats.Snapshot()
		if sc.RunIsectServed == 0 {
			t.Fatal("multi-dimension filter did not take the run-intersection path")
		}
		if sc.GroupFilteredServed != int64(tb.NumChunks()) || sc.GroupFilteredFallback != 0 {
			t.Errorf("filtered run capture served %d / fell back %d over %d chunks",
				sc.GroupFilteredServed, sc.GroupFilteredFallback, tb.NumChunks())
		}
		assertKeySpansMatchColumns(t, tb)
	})
	t.Run("whole-pass", func(t *testing.T) {
		f := trace.Filter{
			Ranks:  []int32{0, 1, 2, 3, 4, 5, 6, 7},
			Levels: []trace.Level{trace.LevelPosix, trace.LevelApp},
		}
		br := blockReaderFor(t, tr, trace.V2Options{Codec: trace.CodecForceRLE})
		var stats ScanStats
		tb, err := FromBlocksSpec(br, 2, ScanSpec{Filter: f}, &stats)
		if err != nil {
			t.Fatal(err)
		}
		sc := stats.Snapshot()
		if sc.RowsKept != sc.RowsTotal {
			t.Fatalf("kept %d of %d rows, want all", sc.RowsKept, sc.RowsTotal)
		}
		// Every row passed: chunks are whole-block, the unfiltered capture
		// runs and the filtered-capture counters must not move at all.
		if sc.GroupFilteredServed != 0 || sc.GroupFilteredFallback != 0 {
			t.Errorf("whole-pass filter ticked filtered capture (%d served, %d fallback)",
				sc.GroupFilteredServed, sc.GroupFilteredFallback)
		}
		for k := 0; k < tb.NumChunks(); k++ {
			if !tb.ChunkAt(k).HasRuns(ColRank) {
				t.Fatalf("chunk %d: whole-pass filter lost the block run summary", k)
			}
		}
		assertKeySpansMatchColumns(t, tb)
	})
}

// TestCompressedSelMultiSpansMatchSel: the spans the run-intersection
// kernel emits alongside its selection vector are exactly the vector's
// maximal consecutive spans.
func TestCompressedSelMultiSpansMatchSel(t *testing.T) {
	tr := mixedTrace(2*ChunkRows + 901)
	f := trace.Filter{Ranks: []int32{1, 3, 5, 7}, Ops: trace.OpClassData}
	br := blockReaderFor(t, tr, trace.V2Options{Codec: trace.CodecForceRLE})
	m := f.NewMatcher()
	checked := 0
	for k := 0; k < br.NumBlocks(); k++ {
		bd, err := br.ReadBlock(k)
		if err != nil {
			t.Fatal(err)
		}
		sel, spans, all, ok, eligible := compressedSelMulti(m, m.NeedCols(), bd)
		if !eligible || !ok || all || sel == nil {
			continue
		}
		want := trace.AppendSelSpans(sel, nil)
		if len(spans) != len(want) {
			t.Fatalf("block %d: %d spans for %d maximal runs", k, len(spans), len(want))
		}
		for i := range spans {
			if spans[i] != want[i] {
				t.Fatalf("block %d span %d: %+v, want %+v", k, i, spans[i], want[i])
			}
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no block took the partial run-intersection path")
	}
}

// TestGroupFallbackOncePerChunk pins the unifier's accounting on filtered
// scans: one KGroupAgg request per chunk per unification, served when the
// chunk answered from structure — even if the answer is an id the table
// does not hold — and fallback when the unifier had to read rows, in which
// case it decodes exactly that chunk's key column: the bytes the row pass
// the chunk is bound for would have decoded anyway.
func TestGroupFallbackOncePerChunk(t *testing.T) {
	tr := groupTrace(3)
	f := trace.Filter{Ranks: []int32{1, 3, 5}}

	t.Run("over-cap", func(t *testing.T) {
		br := blockReaderFor(t, tr, trace.V2Options{Codec: trace.CodecForceRLE})
		var stats ScanStats
		tb, err := FromBlocksSpec(br, 2, ScanSpec{Filter: f}, &stats)
		if err != nil {
			t.Fatal(err)
		}
		base := stats.Snapshot()
		// Chunk 0 holds file ids {-1, 0, 1}; chunk 1 reaches id 2, past a
		// two-entry table.
		if _, err := tb.UnifyCodes(2, ColFile, 2); !errors.Is(err, trace.ErrBadFormat) {
			t.Fatalf("UnifyCodes past the table: err = %v, want ErrBadFormat", err)
		}
		sc := stats.Snapshot()
		if d := sc.KernelServed[KGroupAgg] - base.KernelServed[KGroupAgg]; d != int64(tb.NumChunks()) {
			t.Errorf("summarized chunks ticked %d served, want %d", d, tb.NumChunks())
		}
		if d := sc.KernelFallback[KGroupAgg] - base.KernelFallback[KGroupAgg]; d != 0 {
			t.Errorf("summarized chunks ticked %d KGroupAgg fallbacks, want 0", d)
		}
	})

	t.Run("no-summary", func(t *testing.T) {
		// Forced-raw segments have no runs to re-cut, so the filtered
		// chunks carry no summaries and no header structure: the unifier
		// reads rows, one fallback tick and one file-column decode per chunk.
		br := blockReaderFor(t, tr, trace.V2Options{Codec: trace.CodecForceRaw})
		var stats ScanStats
		tb, err := FromBlocksSpec(br, 2, ScanSpec{Filter: f}, &stats)
		if err != nil {
			t.Fatal(err)
		}
		base := stats.Snapshot()
		if base.GroupFilteredServed != 0 || base.GroupFilteredFallback != int64(tb.NumChunks()) {
			t.Fatalf("raw filtered capture served %d / fell back %d of %d chunks",
				base.GroupFilteredServed, base.GroupFilteredFallback, tb.NumChunks())
		}
		card, err := tb.UnifyCodes(2, ColFile, len(tr.Files))
		if err != nil || card != 4 {
			t.Fatalf("UnifyCodes on summary-less filtered chunks = (%d, %v), want (4, nil)", card, err)
		}
		sc := stats.Snapshot()
		if d := sc.KernelFallback[KGroupAgg] - base.KernelFallback[KGroupAgg]; d != int64(tb.NumChunks()) {
			t.Errorf("%d chunks ticked %d KGroupAgg fallbacks, want one each", tb.NumChunks(), d)
		}
		if d := sc.KernelServed[KGroupAgg] - base.KernelServed[KGroupAgg]; d != 0 {
			t.Errorf("row-reading unification ticked %d served, want 0", d)
		}
		var rowStats ScanStats
		rowTb, err := FromBlocksSpec(br, 2, ScanSpec{Filter: f}, &rowStats)
		if err != nil {
			t.Fatal(err)
		}
		rowBase := rowStats.DecodedBytes.Load()
		if err := rowTb.Materialize(2, trace.ColFile); err != nil {
			t.Fatal(err)
		}
		want := rowStats.DecodedBytes.Load() - rowBase
		if got := sc.DecodedBytes - base.DecodedBytes; got != want || want == 0 {
			t.Errorf("unifier decoded %d bytes, the chunks' file column is %d", got, want)
		}
	})
}
