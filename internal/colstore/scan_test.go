package colstore

import (
	"context"
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

// TestFromBlocksSpecMatchesFilterEvents is the pushdown equivalence
// contract at the table layer: for every filter, block layout, and
// parallelism, the planned scan's table holds exactly the rows FilterEvents
// keeps from the full decode, in order.
func TestFromBlocksSpecMatchesFilterEvents(t *testing.T) {
	tr := bigTrace(2*ChunkRows+123, 42)
	end := tr.Events[len(tr.Events)-1].Start
	layouts := []struct {
		name string
		opt  trace.V2Options
	}{
		{"columnar", trace.V2Options{}},
		{"columnar-flate", trace.V2Options{Compress: true}},
		{"small-blocks", trace.V2Options{BlockEvents: 1000}},
	}
	for _, layout := range layouts {
		br := blockReaderFor(t, tr, layout.opt)
		for fi, f := range scanTestFilters(end) {
			want := trace.FilterEvents(tr.Events, f)
			for _, par := range []int{1, 4} {
				var stats ScanStats
				got := plan(t, br, par, ScanSpec{Filter: f}, &stats)
				assertEvents(t, want, got)
				s := stats.Snapshot()
				if s.RowsKept != int64(len(want)) {
					t.Errorf("%s filter %d: RowsKept=%d, want %d", layout.name, fi, s.RowsKept, len(want))
				}
				if s.BlocksPruned > s.BlocksTotal || s.DecodedBytes > s.PayloadBytes {
					t.Errorf("%s filter %d: inconsistent counters %+v", layout.name, fi, s)
				}
			}
		}
	}
}

// TestFromBlocksSpecLazyProjection: with no filter and no requested
// columns, the plan decodes nothing up front; each Require materializes
// exactly the asked-for columns, and the decoded-bytes counter grows
// monotonically toward (but never past) the payload size.
func TestFromBlocksSpecLazyProjection(t *testing.T) {
	tr := bigTrace(ChunkRows+500, 7)
	br := blockReaderFor(t, tr, trace.V2Options{})
	var stats ScanStats
	got := plan(t, br, 4, ScanSpec{}, &stats)
	if n := stats.DecodedBytes.Load(); n != 0 {
		t.Errorf("unfiltered plan decoded %d bytes up front", n)
	}
	if got.Len() != len(tr.Events) {
		t.Fatalf("lazy table holds %d rows, want %d", got.Len(), len(tr.Events))
	}
	// One column: values match without touching the other ten.
	for _, ck := range got.chunks {
		if err := ck.Require(trace.ColStart); err != nil {
			t.Fatal(err)
		}
	}
	afterStart := stats.DecodedBytes.Load()
	if afterStart <= 0 || afterStart >= stats.PayloadBytes.Load() {
		t.Errorf("Start column decode counted %d of %d payload bytes",
			afterStart, stats.PayloadBytes.Load())
	}
	row := 0
	got.ForEachChunk(func(c *Chunk) {
		for _, s := range c.Start {
			if want := tr.Events[row].Start; time.Duration(s) != want {
				t.Fatalf("row %d: lazy Start %v, want %v", row, time.Duration(s), want)
			}
			row++
		}
	})
	// Re-Requiring a held column is free.
	for _, ck := range got.chunks {
		if err := ck.Require(trace.ColStart); err != nil {
			t.Fatal(err)
		}
	}
	if n := stats.DecodedBytes.Load(); n != afterStart {
		t.Errorf("re-Require decoded %d more bytes", n-afterStart)
	}
	if err := got.MaterializeContext(context.Background(), 4, trace.AllCols); err != nil {
		t.Fatal(err)
	}
	if n := stats.DecodedBytes.Load(); n > stats.PayloadBytes.Load() {
		t.Errorf("decoded %d bytes exceeds payload %d", n, stats.PayloadBytes.Load())
	}
	assertEvents(t, tr.Events, got)
}

// TestFromBlocksSpecCols: a plan that declares its column set up front gets
// those columns materialized eagerly and the rest stays lazy.
func TestFromBlocksSpecCols(t *testing.T) {
	tr := bigTrace(ChunkRows/2, 3)
	br := blockReaderFor(t, tr, trace.V2Options{})
	var stats ScanStats
	got := plan(t, br, 1, ScanSpec{Cols: trace.ColSize | trace.ColOp}, &stats)
	if stats.DecodedBytes.Load() == 0 {
		t.Error("declared columns not decoded up front")
	}
	row := 0
	got.ForEachChunk(func(c *Chunk) {
		if len(c.Size) != c.N || len(c.Op) != c.N || c.Start != nil {
			t.Fatalf("chunk at row %d: declared columns not resident or an undeclared one is", row)
		}
		for j := 0; j < c.N; j, row = j+1, row+1 {
			if ev := tr.Events[row]; c.Size[j] != ev.Size || trace.Op(c.Op[j]) != ev.Op {
				t.Fatalf("row %d: declared columns diverge", row)
			}
		}
	})
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
// log skips whole blocks, drops filtered-out chunks, and decodes only the
// residual filter's columns from the survivors.
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
	if s.DecodedBytes >= s.PayloadBytes {
		t.Errorf("residual filter decoded %d of %d payload bytes: projection not engaged",
			s.DecodedBytes, s.PayloadBytes)
	}
	assertEvents(t, trace.FilterEvents(tr.Events, f), got)

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
