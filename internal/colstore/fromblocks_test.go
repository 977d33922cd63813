package colstore

import (
	"bytes"
	"context"
	"reflect"
	"slices"
	"testing"
	"time"

	"vani/internal/trace"
)

// TestChunkGeometryMatchesBlockDefault pins that a default-geometry log
// chunks exactly like its in-memory trace, and so that an in-memory chunk
// is the unit the column pools recycle: the pools are sized by the default
// block, whose decoded columns a chunk adopts without copying and Release
// hands back for the next scan to reuse.
func TestChunkGeometryMatchesBlockDefault(t *testing.T) {
	if ChunkRows != trace.DefaultBlockEvents {
		t.Fatalf("ChunkRows (%d) != trace.DefaultBlockEvents (%d): in-memory chunks no longer match a default block, the unit the column pools recycle",
			ChunkRows, trace.DefaultBlockEvents)
	}
}

// tableEvents flattens a table's chunks back into events, so tests compare
// tables as data. It also checks that every column holds exactly N rows.
func tableEvents(t *testing.T, tb *Table) []trace.Event {
	t.Helper()
	evs := make([]trace.Event, 0, tb.Len())
	tb.ForEachChunk(func(c *Chunk) {
		for _, n := range []int{len(c.Level), len(c.Op), len(c.Lib), len(c.Rank), len(c.Node), len(c.App),
			len(c.File), len(c.Offset), len(c.Size), len(c.Start), len(c.End)} {
			if n != c.N {
				t.Fatalf("chunk at row %d: a column holds %d rows, want %d", len(evs), n, c.N)
			}
		}
		for j := 0; j < c.N; j++ {
			evs = append(evs, trace.Event{
				Level: trace.Level(c.Level[j]), Op: trace.Op(c.Op[j]), Lib: trace.Lib(c.Lib[j]),
				Rank: c.Rank[j], Node: c.Node[j], App: c.App[j], File: c.File[j],
				Offset: c.Offset[j], Size: c.Size[j],
				Start: time.Duration(c.Start[j]), End: time.Duration(c.End[j]),
			})
		}
	})
	if len(evs) != tb.Len() {
		t.Fatalf("chunks hold %d rows, Len() = %d", len(evs), tb.Len())
	}
	return evs
}

// assertEvents requires the table to hold exactly want, row for row.
func assertEvents(t *testing.T, want []trace.Event, tb *Table) {
	t.Helper()
	got := tableEvents(t, tb)
	if len(want) == 0 && len(got) == 0 {
		return
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("table differs from the reference events (%d vs %d rows)", len(got), len(want))
	}
}

// blockReaderFor encodes tr as a trace log and opens it through the
// seekable block reader, asserting the log has the geometry asked for.
func blockReaderFor(t *testing.T, tr *trace.Trace, opt trace.V2Options) *trace.BlockReader {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteV2With(&buf, tr, opt); err != nil {
		t.Fatal(err)
	}
	br, err := trace.NewBlockReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	be := opt.BlockEvents
	if be == 0 {
		be = trace.DefaultBlockEvents
	}
	if br.BlockEvents() != be || br.NumBlocks() != (len(tr.Events)+be-1)/be {
		t.Fatalf("log of %d events has %d blocks of %d, want blocks of %d",
			len(tr.Events), br.NumBlocks(), br.BlockEvents(), be)
	}
	return br
}

// plan runs the planned scan and asserts its table has one chunk per
// surviving block (see assertGeometry).
func plan(t *testing.T, br *trace.BlockReader, par int, spec ScanSpec, stats *ScanStats) *Table {
	t.Helper()
	tb, err := FromBlocksSpecContext(context.Background(), br, par, spec, stats)
	if err != nil {
		t.Fatalf("FromBlocksSpecContext: %v", err)
	}
	assertGeometry(t, br, spec.Filter, tb)
	return tb
}

// assertGeometry fails unless tb has one chunk per surviving block of br:
// unfiltered, exactly one chunk per block with every chunk but the last
// holding a full block; filtered, no more chunks than blocks and none
// larger than a block.
func assertGeometry(t *testing.T, br *trace.BlockReader, f trace.Filter, tb *Table) {
	t.Helper()
	be, nb, nc := br.BlockEvents(), br.NumBlocks(), tb.NumChunks()
	whole := f.Empty()
	if nc > nb || (whole && nc != nb) {
		t.Fatalf("%d chunks from %d blocks of %d events (filtered=%v)", nc, nb, be, !whole)
	}
	for k := 0; k < nc; k++ {
		n := tb.ChunkAt(k).N
		if n > be || (whole && k < nc-1 && n != be) {
			t.Fatalf("chunk %d of %d holds %d rows from blocks of %d (filtered=%v)", k, nc, n, be, !whole)
		}
	}
}

// TestFromBlocksMatchesFromEvents: decoding a default-geometry block log
// through the zero-copy parallel path yields a table positionally identical
// to transposing the in-memory events, at every parallelism.
func TestFromBlocksMatchesFromEvents(t *testing.T) {
	// >2 chunks, with a partial tail chunk.
	tr := bigTrace(2*ChunkRows+123, 42)
	want := FromEvents(tr.Events, 0)
	for _, compress := range []bool{false, true} {
		br := blockReaderFor(t, tr, trace.V2Options{Compress: compress})
		for _, par := range []int{1, 4} {
			got := plan(t, br, par, ScanSpec{}, nil)
			if got.NumChunks() != want.NumChunks() {
				t.Fatalf("chunk count %d != %d", got.NumChunks(), want.NumChunks())
			}
			assertEvents(t, tableEvents(t, want), got)
		}
	}
}

// heldRows returns the most rows any one column of tb holds storage for,
// summed over its chunks: slice capacity, not length.
func heldRows(tb *Table) int {
	var held [trace.NumCols]int
	tb.ForEachChunk(func(c *Chunk) {
		for i, n := range []int{cap(c.Level), cap(c.Op), cap(c.Lib), cap(c.Rank), cap(c.Node), cap(c.App),
			cap(c.File), cap(c.Offset), cap(c.Size), cap(c.Start), cap(c.End)} {
			held[i] += n
		}
	})
	return slices.Max(held[:])
}

// TestFromBlocksNonDefaultGeometry: a log written at any block size goes
// through the one planned scan — one chunk per surviving block, up to the
// default size (size-class arrays, exact below 64 rows) and above it (exact
// fresh slices) — and holds exactly the rows FilterEvents keeps, under every
// scan filter and parallelism. Its columns hold memory in proportion to its
// rows: at most twice the rows plus one block-capacity array, however short
// the blocks. Releasing the table hands back every pooled column it took.
func TestFromBlocksNonDefaultGeometry(t *testing.T) {
	for _, be := range []int{1, 7, 1000, ChunkRows - 1, ChunkRows + 1, 40000} {
		tr := bigTrace(max(500, 2*be+be/2+3), int64(be))
		end := tr.Events[len(tr.Events)-1].Start
		br := blockReaderFor(t, tr, trace.V2Options{BlockEvents: be})
		for fi, f := range scanTestFilters(end) {
			want := trace.FilterEvents(tr.Events, f)
			for _, par := range []int{1, 4} {
				base := trace.ColumnsInUse()
				var stats ScanStats
				got := plan(t, br, par, ScanSpec{Filter: f}, &stats)
				assertEvents(t, want, got)
				if held, bound := heldRows(got), 2*got.Len()+trace.DefaultBlockEvents; held > bound {
					t.Errorf("block=%d filter %d par %d: %d rows hold storage for %d per column, want ≤ %d",
						be, fi, par, got.Len(), held, bound)
				}
				if kept := stats.RowsKept.Load(); kept != int64(len(want)) {
					t.Errorf("block=%d filter %d par %d: RowsKept=%d, want %d", be, fi, par, kept, len(want))
				}
				got.Release()
				if inUse := trace.ColumnsInUse(); inUse != base {
					t.Fatalf("block=%d filter %d par %d: %d pooled columns never came back", be, fi, par, inUse-base)
				}
			}
		}
	}
}

// TestFromBlocksEmpty: an empty log produces an empty table, not an error.
func TestFromBlocksEmpty(t *testing.T) {
	br := blockReaderFor(t, &trace.Trace{}, trace.V2Options{})
	got := plan(t, br, 4, ScanSpec{}, nil)
	if got.Len() != 0 || got.NumChunks() != 0 {
		t.Errorf("empty log produced %d rows in %d chunks", got.Len(), got.NumChunks())
	}
}
