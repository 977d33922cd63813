package colstore

// Selection-backed chunks: a filtered scan's chunks hold exactly the rows
// an in-memory filter of the decoded events keeps, and the unifier decodes
// each chunk's key column once.

import (
	"context"
	"errors"
	"testing"

	"vani/internal/trace"
)

// TestMultiDimFilteredRowIdentity: a multi-dimension filter over RLE
// segments yields the rows trace.FilterEvents keeps, in order — whether it
// cuts blocks to a selection (partial) or passes every row, in which case
// the chunks stay whole blocks with no selection and the unifier bounds
// their key column.
func TestMultiDimFilteredRowIdentity(t *testing.T) {
	tr := groupTrace(3)
	scan := func(t *testing.T, f trace.Filter) (*Table, *ScanStats) {
		br := blockReaderFor(t, tr, trace.V2Options{Codec: trace.CodecForceRLE})
		stats := &ScanStats{}
		return plan(t, br, 2, ScanSpec{Filter: f}, stats), stats
	}
	assertRowIdentity := func(t *testing.T, tb *Table, f trace.Filter) {
		assertEvents(t, trace.FilterEvents(tr.Events, f), tb)
	}
	t.Run("partial", func(t *testing.T) {
		f := trace.Filter{Ranks: []int32{1, 3, 5}, Ops: trace.OpClassData}
		tb, stats := scan(t, f)
		if kept, total := stats.RowsKept.Load(), stats.RowsTotal.Load(); kept == 0 || kept == total {
			t.Fatalf("kept %d of %d rows, want a proper subset", kept, total)
		}
		assertRowIdentity(t, tb, f)
	})
	t.Run("whole-pass", func(t *testing.T) {
		f := trace.Filter{
			Ranks:  []int32{0, 1, 2, 3, 4, 5, 6, 7},
			Levels: []trace.Level{trace.LevelPosix, trace.LevelApp},
		}
		tb, stats := scan(t, f)
		if kept, total := stats.RowsKept.Load(), stats.RowsTotal.Load(); kept != total {
			t.Fatalf("kept %d of %d rows, want all", kept, total)
		}
		tb.ForEachChunk(func(c *Chunk) {
			if c.lazy == nil || c.lazy.sel != nil {
				t.Fatal("a whole-pass block was kept through a selection")
			}
		})
		if card, err := unifyOne(tb, 2, ColRank, 8); err != nil || card != 8 {
			t.Fatalf("UnifyCodes = (%d, %v), want (8, nil)", card, err)
		}
		assertRowIdentity(t, tb, f)
	})
}

// TestGroupFallbackOncePerChunk pins the unifier's decode on filtered
// scans: over a structured codec as over structureless raw segments, a
// unification of selection-backed chunks decodes exactly each chunk's key
// column, once: the bytes the analyzer's passes would have decoded anyway.
// A stored id past the caller's table is ErrBadFormat, and decodes nothing
// more.
func TestGroupFallbackOncePerChunk(t *testing.T) {
	tr := groupTrace(3)
	f := trace.Filter{Ranks: []int32{1, 3, 5}}
	for name, codec := range map[string]trace.CodecMode{
		"rle": trace.CodecForceRLE,
		"raw": trace.CodecForceRaw,
	} {
		t.Run(name, func(t *testing.T) {
			br := blockReaderFor(t, tr, trace.V2Options{Codec: codec})
			var stats ScanStats
			tb := plan(t, br, 2, ScanSpec{Filter: f}, &stats)
			base := stats.Snapshot()
			card, err := unifyOne(tb, 2, ColFile, len(tr.Files))
			if err != nil || card != 4 {
				t.Fatalf("UnifyCodes on selection-backed chunks = (%d, %v), want (4, nil)", card, err)
			}
			sc := stats.Snapshot()
			var rowStats ScanStats
			rowTb := plan(t, br, 2, ScanSpec{Filter: f}, &rowStats)
			rowBase := rowStats.DecodedBytes.Load()
			if err := rowTb.MaterializeContext(context.Background(), 2, trace.ColFile); err != nil {
				t.Fatal(err)
			}
			want := rowStats.DecodedBytes.Load() - rowBase
			if got := sc.DecodedBytes - base.DecodedBytes; got != want || want == 0 {
				t.Errorf("unifier decoded %d bytes, the chunks' file column is %d", got, want)
			}
			// Chunk 0 holds file ids {-1, 0, 1}; chunk 1 reaches id 2, past a
			// two-entry table. The column is resident: nothing decodes again.
			if _, err := unifyOne(tb, 2, ColFile, 2); !errors.Is(err, trace.ErrBadFormat) {
				t.Fatalf("UnifyCodes past the table: err = %v, want ErrBadFormat", err)
			}
			if again := stats.Snapshot(); again.DecodedBytes != sc.DecodedBytes {
				t.Errorf("second unification decoded %d more bytes, want 0", again.DecodedBytes-sc.DecodedBytes)
			}
		})
	}
}
