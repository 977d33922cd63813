package colstore

// Selection-backed chunks: a filtered scan's chunks hold exactly the rows
// an in-memory filter of the decoded events keeps, decoded by the plan, so
// the unifier reads resident columns.

import (
	"errors"
	"testing"

	"vani/internal/trace"
)

// TestMultiDimFilteredRowIdentity: a multi-dimension filter over RLE
// segments yields the rows trace.FilterEvents keeps, in order — whether it
// cuts blocks to a selection (partial) or passes every row, in which case
// the chunks adopt whole blocks' columns with no selection and the unifier
// bounds their key column.
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
		base := trace.ColumnsInUse()
		tb, stats := scan(t, f)
		if kept, total := stats.RowsKept.Load(), stats.RowsTotal.Load(); kept != total {
			t.Fatalf("kept %d of %d rows, want all", kept, total)
		}
		if card, err := unifyOne(tb, 2, ColRank, 8); err != nil || card != 8 {
			t.Fatalf("UnifyCodes = (%d, %v), want (8, nil)", card, err)
		}
		assertRowIdentity(t, tb, f)
		tb.Release()
		if inUse := trace.ColumnsInUse(); inUse != base {
			t.Fatalf("%d pooled columns never came back", inUse-base)
		}
	})
}

// TestGroupFallbackOncePerChunk pins the unifier on filtered scans: over a
// structured codec as over structureless raw segments, selection-backed
// chunks hold the rows trace.FilterEvents keeps, and their unification
// bounds the key column from those resident rows, decoding nothing. A
// stored id past the caller's table is ErrBadFormat.
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
			// Chunk 0 holds file ids {-1, 0, 1}; chunk 1 reaches id 2, past a
			// two-entry table.
			if _, err := unifyOne(tb, 2, ColFile, 2); !errors.Is(err, trace.ErrBadFormat) {
				t.Fatalf("UnifyCodes past the table: err = %v, want ErrBadFormat", err)
			}
			if sc := stats.Snapshot(); sc.DecodedBytes != base.DecodedBytes || base.DecodedBytes == 0 {
				t.Errorf("the plan decoded %d bytes and the unifications %d more; want some, then 0", base.DecodedBytes, sc.DecodedBytes-base.DecodedBytes)
			}
			assertEvents(t, trace.FilterEvents(tr.Events, f), tb)
		})
	}
}
