package colstore

import (
	"errors"
	"testing"
	"time"

	"vani/internal/trace"
)

// groupTrace builds a multi-block trace shaped like the real analyzer
// workload: op alternates every event while the five key columns arrive in
// runs, and the per-block file dictionaries differ — blocks 0 and 1 touch
// disjoint file sets, block 2 overlaps block 1 — with a sprinkling of
// File == -1 rows.
func groupTrace(nblocks int) *trace.Trace {
	tr := trace.NewTracer()
	apps := []int32{tr.AppID("sim"), tr.AppID("post")}
	files := []int32{
		tr.FileID("/a"), tr.FileID("/b"), // block 0
		tr.FileID("/c"), tr.FileID("/d"), // block 1
	}
	blockFiles := [][]int32{
		{files[0], files[1]},
		{files[2], files[3]},
		{files[1], files[2]}, // overlaps both earlier dictionaries
	}
	ops := []trace.Op{trace.OpWrite, trace.OpRead}
	var clock time.Duration
	n := nblocks * ChunkRows
	for i := 0; i < n; i++ {
		blk := i / ChunkRows
		bf := blockFiles[blk%len(blockFiles)]
		file := bf[i/601%len(bf)]
		if i%97 == 0 {
			file = -1 // no-file rows: slot 0 of every dense accumulator
		}
		clock += time.Nanosecond
		rank := int32(i / 501 % 8)
		tr.Record(trace.Event{
			Level: trace.LevelPosix, Op: ops[i%len(ops)],
			Rank: rank, Node: rank / 4,
			App: apps[blk%len(apps)], File: file,
			Offset: int64(i) * 256, Size: int64(i%7) * 1024,
			Start: clock, End: clock + time.Nanosecond,
		})
	}
	return tr.Finish()
}

// TestCodeUnifierAcrossBlockDictionaries: the unifier resolves the file
// column's cardinality across blocks with disjoint and overlapping
// dictionaries. Dict and RLE segments answer every chunk from segment
// headers and decode nothing; forced-raw segments have no header to read
// and a FOR header does not hold the achieved range, so there the unifier —
// total — materializes exactly the file column of every chunk, the same
// bytes the analyzer's passes would decode, and still unifies.
func TestCodeUnifierAcrossBlockDictionaries(t *testing.T) {
	tr := groupTrace(3)
	codecs := map[string]trace.CodecMode{
		"auto": trace.CodecAuto,
		"dict": trace.CodecForceDict,
		"rle":  trace.CodecForceRLE,
		"for":  trace.CodecForceFOR,
		"raw":  trace.CodecForceRaw,
	}
	for cname, codec := range codecs {
		br := blockReaderFor(t, tr, trace.V2Options{Codec: codec})
		var stats ScanStats
		tb, err := FromBlocksSpec(br, 2, ScanSpec{}, &stats)
		if err != nil {
			t.Fatalf("%s scan: %v", cname, err)
		}
		card, err := tb.UnifyCodes(2, ColFile, len(tr.Files))
		if err != nil {
			t.Fatalf("%s UnifyCodes: %v", cname, err)
		}
		if card != 4 {
			t.Errorf("%s: card = %d, want 4", cname, card)
		}
		sc := stats.Snapshot()
		nchunks := int64(tb.NumChunks())
		if cname != "raw" && cname != "for" {
			if sc.KernelServed[KGroupAgg] != nchunks || sc.KernelFallback[KGroupAgg] != 0 {
				t.Errorf("%s: unifier served %d / fell back %d of %d chunks, want all served from headers",
					cname, sc.KernelServed[KGroupAgg], sc.KernelFallback[KGroupAgg], nchunks)
			}
			if sc.DecodedBytes != 0 {
				t.Errorf("%s: unifier decoded %d bytes, want 0", cname, sc.DecodedBytes)
			}
			continue
		}
		if sc.KernelServed[KGroupAgg] != 0 || sc.KernelFallback[KGroupAgg] != nchunks {
			t.Errorf("%s: unifier served %d / fell back %d of %d chunks, want all fallback",
				cname, sc.KernelServed[KGroupAgg], sc.KernelFallback[KGroupAgg], nchunks)
		}
		var rowStats ScanStats
		rowTb, err := FromBlocksSpec(br, 2, ScanSpec{}, &rowStats)
		if err != nil {
			t.Fatal(err)
		}
		if err := rowTb.Materialize(2, trace.ColFile); err != nil {
			t.Fatal(err)
		}
		if want := rowStats.DecodedBytes.Load(); sc.DecodedBytes != want || want == 0 {
			t.Errorf("%s: unifier decoded %d bytes, the file column alone is %d", cname, sc.DecodedBytes, want)
		}
		// The decode was moved, not added: the passes find the column ready.
		if err := tb.Materialize(2, trace.ColFile); err != nil {
			t.Fatal(err)
		}
		if got := stats.DecodedBytes.Load(); got != sc.DecodedBytes {
			t.Errorf("%s: re-requiring the file column decoded %d more bytes", cname, got-sc.DecodedBytes)
		}
	}
}

// TestUnifyCodesRejectsOverCap: a stored id at or above the table length
// the caller names — an event pointing past the header's interned table —
// is malformed input: an ErrBadFormat-wrapped error, never a panic and
// never a cardinality the caller would size by.
func TestUnifyCodesRejectsOverCap(t *testing.T) {
	tr := groupTrace(2) // block 1 reaches file ids 2 and 3
	for _, codec := range []trace.CodecMode{trace.CodecAuto, trace.CodecForceRaw} {
		br := blockReaderFor(t, tr, trace.V2Options{Codec: codec})
		tb, err := FromBlocksSpec(br, 1, ScanSpec{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tb.UnifyCodes(1, ColFile, 2); !errors.Is(err, trace.ErrBadFormat) {
			t.Fatalf("codec %v: UnifyCodes past a 2-entry table: err = %v, want ErrBadFormat", codec, err)
		}
		if card, err := tb.UnifyCodes(1, ColFile, 4); err != nil || card != 4 {
			t.Fatalf("codec %v: UnifyCodes within the table = (%d, %v), want (4, nil)", codec, card, err)
		}
	}
}

// TestRunIntersectionSelection: multi-dimension filters over level/op/rank
// select rows straight from intersected run summaries — row-identical to
// the same scan over the forced-raw encoding (no run structure: eligible
// blocks fall back to materialized selection), with the run-intersection
// counters ticking, and whole-pass multi-dimension filters keeping whole
// blocks without a selection vector.
func TestRunIntersectionSelection(t *testing.T) {
	tr := mixedTrace(2*ChunkRows + 901)
	filters := map[string]trace.Filter{
		"ranks-ops":        {Ranks: []int32{1, 3, 5, 7}, Ops: trace.OpClassData},
		"levels-ops":       {Levels: []trace.Level{trace.LevelPosix}, Ops: trace.OpClassMeta},
		"ranks-levels-ops": {Ranks: []int32{0, 2, 4}, Levels: []trace.Level{trace.LevelPosix, trace.LevelApp}, Ops: trace.OpClassIO},
		"whole-pass": {
			Ranks:  []int32{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15},
			Levels: []trace.Level{trace.LevelPosix, trace.LevelMiddleware, trace.LevelApp},
		},
	}
	raw := blockReaderFor(t, tr, trace.V2Options{Codec: trace.CodecForceRaw})
	for fname, f := range filters {
		var rawStats ScanStats
		want, err := FromBlocksSpec(raw, 2, ScanSpec{Cols: trace.AllCols, Filter: f}, &rawStats)
		if err != nil {
			t.Fatalf("raw %s: %v", fname, err)
		}
		if rawStats.RunIsectServed.Load() != 0 || rawStats.RunIsectFallback.Load() == 0 {
			t.Errorf("raw %s: run-intersection served %d / fell back %d blocks, want none served",
				fname, rawStats.RunIsectServed.Load(), rawStats.RunIsectFallback.Load())
		}
		for _, codec := range []trace.CodecMode{trace.CodecAuto, trace.CodecForceRLE, trace.CodecForceDict} {
			br := blockReaderFor(t, tr, trace.V2Options{Codec: codec})
			var stats ScanStats
			got, err := FromBlocksSpec(br, 2, ScanSpec{Cols: trace.AllCols, Filter: f}, &stats)
			if err != nil {
				t.Fatalf("codec %v %s: %v", codec, fname, err)
			}
			assertTablesEqual(t, want, got)
			if served := stats.RunIsectServed.Load(); served == 0 {
				t.Errorf("codec %v %s: run-intersection served no blocks", codec, fname)
			}
			if fname == "whole-pass" && stats.RowsKept.Load() != stats.RowsTotal.Load() {
				t.Errorf("%s: kept %d of %d rows, want all", fname,
					stats.RowsKept.Load(), stats.RowsTotal.Load())
			}
		}
	}
}
