package colstore

import (
	"errors"
	"math/rand"
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

// unifyOne unifies a single key column.
func unifyOne(tb *Table, par int, col Col, limit int) (int, error) {
	cards, err := tb.UnifyCodes(par, []Col{col}, []int{limit})
	if err != nil {
		return 0, err
	}
	return cards[0], nil
}

// TestCodeUnifierAcrossBlockDictionaries: the unifier resolves the file
// column's cardinality across blocks with disjoint and overlapping
// dictionaries, over every codec, from the columns the plan decoded: it
// decodes nothing itself.
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
		tb := plan(t, br, 2, ScanSpec{}, &stats)
		card, err := unifyOne(tb, 2, ColFile, len(tr.Files))
		if err != nil {
			t.Fatalf("%s UnifyCodes: %v", cname, err)
		}
		if card != 4 {
			t.Errorf("%s: card = %d, want 4", cname, card)
		}
		var planned ScanStats
		plan(t, br, 2, ScanSpec{}, &planned)
		if got, want := stats.DecodedBytes.Load(), planned.DecodedBytes.Load(); got != want || want == 0 {
			t.Errorf("%s: plan and unifier decoded %d bytes, the plan alone %d", cname, got, want)
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
		tb := plan(t, br, 1, ScanSpec{}, nil)
		if _, err := unifyOne(tb, 1, ColFile, 2); !errors.Is(err, trace.ErrBadFormat) {
			t.Fatalf("codec %v: UnifyCodes past a 2-entry table: err = %v, want ErrBadFormat", codec, err)
		}
		if card, err := unifyOne(tb, 1, ColFile, 4); err != nil || card != 4 {
			t.Fatalf("codec %v: UnifyCodes within the table = (%d, %v), want (4, nil)", codec, card, err)
		}
	}
}

// runsTrace builds a trace whose key columns arrive in long runs — each
// rank issues 997 calls in a row, and Start order keeps them together — so
// the v2.2 cost model picks RLE for them.
func runsTrace(n int) *trace.Trace {
	rng := rand.New(rand.NewSource(7))
	tr := trace.NewTracer()
	app := tr.AppID("app")
	files := []int32{tr.FileID("/a"), tr.FileID("/b")}
	var clock time.Duration
	for i := 0; i < n; i++ {
		clock += time.Duration(rng.Intn(100)+1) * time.Nanosecond
		tr.Record(trace.Event{
			Level: trace.LevelPosix, Op: trace.OpWrite,
			Rank: int32(i / 997 % 32), Node: int32(i / 997 % 32 / 4),
			App: app, File: files[i/(n/2+1)],
			Size: int64(rng.Intn(1 << 10)), Start: clock,
			End: clock + time.Duration(rng.Intn(50)+1)*time.Nanosecond,
		})
	}
	return tr.Finish()
}

// bruteCard is the reference cardinality: one past the largest value the
// events hold in the key, by plain row iteration.
func bruteCard(evs []trace.Event, key func(*trace.Event) int32) int {
	max := int32(-1)
	for i := range evs {
		if v := key(&evs[i]); v > max {
			max = v
		}
	}
	return int(max) + 1
}

// TestRunKernelsMatchRowIteration: the unifier's cardinality over RLE
// runs (auto codecs) and structureless raw segments is exactly the
// row-iteration answer, at every parallelism, decoding the column either
// way.
func TestRunKernelsMatchRowIteration(t *testing.T) {
	tr := runsTrace(2*ChunkRows + 500)
	wantCard := bruteCard(tr.Events, func(e *trace.Event) int32 { return e.Rank })

	for _, codec := range []trace.CodecMode{trace.CodecAuto, trace.CodecForceRaw} {
		br := blockReaderFor(t, tr, trace.V2Options{Codec: codec})
		for _, par := range []int{1, 4} {
			var stats ScanStats
			tb := plan(t, br, par, ScanSpec{}, &stats)
			card, err := unifyOne(tb, par, ColRank, 1<<10)
			if err != nil {
				t.Fatal(err)
			}
			if card != wantCard {
				t.Fatalf("codec=%v par=%d: UnifyCodes card = %d, want %d", codec, par, card, wantCard)
			}
			if decoded := stats.DecodedBytes.Load(); decoded == 0 {
				t.Fatalf("codec=%v par=%d: the plan decoded %d bytes", codec, par, decoded)
			}
		}
	}
}

// TestRunKernelsOtherKeyCols: the unifier agrees with row iteration for
// every groupable key column, not just rank.
func TestRunKernelsOtherKeyCols(t *testing.T) {
	tr := runsTrace(ChunkRows + 300)
	br := blockReaderFor(t, tr, trace.V2Options{Codec: trace.CodecAuto})
	tb := plan(t, br, 2, ScanSpec{}, nil)
	keys := map[Col]func(*trace.Event) int32{
		ColNode: func(e *trace.Event) int32 { return e.Node },
		ColApp:  func(e *trace.Event) int32 { return e.App },
		ColFile: func(e *trace.Event) int32 { return e.File },
	}
	for col, key := range keys {
		card, err := unifyOne(tb, 2, col, 1<<10)
		if err != nil {
			t.Fatal(err)
		}
		if wantCard := bruteCard(tr.Events, key); card != wantCard {
			t.Fatalf("col=%d: UnifyCodes card = %d, want %d", col, card, wantCard)
		}
	}
}
