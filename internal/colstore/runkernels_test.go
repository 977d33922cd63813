package colstore

import (
	"math/rand"
	"testing"
	"time"

	"vani/internal/trace"
)

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

// TestRunKernelsMatchRowIteration: what the unifier reads from RLE run
// headers is exactly the row-iteration answer, with run structure (auto
// codecs, nothing decoded) and without (forced raw segments, where the
// unifier materializes the column), at every parallelism.
func TestRunKernelsMatchRowIteration(t *testing.T) {
	tr := runsTrace(2*ChunkRows + 500)
	wantCard := bruteCard(tr.Events, func(e *trace.Event) int32 { return e.Rank })

	for _, codec := range []trace.CodecMode{trace.CodecAuto, trace.CodecForceRaw} {
		br := blockReaderFor(t, tr, trace.V2Options{Codec: codec})
		for _, par := range []int{1, 4} {
			var stats ScanStats
			tb := plan(t, br, par, ScanSpec{}, &stats)
			card, err := tb.UnifyCodes(par, ColRank, 1<<10)
			if err != nil {
				t.Fatal(err)
			}
			if card != wantCard {
				t.Fatalf("codec=%v par=%d: UnifyCodes card = %d, want %d", codec, par, card, wantCard)
			}
			if decoded := stats.DecodedBytes.Load(); (decoded == 0) != (codec == trace.CodecAuto) {
				t.Fatalf("codec=%v par=%d: unifier decoded %d bytes", codec, par, decoded)
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
		card, err := tb.UnifyCodes(2, col, 1<<10)
		if err != nil {
			t.Fatal(err)
		}
		if wantCard := bruteCard(tr.Events, key); card != wantCard {
			t.Fatalf("col=%d: UnifyCodes card = %d, want %d", col, card, wantCard)
		}
	}
}

// TestScanStatsCodecMix: a planned scan tallies one decoded segment per
// (block, column) into the codec-mix counters.
func TestScanStatsCodecMix(t *testing.T) {
	tr := runsTrace(2 * ChunkRows)
	br := blockReaderFor(t, tr, trace.V2Options{Codec: trace.CodecAuto})
	var stats ScanStats
	plan(t, br, 2, ScanSpec{Cols: trace.AllCols}, &stats)
	s := stats.Snapshot()
	total := s.SegRaw + s.SegRLE + s.SegDict + s.SegFOR
	if want := s.BlocksTotal * trace.NumCols; total != want {
		t.Fatalf("codec-mix total %d, want %d (blocks=%d)", total, want, s.BlocksTotal)
	}
	if s.SegRLE == 0 {
		t.Fatal("run-structured trace decoded no RLE segments")
	}
}
