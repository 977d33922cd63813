package colstore

import (
	"math/rand"
	"testing"
	"time"

	"vani/internal/trace"
)

// mixedTrace builds a run-structured trace that exercises every predicate
// dimension the compressed kernels serve: ranks, levels and ops all arrive
// in runs (so the cost model picks RLE or dict for them), with sizes and
// offsets varied enough that the value columns stay interesting.
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

// TestKernelRegistryCaps pins which codecs the predicate kernels evaluate
// over: RLE and dict, whose structure they dispatch on directly; FOR and
// raw serve nothing.
func TestKernelRegistryCaps(t *testing.T) {
	for codec, want := range map[uint8]bool{
		trace.SegCodecRLE: true, trace.SegCodecDict: true,
		trace.SegCodecFOR: false, trace.SegCodecRaw: false,
	} {
		if got := servesPredicate(codec); got != want {
			t.Errorf("servesPredicate(codec %d) = %v, want %v", codec, got, want)
		}
	}
}

// TestCompressedPredicateMatchesFallback: a filtered planned scan with the
// predicate kernel engaged produces a table row-identical to the same scan
// over the forced-raw encoding of the same trace — whose structureless
// segments leave every dimension residual, tested on decoded rows — across
// codecs and filter shapes, including filters a served dimension passes
// for every row (one passing run) and filters that leave residual
// dimensions (the time window).
func TestCompressedPredicateMatchesFallback(t *testing.T) {
	tr := mixedTrace(2*ChunkRows + 901)
	end := time.Duration(tr.Events[len(tr.Events)-1].Start)
	filters := map[string]trace.Filter{
		"ranks":     {Ranks: []int32{1, 3, 5, 7}},
		"not-zero":  {Ranks: []int32{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}},
		"all-ranks": {Ranks: []int32{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}},
		"levels":    {Levels: []trace.Level{trace.LevelPosix}},
		"ops":       {Ops: trace.OpClassData},
		"combined":  {From: end / 8, To: 3 * end / 4, Ranks: []int32{0, 2, 4, 6}, Ops: trace.OpClassIO},
	}
	codecs := map[string]trace.CodecMode{
		"auto": trace.CodecAuto,
		"rle":  trace.CodecForceRLE,
		"dict": trace.CodecForceDict,
	}
	raw := blockReaderFor(t, tr, trace.V2Options{Codec: trace.CodecForceRaw})
	for fname, f := range filters {
		var rawStats ScanStats
		want := tableEvents(t, plan(t, raw, 2, ScanSpec{Cols: trace.AllCols, Filter: f}, &rawStats))
		if served := rawStats.KernelServed[KPredicate].Load(); served != 0 {
			t.Fatalf("raw/%s: predicate kernel claims %d served blocks on structureless segments",
				fname, served)
		}
		for cname, codec := range codecs {
			br := blockReaderFor(t, tr, trace.V2Options{Codec: codec})
			var stats ScanStats
			assertEvents(t, want, plan(t, br, 2, ScanSpec{Cols: trace.AllCols, Filter: f}, &stats))
			served := stats.KernelServed[KPredicate].Load()
			if (cname == "rle" || cname == "dict") && served == 0 {
				t.Errorf("%s/%s: predicate kernel served no blocks on a forced %s log",
					cname, fname, cname)
			}
		}
	}
}

// TestScanCountersKernelSplit: the snapshot's aggregate served/fallback
// totals equal the per-op sums, and the same filtered scan over the
// forced-raw encoding moves every predicate request to the fallback side.
func TestScanCountersKernelSplit(t *testing.T) {
	tr := mixedTrace(ChunkRows + 100)
	f := trace.Filter{Ranks: []int32{0, 1, 2}}

	var on ScanStats
	br := blockReaderFor(t, tr, trace.V2Options{Codec: trace.CodecForceDict})
	plan(t, br, 2, ScanSpec{Filter: f}, &on)
	s := on.Snapshot()
	var served, fallback int64
	for op := KernelOp(0); op < NumKernelOps; op++ {
		served += s.KernelServed[op]
		fallback += s.KernelFallback[op]
	}
	if s.KernelsServed != served || s.KernelsFallback != fallback {
		t.Fatalf("snapshot totals (%d,%d) != per-op sums (%d,%d)",
			s.KernelsServed, s.KernelsFallback, served, fallback)
	}
	if s.KernelServed[KPredicate] == 0 {
		t.Fatal("dict log served no predicate kernels")
	}

	var off ScanStats
	raw := blockReaderFor(t, tr, trace.V2Options{Codec: trace.CodecForceRaw})
	plan(t, raw, 2, ScanSpec{Filter: f}, &off)
	so := off.Snapshot()
	if so.KernelsServed != 0 {
		t.Fatalf("raw segments but %d requests served", so.KernelsServed)
	}
	if so.KernelFallback[KPredicate] == 0 {
		t.Fatal("raw segments but no predicate fallback recorded")
	}
}
