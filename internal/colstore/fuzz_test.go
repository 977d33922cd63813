package colstore

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"time"
	_ "unsafe" // for go:linkname

	"vani/internal/trace"
)

// tracePoison is trace's unexported poisonRecycled switch: while it is on,
// every column slice and block payload handed back to its pool is
// overwritten with a sentinel.
//
//go:linkname tracePoison vani/internal/trace.poisonRecycled
var tracePoison atomic.Bool

// fuzzGeometries are the block sizes FuzzFilteredScan writes: under, at and
// over the smallest size class, between classes, beside and at the default
// block, and over it.
var fuzzGeometries = []int{1, 7, 63, 64, 65, 1000, 8191, 8193, 16384, 40000}

// fuzzCodecs are the writer's codec policies FuzzFilteredScan takes, each
// plain and flate-compressed.
var fuzzCodecs = []trace.CodecMode{trace.CodecAuto, trace.CodecForceRaw, trace.CodecForceRLE, trace.CodecForceDict, trace.CodecForceFOR}

// fuzzStep is the start-time step of fuzzTrace's rows.
const fuzzStep = 10

// fuzzTrace builds n rows whose rank is the row's position in its block of
// be (so ranks [0, k) keep exactly the first k rows of every block it
// reads) and whose start is fuzzStep ns after the last one's (so a window
// cuts at any row, or between two). Levels, ops, files and sizes are drawn
// from seed.
func fuzzTrace(n, be int, seed int64) *trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	tr := trace.NewTracer()
	app := tr.AppID("app")
	files := []int32{-1, tr.FileID("/a"), tr.FileID("/b")}
	levels := []trace.Level{trace.LevelApp, trace.LevelMiddleware, trace.LevelPosix, trace.LevelCompute}
	ops := []trace.Op{trace.OpRead, trace.OpWrite, trace.OpOpen, trace.OpClose, trace.OpStat}
	for i := 0; i < n; i++ {
		start := time.Duration(fuzzStep * (i + 1))
		rank := int32(i % be)
		tr.Record(trace.Event{
			Level: levels[rng.Intn(len(levels))], Op: ops[rng.Intn(len(ops))],
			Rank: rank, Node: rank / 4, App: app, File: files[rng.Intn(len(files))],
			Offset: int64(rng.Intn(64)) << 12, Size: int64(rng.Intn(3)) << 12,
			Start: start, End: start + time.Duration(rng.Intn(3*fuzzStep)),
		})
	}
	return tr.Finish()
}

// FuzzFilteredScan holds the planned scan to trace.FilterEvents over every
// block geometry, codec and parallelism, under a window, a rank prefix,
// levels and an op class, with recycled columns and payloads poisoned: the
// table holds exactly the rows FilterEvents keeps, at most twice as many
// rows of storage plus one block array, and releasing it hands back every
// pooled column it took. keep names the rank prefix [0, keep-1) (0: no rank
// filter), and since a row's rank is its place in its block, the seeds keep
// no row of a block read (a window between two rows), one row, a class
// edge's worth, just over half a size class and all of it.
func FuzzFilteredScan(f *testing.F) {
	// geom indexes fuzzGeometries, codec fuzzCodecs (and past them,
	// compressed), par is 1 to 3; from and to are window bounds in ns
	// (0: open).
	f.Add(uint8(5), uint8(0), uint8(0), int64(1), uint32(0), uint32(0), uint16(0), uint8(0), uint8(0))         // whole blocks
	f.Add(uint8(5), uint8(1), uint8(1), int64(2), uint32(15005), uint32(15009), uint16(0), uint8(0), uint8(0)) // a block read, no row kept
	f.Add(uint8(5), uint8(2), uint8(2), int64(3), uint32(0), uint32(0), uint16(2), uint8(0), uint8(0))         // one row a block
	f.Add(uint8(6), uint8(3), uint8(0), int64(4), uint32(0), uint32(0), uint16(65), uint8(0), uint8(0))        // a class edge's worth
	f.Add(uint8(6), uint8(4), uint8(1), int64(5), uint32(0), uint32(0), uint16(66), uint8(0), uint8(0))        // one over it
	f.Add(uint8(5), uint8(5), uint8(2), int64(6), uint32(0), uint32(0), uint16(514), uint8(0), uint8(0))       // just over half a class
	f.Add(uint8(8), uint8(6), uint8(0), int64(7), uint32(0), uint32(0), uint16(8194), uint8(0), uint8(0))      // just over half the default block
	f.Add(uint8(9), uint8(7), uint8(1), int64(8), uint32(0), uint32(0), uint16(20002), uint8(0), uint8(0))     // just over half an oversized block
	f.Add(uint8(3), uint8(8), uint8(2), int64(9), uint32(0), uint32(0), uint16(65), uint8(0), uint8(0))        // all of a 64-row block
	f.Add(uint8(1), uint8(9), uint8(0), int64(10), uint32(300), uint32(900), uint16(4), uint8(0b0101), uint8(1))
	f.Add(uint8(4), uint8(0), uint8(1), int64(11), uint32(500), uint32(0), uint16(30), uint8(0b0110), uint8(3))
	f.Add(uint8(0), uint8(3), uint8(2), int64(12), uint32(0), uint32(1200), uint16(0), uint8(0b1000), uint8(2))
	f.Fuzz(func(t *testing.T, geom, codec, par uint8, seed int64, from, to uint32, keep uint16, levels, ops uint8) {
		be := fuzzGeometries[int(geom)%len(fuzzGeometries)]
		tr := fuzzTrace(max(200, 2*be+be/2+3), be, seed)
		opt := trace.V2Options{BlockEvents: be, Codec: fuzzCodecs[int(codec)%len(fuzzCodecs)], Compress: int(codec)/len(fuzzCodecs)%2 == 1}
		filter := trace.Filter{From: time.Duration(from), To: time.Duration(to), Ops: trace.OpClass(ops % 4)}
		for r := int32(0); r+1 < int32(keep); r++ {
			filter.Ranks = append(filter.Ranks, r)
		}
		if keep == 1 {
			filter.Ranks = []int32{int32(be)} // a rank no row holds
		}
		for lv := trace.Level(0); lv < 4; lv++ {
			if levels&(1<<lv) != 0 {
				filter.Levels = append(filter.Levels, lv)
			}
		}
		br := blockReaderFor(t, tr, opt)
		tracePoison.Store(true)
		defer tracePoison.Store(false)
		base := trace.ColumnsInUse()
		want := trace.FilterEvents(tr.Events, filter)
		got := plan(t, br, 1+int(par)%3, ScanSpec{Filter: filter}, nil)
		assertEvents(t, want, got)
		if held, bound := heldRows(got), 2*got.Len()+trace.DefaultBlockEvents; held > bound {
			t.Errorf("blocks of %d, %+v: %d rows hold storage for %d per column, want ≤ %d", be, filter, got.Len(), held, bound)
		}
		got.Release()
		if inUse := trace.ColumnsInUse(); inUse != base {
			t.Errorf("blocks of %d, %+v: %d pooled columns never came back", be, filter, inUse-base)
		}
	})
}
