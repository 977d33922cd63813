package trace

import (
	"bytes"
	"errors"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// allocTrace builds a trace big enough that one block's frame is hundreds of
// kilobytes — a leaked frame buffer per failed decode shows up unmistakably
// in the heap numbers.
func allocTrace(n int) *Trace {
	tr := NewTracer()
	tr.SetMeta(Meta{Workload: "alloc", Nodes: 2, Ranks: 8, PFSDir: "/p"})
	id := tr.FileID("/p/f")
	for i := 0; i < n; i++ {
		tr.Record(Event{
			Level: LevelPosix, Op: OpWrite, Rank: int32(i % 8), File: id,
			Offset: int64(i) * 4096, Size: int64(i%977) * 7,
			Start: time.Duration(i + 1), End: time.Duration(i + 2),
		})
	}
	return tr.Finish()
}

// TestDecodeErrorReturnsPooledScratch: a decode that fails must recycle its
// pooled frame scratch — steady-state heap growth across repeated failing
// decodes stays far below one frame buffer per attempt. This pins the
// error-path pool discipline in readBlockPayload.
func TestDecodeErrorReturnsPooledScratch(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is skewed under the race detector")
	}
	for _, compress := range []bool{false, true} {
		tr := allocTrace(DefaultBlockEvents + 50)
		var buf bytes.Buffer
		if err := WriteV2With(&buf, tr, V2Options{Compress: compress}); err != nil {
			t.Fatal(err)
		}
		data := buf.Bytes()
		br, err := NewBlockReader(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			t.Fatal(err)
		}
		// Corrupt block 0's frame codec byte so unwrapFrame rejects it on
		// every read — the earliest error path, before any payload escapes.
		bi := br.BlockAt(0)
		data[bi.Offset] = 0xEE
		frameLen := bi.Len

		var evs []Event
		fail := func() {
			if _, err := br.appendBlock(evs, 0, nil); err == nil {
				t.Fatal("corrupt frame decoded cleanly")
			} else if !errors.Is(err, ErrBadFormat) {
				t.Fatalf("decode error %v does not wrap ErrBadFormat", err)
			}
		}
		fail() // warm the pools
		const iters = 100
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < iters; i++ {
			fail()
		}
		runtime.ReadMemStats(&after)
		grown := int64(after.TotalAlloc - before.TotalAlloc)
		// A leak allocates one frame buffer per attempt; recycled scratch
		// leaves only error values behind. Allow generous slack for those.
		if limit := frameLen*iters/10 + 64*1024; grown > limit {
			t.Errorf("compress=%v: %d failing decodes allocated %d bytes (frame is %d); pooled scratch is leaking",
				compress, iters, grown, frameLen)
		}
	}
}

// TestDecodeErrorAllocsPerOp bounds the allocation count of a failing
// decode: with scratch recycled, only the error chain allocates.
func TestDecodeErrorAllocsPerOp(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is skewed under the race detector")
	}
	tr := allocTrace(2000)
	var buf bytes.Buffer
	if err := WriteV2With(&buf, tr, V2Options{}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	br, err := NewBlockReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	data[br.BlockAt(0).Offset] = 0xEE
	var evs []Event
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := br.appendBlock(evs, 0, nil); err == nil {
			t.Fatal("corrupt frame decoded cleanly")
		}
	})
	if allocs > 16 {
		t.Errorf("failing decode allocates %.1f objects/op, want <= 16", allocs)
	}
}

// TestMemoDecodeHonoursWant: a memoized block — the handle vanid's block
// cache shares across jobs — answers Decode(want) as a file-backed block
// does: the wanted columns, equal in value, and nothing else. The fill
// decodes every column once; no call, the fill included, hands the caller
// more than it asked for, so a one-column Require against a cached block
// copies one column, not eleven.
func TestMemoDecodeHonoursWant(t *testing.T) {
	data := encodeV2(t, allocTrace(DefaultBlockEvents), V2Options{})
	br, err := NewBlockReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	const want = ColOp | ColSize
	fileBacked, err := br.ReadBlock(0)
	if err != nil {
		t.Fatal(err)
	}
	var ref Columns
	if _, _, err := fileBacked.Decode(want, &ref); err != nil {
		t.Fatal(err)
	}
	memo, err := br.ReadBlock(0)
	if err != nil {
		t.Fatal(err)
	}
	memo.EnableMemo()
	check := func(cols *Columns) {
		if cols.N != ref.N || !bytes.Equal(cols.Op, ref.Op) || !slices.Equal(cols.Size, ref.Size) {
			t.Error("memoized Op/Size differ from the file-backed decode")
		}
		if cols.Level != nil || cols.Lib != nil || cols.Rank != nil || cols.Node != nil ||
			cols.App != nil || cols.File != nil || cols.Offset != nil || cols.Start != nil || cols.End != nil {
			t.Error("memoized Decode(Op|Size) filled columns outside want")
		}
	}
	var fill Columns
	if set, n, err := memo.Decode(want, &fill); err != nil || n == 0 || set != AllCols {
		t.Fatalf("memo fill = (%b, %d, %v), want every segment decoded", set, n, err)
	}
	check(&fill)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var cols Columns
			if set, n, err := memo.Decode(want, &cols); err != nil || n != 0 || set != 0 {
				t.Errorf("memo hit = (%b, %d, %v), want (0, 0, nil)", set, n, err)
				return
			}
			check(&cols)
		}()
	}
	wg.Wait()
	if raceEnabled {
		return // allocation accounting is skewed under the race detector
	}
	const iters = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < iters; i++ {
		var cols Columns
		if _, _, err := memo.Decode(want, &cols); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	wanted := uint64(ref.N) * (1 + 8) // one uint8 and one int64 per row
	if per := (after.TotalAlloc - before.TotalAlloc) / iters; per > wanted*11/10 {
		t.Errorf("memo hit for Op|Size allocates %d bytes, the two columns are %d", per, wanted)
	}
}

// TestWholeLogReadAllocBudget: a whole-log read allocates the events it
// returns and little else. Each block's rows append straight into the
// result, and its decoded columns and payload buffer go back to their pools
// before the next block is read, so a 500 k-event log of 31 blocks costs
// N × sizeof(Event) plus a fixed 2 MiB, raw frames or flate — one block's
// payload per block kept out of the pool would be about 3 MiB more. The
// collector is off while the read runs, so a pool emptied by a collection
// cannot be told apart from a buffer that was never handed back.
func TestWholeLogReadAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is skewed under the race detector")
	}
	const n = 500_000
	tr := allocTrace(n)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, compress := range []bool{false, true} {
		data := encodeV2(t, tr, V2Options{Compress: compress})
		br, err := NewBlockReader(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		got, err := br.ReadTrace(Filter{})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Events) != n {
			t.Fatalf("compress=%v: read %d events, want %d", compress, len(got.Events), n)
		}
		grown := after.TotalAlloc - before.TotalAlloc
		limit := uint64(n)*uint64(unsafe.Sizeof(Event{})) + 2<<20
		t.Logf("compress=%v: %d-byte log, %d blocks: read allocated %d bytes (%.2f B/event over the events)",
			compress, len(data), br.NumBlocks(), grown, float64(grown)/n-float64(unsafe.Sizeof(Event{})))
		if grown > limit {
			t.Errorf("compress=%v: whole-log read allocated %d bytes, budget %d", compress, grown, limit)
		}
	}
}

// TestCraftedHeaderCountsBounded: a few-byte log whose header claims 65,536
// apps, files, samples or sample values, or a workload name of 2^20 bytes,
// is refused as ErrBadFormat without preallocating for the claim — opening
// it allocates under 64 KiB.
func TestCraftedHeaderCountsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is skewed under the race detector")
	}
	meta := make([]byte, 12)          // empty strings and zero ints, as writeHeader lays them out
	claim := []byte{0x80, 0x80, 0x04} // uvarint 65,536
	cases := map[string][][]byte{
		"string":  {{0x80, 0x80, 0x40}}, // a workload name of 2^20 bytes, the longest a log may claim
		"apps":    {meta, claim},
		"files":   {meta, {0}, claim},
		"samples": {meta, {0}, {0}, claim, {0}, claim},
		"values":  {meta, {0}, {0}, {1}, {0}, claim},
	}
	for name, parts := range cases {
		log := []byte(magicV2)
		for _, p := range parts {
			log = append(log, p...)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := NewBlockReader(bytes.NewReader(log), int64(len(log)))
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrBadFormat) {
			t.Errorf("%s: %d-byte log: err = %v, want ErrBadFormat", name, len(log), err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
			t.Errorf("%s: %d-byte log allocated %d bytes opening, want < 64 KiB", name, len(log), got)
		}
	}
}
