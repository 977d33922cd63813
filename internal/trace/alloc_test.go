package trace

import (
	"bytes"
	"errors"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
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
			if _, err := br.DecodeEvents(0, evs); err == nil {
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
		if _, err := br.DecodeEvents(0, evs); err == nil {
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
	if _, err := fileBacked.Decode(want, &ref); err != nil {
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
	if n, err := memo.Decode(want, &fill); err != nil || n == 0 {
		t.Fatalf("memo fill = (%d, %v), want every segment decoded", n, err)
	}
	check(&fill)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var cols Columns
			if n, err := memo.Decode(want, &cols); err != nil || n != 0 {
				t.Errorf("memo hit = (%d, %v), want (0, nil)", n, err)
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
		if _, err := memo.Decode(want, &cols); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	wanted := uint64(ref.N) * (1 + 8) // one uint8 and one int64 per row
	if per := (after.TotalAlloc - before.TotalAlloc) / iters; per > wanted*11/10 {
		t.Errorf("memo hit for Op|Size allocates %d bytes, the two columns are %d", per, wanted)
	}
}
