package trace

import (
	"bytes"
	"errors"
	"runtime"
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

// TestAbandonedRunCaptureAllocsNothing: a run capture that crosses its
// density cap — the fate of a rank column in nearly every block of a
// merged log — collects in recycled scratch and allocates nothing, whole
// or cut against a selection; a served capture allocates its exact-size
// result and nothing else.
func TestAbandonedRunCaptureAllocsNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is skewed under the race detector")
	}
	const n = 4096
	dense := make([]int64, n) // a new run every row
	runny := make([]int64, n) // a new run every 64 rows
	for i := range dense {
		dense[i] = int64(i % 7)
		runny[i] = int64(i / 64 % 7)
	}
	spans := []SelSpan{{Lo: 0, N: n / 2}, {Lo: n/2 + 10, N: n/2 - 10}}
	for _, codec := range []uint8{segFOR, segDict} {
		name := segCodecNames[codec]
		cursor := func(vals []int64) *SegCursor {
			cur, err := newSegCursor(codec, appendSegBody(nil, codec, vals, false), n, false)
			if err != nil {
				t.Fatalf("%s cursor: %v", name, err)
			}
			return cur
		}
		cur := cursor(dense)
		if a := testing.AllocsPerRun(100, func() {
			if runs, ok := cur.AppendRunsMax(nil, n/4); ok || runs != nil {
				t.Fatalf("%s: dense capture served %d runs", name, len(runs))
			}
		}); a != 0 {
			t.Errorf("%s: abandoned capture allocates %.2f objects/op, want 0", name, a)
		}
		if a := testing.AllocsPerRun(100, func() {
			if runs, ok := cur.CutRunsSel(spans, nil, n/4); ok || runs != nil {
				t.Fatalf("%s: dense cut served %d runs", name, len(runs))
			}
		}); a != 0 {
			t.Errorf("%s: abandoned cut allocates %.2f objects/op, want 0", name, a)
		}
		cur.Release()

		cur = cursor(runny)
		if a := testing.AllocsPerRun(100, func() {
			runs, ok := cur.AppendRunsMax(nil, n/4)
			if !ok || len(runs) != n/64 || cap(runs) != len(runs) {
				t.Fatalf("%s: served capture ok=%v len=%d cap=%d, want %d exact", name, ok, len(runs), cap(runs), n/64)
			}
		}); a != 1 {
			t.Errorf("%s: served capture allocates %.2f objects/op, want 1", name, a)
		}
		if a := testing.AllocsPerRun(100, func() {
			runs, ok := cur.CutRunsSel(spans, nil, n/4)
			if !ok || cap(runs) != len(runs) {
				t.Fatalf("%s: served cut ok=%v len=%d cap=%d", name, ok, len(runs), cap(runs))
			}
		}); a != 1 {
			t.Errorf("%s: served cut allocates %.2f objects/op, want 1", name, a)
		}
		cur.Release()
	}
}
