package trace

import (
	"bytes"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"sync/atomic"
	"testing"
)

// classRows are column lengths at and beside every size-class edge, and
// outside the classes on both sides.
var classRows = []int{1, 7, 63, 64, 65, 127, 128, 129, 1000, 8191, 8192, 8193, 16383, 16384, 16385, 40000}

// TestColumnSizeClasses: a column of n rows comes from the smallest class
// that holds it — an array of less than twice its rows — or is made exactly
// when n is under 64 rows or over the default block; Recycle takes back
// exactly the pooled ones; and drawing from and handing back to a class
// allocates nothing once it holds an array.
func TestColumnSizeClasses(t *testing.T) {
	base := ColumnsInUse()
	for _, n := range classRows {
		var cols Columns
		cols.growSet(n, AllCols)
		pooled := n >= minClassRows && n <= DefaultBlockEvents
		want := n
		if pooled {
			want = minClassRows
			for want < n {
				want *= 2
			}
		}
		for _, c := range []int{cap(cols.Level), cap(cols.Rank), cap(cols.Start)} {
			if c != want {
				t.Errorf("%d rows: column array of %d, want %d", n, c, want)
			}
		}
		inUse := int64(0)
		if pooled {
			inUse = NumCols
		}
		if got := ColumnsInUse() - base; got != inUse {
			t.Errorf("%d rows: %d pooled columns out, want %d", n, got, inUse)
		}
		cols.Recycle(AllCols)
		if got := ColumnsInUse(); got != base {
			t.Errorf("%d rows: %d pooled columns never came back", n, got-base)
		}
	}
	if raceEnabled {
		return // allocation accounting is skewed under the race detector
	}
	for _, n := range []int{64, 1000, DefaultBlockEvents} {
		recycleCol(&i64Cols, growCol(&i64Cols, nil, n))
		if got := testing.AllocsPerRun(50, func() {
			recycleCol(&i64Cols, growCol(&i64Cols, nil, n))
		}); got != 0 {
			t.Errorf("%d rows: %v allocations per draw and return, want 0", n, got)
		}
	}
}

// TestColumnsKeepPoisoned: Keep cuts a decoded block to any selection — no
// row but one, a class edge's worth, just under and just over half the
// array, all but one — into columns that hold exactly the selected rows in
// arrays of less than twice them, at every block size, while every array it
// lets go is poisoned on the way back; and the block's pooled columns all
// come back once the kept ones are recycled.
func TestColumnsKeepPoisoned(t *testing.T) {
	poisonRecycled.Store(true)
	defer poisonRecycled.Store(false)
	rng := rand.New(rand.NewSource(3))
	base := ColumnsInUse()
	for _, n := range []int{1, 7, 64, 65, 200, 1000, 8193, DefaultBlockEvents, 40000} {
		data := encodeV2(t, allocTrace(n), V2Options{BlockEvents: n})
		br, err := NewBlockReader(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			t.Fatal(err)
		}
		evs, err := br.ReadTrace(Filter{})
		if err != nil {
			t.Fatal(err)
		}
		arr := n
		if k := sizeClass(n); k >= 0 {
			arr = minClassRows << k
		}
		for _, kept := range []int{1, min(n, 64), min(n, 65), arr / 2, arr/2 + 1, n - 1, n} {
			if kept < 1 || kept > n {
				continue
			}
			sel := make([]int32, 0, kept)
			for _, row := range rng.Perm(n)[:kept] {
				sel = append(sel, int32(row))
			}
			slices.Sort(sel)
			bd, err := br.ReadBlock(0)
			if err != nil {
				t.Fatal(err)
			}
			var cols Columns
			if _, _, err := bd.Decode(AllCols, &cols); err != nil {
				t.Fatal(err)
			}
			bd.Release()
			cols.Keep(sel)
			got := appendEvents(nil, &cols, nil)
			for i, row := range sel {
				if got[i] != evs.Events[row] {
					t.Fatalf("%d rows keeping %d: row %d is %+v, want block row %d %+v", n, kept, i, got[i], row, evs.Events[row])
				}
			}
			for _, c := range []int{cap(cols.Lib), cap(cols.File), cap(cols.End)} {
				if c >= 2*kept && c != kept {
					t.Errorf("%d rows keeping %d: an array of %d holds them", n, kept, c)
				}
			}
			cols.Recycle(AllCols)
			if got := ColumnsInUse(); got != base {
				t.Fatalf("%d rows keeping %d: %d pooled columns never came back", n, kept, got-base)
			}
		}
	}
}

// TestRecycledBuffersReachAnotherP: what one goroutine hands back — a column
// of each element type, a block payload and a block frame — a draw on a
// second goroutine takes again, array for array, while the first keeps its
// P busy. A recycler that holds values per P (a sync.Pool's private slot)
// fails this: the second goroutine runs on the other P, which cannot take
// them. The collector is off so that nothing ages the lists meanwhile.
func TestRecycledBuffersReachAnotherP(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const n = 1000
	type handed struct {
		u8             *uint8
		i32            *int32
		i64            *int64
		payload, frame *[]byte
	}
	put, exited := make(chan handed), make(chan struct{})
	var stop atomic.Bool
	defer func() { stop.Store(true); <-exited }()
	go func() {
		defer close(exited)
		u8, i32, i64 := growCol(&u8Cols, nil, n), growCol(&i32Cols, nil, n), growCol(&i64Cols, nil, n)
		h := handed{&u8[0], &i32[0], &i64[0], takeBuf(&payloadBufs, n), takeBuf(&frameList, n)}
		recycleCol(&u8Cols, u8)
		recycleCol(&i32Cols, i32)
		recycleCol(&i64Cols, i64)
		payloadBufs.Put(h.payload)
		frameList.Put(h.frame)
		put <- h
		for !stop.Load() {
		}
	}()
	h := <-put
	u8, i32, i64 := growCol(&u8Cols, nil, n), growCol(&i32Cols, nil, n), growCol(&i64Cols, nil, n)
	payload, frame := takeBuf(&payloadBufs, n), takeBuf(&frameList, n)
	defer func() {
		recycleCol(&u8Cols, u8)
		recycleCol(&i32Cols, i32)
		recycleCol(&i64Cols, i64)
		payloadBufs.Put(payload)
		frameList.Put(frame)
	}()
	for _, c := range []struct {
		what string
		same bool
	}{
		{"uint8 column", &u8[0] == h.u8},
		{"int32 column", &i32[0] == h.i32},
		{"int64 column", &i64[0] == h.i64},
		{"block payload", payload == h.payload},
		{"block frame", frame == h.frame},
	} {
		if !c.same {
			t.Errorf("the %s handed back on another goroutine was not drawn again", c.what)
		}
	}
}
