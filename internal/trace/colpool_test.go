package trace

import (
	"bytes"
	"math/rand"
	"slices"
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
		return // the race detector's pools drop entries at random
	}
	for _, n := range []int{64, 1000, DefaultBlockEvents} {
		recycleCol(&i64ColPools, growCol(&i64ColPools, nil, n))
		if got := testing.AllocsPerRun(50, func() {
			recycleCol(&i64ColPools, growCol(&i64ColPools, nil, n))
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
