package trace

// Recycled block columns. A planned scan decodes every block into eleven
// typed slices that live for one analysis (~10 ms) and die with its table;
// allocating and zeroing them was 51 B/row of garbage per characterization.
// Columns.growSet therefore takes them from per-type free lists
// (parallel.FreeList) and Columns.Recycle hands them back, on whichever
// goroutine and P the analysis ends.
//
// The lists are size classes: power-of-two arrays from minClassRows (64) to
// DefaultBlockEvents (16,384) rows, one list per class and element type. A
// column of n rows takes the smallest class that holds n, so its array is
// less than twice its rows; a column under 64 rows, or over the default
// block, is made at exactly its size and never recycled. Columns.Keep cuts
// a decoded block to a filter's kept rows on the same terms: in place when
// they fill more than half the array, else gathered into the smallest class
// that holds them. Whatever a table keeps, its columns hold memory in
// proportion to its rows, at any block geometry.
//
// The slices are not zeroed between uses. What makes that safe is the
// decoder's contract, not the list: decodeSeg writes every element of
// [0, n) of every column it is asked for or returns an error, and Decode
// recycles the requested columns itself on error, so a partly written slice
// never reaches a caller. Nothing reads a row the decoder did not write
// (poison_test.go holds the property under a sentinel).
//
// Ownership: whoever called Decode owns the slices it filled and is the
// only one who may Recycle them, at most once, after the last read. Not
// recycling is always correct — the slices are ordinary garbage. The
// long-lived block-cache memo never draws from the lists: it sizes its
// columns exactly with grow.

import (
	"math/bits"
	"sync/atomic"
	"unsafe"

	"vani/internal/parallel"
)

// minClassRows is the smallest size class; numClasses classes double from
// it up to DefaultBlockEvents.
const (
	minClassRows = 64
	numClasses   = 9
)

// The largest class is the default block: this fails to compile otherwise.
var _ [0]struct{} = [minClassRows<<(numClasses-1) - DefaultBlockEvents]struct{}{}

// colClasses holds one element type's recycled column arrays, by size
// class. An entry is a pointer to the array's first element: it goes into
// and out of a list without the allocation a slice header costs, and the
// class gives back the length.
type colClasses[T colValue] [numClasses]parallel.FreeList[T]

var (
	u8Cols  colClasses[uint8]
	i32Cols colClasses[int32]
	i64Cols colClasses[int64]
)

// sizeClass returns the class of the smallest pooled array that holds n
// rows, or -1 when n rows are made exactly (under minClassRows, or over the
// default block).
func sizeClass(n int) int {
	if n < minClassRows || n > DefaultBlockEvents {
		return -1
	}
	return bits.Len(uint(n-1)) - bits.Len(minClassRows-1)
}

// poolClass returns the class whose arrays have capacity c, or -1 when no
// pooled array has it.
func poolClass(c int) int {
	if k := sizeClass(c); k >= 0 && minClassRows<<k == c {
		return k
	}
	return -1
}

// colsInUse counts pooled slices handed out and not yet recycled.
var colsInUse atomic.Int64

// ColumnsInUse returns how many pooled column slices are currently handed
// out — drawn by a Decode and not yet recycled. A request that releases its
// table leaves the count where it found it; the leak tests assert that.
func ColumnsInUse() int64 { return colsInUse.Load() }

// poisonRecycled makes recycleCol overwrite every slice it takes back,
// BlockData.Release every payload buffer, a Tracer every log chunk it
// hands back at Finish and Trace.Release every event array; tests set it to
// prove no reader depends on what a recycled slice, payload, chunk or array
// holds.
var poisonRecycled atomic.Bool

// growCol resizes s to n rows: in place when its capacity allows, else into
// an array of n's size class, else freshly at exactly n rows. The rows are
// not zeroed.
func growCol[T colValue](classes *colClasses[T], s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	k := sizeClass(n)
	if k < 0 {
		return make([]T, n)
	}
	colsInUse.Add(1)
	if p := classes[k].Get(); p != nil {
		return unsafe.Slice(p, minClassRows<<k)[:n]
	}
	return make([]T, n, minClassRows<<k)
}

// recycleCol returns a slice growCol drew from the lists; any other slice
// (nil, or made exactly) is dropped. It returns nil, what the column that
// held s is left as.
func recycleCol[T colValue](classes *colClasses[T], s []T) []T {
	k := poolClass(cap(s))
	if k < 0 {
		return nil
	}
	s = s[:cap(s)]
	if poisonRecycled.Load() {
		poisonCol(s)
	}
	colsInUse.Add(-1)
	classes[k].Put(&s[0])
	return nil
}

// keepCol cuts s to the rows sel names: in place when they fill more than
// half its array (sel ascends, so no row is overwritten before it is read),
// else into a column of their own size class, s going back at once.
func keepCol[T colValue](classes *colClasses[T], s []T, sel []int32) []T {
	if 2*len(sel) > cap(s) {
		for i, j := range sel {
			s[i] = s[j]
		}
		return s[:len(sel)]
	}
	dst := growCol(classes, nil, len(sel))
	for i, j := range sel {
		dst[i] = s[j]
	}
	recycleCol(classes, s)
	return dst
}

// poisonCol fills s with a sentinel no real column holds end to end.
func poisonCol[T colValue](s []T) {
	sentinel := int64(0x5a5a5a5a5a5a5a5a)
	for i := range s {
		s[i] = T(sentinel)
	}
}

// Keep cuts every column of cols to the rows sel names — ascending, distinct
// rows of [0, cols.N), at least one — keeping storage in proportion to them
// (see keepCol). Every column must have been filled by Decode into cols and
// be held by no one else; the arrays Keep does not keep go back to the lists.
func (cols *Columns) Keep(sel []int32) {
	cols.N = len(sel)
	cols.Level = keepCol(&u8Cols, cols.Level, sel)
	cols.Op = keepCol(&u8Cols, cols.Op, sel)
	cols.Lib = keepCol(&u8Cols, cols.Lib, sel)
	cols.Rank = keepCol(&i32Cols, cols.Rank, sel)
	cols.Node = keepCol(&i32Cols, cols.Node, sel)
	cols.App = keepCol(&i32Cols, cols.App, sel)
	cols.File = keepCol(&i32Cols, cols.File, sel)
	cols.Offset = keepCol(&i64Cols, cols.Offset, sel)
	cols.Size = keepCol(&i64Cols, cols.Size, sel)
	cols.Start = keepCol(&i64Cols, cols.Start, sel)
	cols.End = keepCol(&i64Cols, cols.End, sel)
}

// Recycle hands the columns of cols named by set back to the block-column
// lists and clears them. Every such column must have been filled by Decode
// into cols (or be nil), the caller must hold the only reference to it, and
// must not read it again.
func (cols *Columns) Recycle(set ColSet) {
	if set&ColLevel != 0 {
		cols.Level = recycleCol(&u8Cols, cols.Level)
	}
	if set&ColOp != 0 {
		cols.Op = recycleCol(&u8Cols, cols.Op)
	}
	if set&ColLib != 0 {
		cols.Lib = recycleCol(&u8Cols, cols.Lib)
	}
	if set&ColRank != 0 {
		cols.Rank = recycleCol(&i32Cols, cols.Rank)
	}
	if set&ColNode != 0 {
		cols.Node = recycleCol(&i32Cols, cols.Node)
	}
	if set&ColApp != 0 {
		cols.App = recycleCol(&i32Cols, cols.App)
	}
	if set&ColFile != 0 {
		cols.File = recycleCol(&i32Cols, cols.File)
	}
	if set&ColOffset != 0 {
		cols.Offset = recycleCol(&i64Cols, cols.Offset)
	}
	if set&ColSize != 0 {
		cols.Size = recycleCol(&i64Cols, cols.Size)
	}
	if set&ColStart != 0 {
		cols.Start = recycleCol(&i64Cols, cols.Start)
	}
	if set&ColEnd != 0 {
		cols.End = recycleCol(&i64Cols, cols.End)
	}
}
