package trace

// Recycled block columns. A planned scan decodes every block into eleven
// typed slices that live for one analysis (~10 ms) and die with its table;
// allocating and zeroing them was 51 B/row of garbage per characterization.
// Columns.growSet therefore takes block-capacity slices from three per-type
// pools and Columns.Recycle hands them back.
//
// The slices are not zeroed between uses. What makes that safe is the
// decoder's contract, not the pool: decodeSeg writes every element of
// [0, n) of every column it is asked for or returns an error, and Decode
// recycles the requested columns itself on error, so a partly written slice
// never reaches a caller. Nothing reads a row the decoder did not write
// (poison_test.go holds the property under a sentinel).
//
// Ownership: whoever called Decode owns the slices it filled and is the
// only one who may Recycle them, at most once, after the last read. Not
// recycling is always correct — the slices are ordinary garbage. The
// long-lived block-cache memo never draws from the pool: it sizes its
// columns exactly with grow, so a cache budgeted in MemoRowBytes does not
// sit on block-capacity slices of short blocks.

import (
	"sync"
	"sync/atomic"
)

// The pools hold pointers to block-capacity arrays: an array pointer goes
// into and out of a sync.Pool without the allocation a slice header costs,
// and converts back from the slice on its way in.
var (
	u8ColPool  = sync.Pool{New: func() any { return new([DefaultBlockEvents]uint8) }}
	i32ColPool = sync.Pool{New: func() any { return new([DefaultBlockEvents]int32) }}
	i64ColPool = sync.Pool{New: func() any { return new([DefaultBlockEvents]int64) }}
)

// colsInUse counts pooled slices handed out and not yet recycled.
var colsInUse atomic.Int64

// ColumnsInUse returns how many pooled column slices are currently handed
// out — drawn by a Decode and not yet recycled. A request that releases its
// table leaves the count where it found it; the leak tests assert that.
func ColumnsInUse() int64 { return colsInUse.Load() }

// poisonRecycled makes recycleCol overwrite every slice it takes back, and
// a Tracer every log chunk it hands back at Finish; tests set it to prove
// no reader depends on what a recycled slice or chunk holds.
var poisonRecycled atomic.Bool

// growCol resizes s to n rows: in place when its capacity allows, else from
// the pool when a block-capacity slice fits, else freshly (oversized blocks
// of a non-default geometry). The rows are not zeroed.
func growCol[T colValue](pool *sync.Pool, s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	if n > DefaultBlockEvents {
		return make([]T, n)
	}
	colsInUse.Add(1)
	return pool.Get().(*[DefaultBlockEvents]T)[:n]
}

// recycleCol returns a slice growCol drew from the pool; any other slice
// (nil, or oversized and so freshly made) is dropped. It returns nil, what
// the column that held s is left as.
func recycleCol[T colValue](pool *sync.Pool, s []T) []T {
	if cap(s) != DefaultBlockEvents {
		return nil
	}
	arr := (*[DefaultBlockEvents]T)(s[:DefaultBlockEvents])
	if poisonRecycled.Load() {
		poisonCol(arr[:])
	}
	colsInUse.Add(-1)
	pool.Put(arr)
	return nil
}

// poisonCol fills s with a sentinel no real column holds end to end.
func poisonCol[T colValue](s []T) {
	sentinel := int64(0x5a5a5a5a5a5a5a5a)
	for i := range s {
		s[i] = T(sentinel)
	}
}

// Recycle hands the columns of cols named by set back to the block-column
// pools and clears them. Every such column must have been filled by Decode
// into cols (or be nil), the caller must hold the only reference to it, and
// must not read it again.
func (cols *Columns) Recycle(set ColSet) {
	if set&ColLevel != 0 {
		cols.Level = recycleCol(&u8ColPool, cols.Level)
	}
	if set&ColOp != 0 {
		cols.Op = recycleCol(&u8ColPool, cols.Op)
	}
	if set&ColLib != 0 {
		cols.Lib = recycleCol(&u8ColPool, cols.Lib)
	}
	if set&ColRank != 0 {
		cols.Rank = recycleCol(&i32ColPool, cols.Rank)
	}
	if set&ColNode != 0 {
		cols.Node = recycleCol(&i32ColPool, cols.Node)
	}
	if set&ColApp != 0 {
		cols.App = recycleCol(&i32ColPool, cols.App)
	}
	if set&ColFile != 0 {
		cols.File = recycleCol(&i32ColPool, cols.File)
	}
	if set&ColOffset != 0 {
		cols.Offset = recycleCol(&i64ColPool, cols.Offset)
	}
	if set&ColSize != 0 {
		cols.Size = recycleCol(&i64ColPool, cols.Size)
	}
	if set&ColStart != 0 {
		cols.Start = recycleCol(&i64ColPool, cols.Start)
	}
	if set&ColEnd != 0 {
		cols.End = recycleCol(&i64ColPool, cols.End)
	}
}
