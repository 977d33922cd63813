package core

import "vani/internal/trace"

// Post-pass row access. The scan produces row subsets (primary rows,
// POSIX-level rows, per-app rows) that the post passes revisit many times
// across many columns. A subset is a list of row ranges per chunk; a
// rowView gathers one into dense columnar slices once, copying whole
// slices, so every revisit is a flat array walk instead of a per-row
// chunk lookup through the Table accessors.

// rowRange is a run [lo, hi) of collected rows, chunk-relative.
type rowRange struct{ lo, hi int }

// appendRange appends [lo, hi), extending the previous range when the two
// touch. Adjacency is the only condition: ranges carry no key, so the rows
// of a level- and rank-interleaved log still coalesce into one range
// wherever the subset's members are consecutive, and a range breaks only
// at a row that is not a member.
func appendRange(rs []rowRange, lo, hi int) []rowRange {
	if n := len(rs); n > 0 && rs[n-1].hi == lo {
		rs[n-1].hi = hi
		return rs
	}
	return append(rs, rowRange{lo, hi})
}

// chunkRows holds one chunk's row subsets as the scan's pass 2 emits them:
// ascending, non-overlapping ranges, byApp indexed by app id + 1.
type chunkRows struct {
	primary []rowRange
	posix   []rowRange
	byApp   [][]rowRange
}

// rowView is the gathered columnar image of one row subset. Only the
// columns requested at build time are non-nil.
type rowView struct {
	n     int
	op    []uint8
	lib   []uint8
	rank  []int32
	file  []int32
	off   []int64
	size  []int64
	start []int64
	end   []int64
}

func (v *rowView) alloc(cols trace.ColSet, n int) {
	if cols&trace.ColOp != 0 {
		v.op = make([]uint8, 0, n)
	}
	if cols&trace.ColLib != 0 {
		v.lib = make([]uint8, 0, n)
	}
	if cols&trace.ColRank != 0 {
		v.rank = make([]int32, 0, n)
	}
	if cols&trace.ColFile != 0 {
		v.file = make([]int32, 0, n)
	}
	if cols&trace.ColOffset != 0 {
		v.off = make([]int64, 0, n)
	}
	if cols&trace.ColSize != 0 {
		v.size = make([]int64, 0, n)
	}
	if cols&trace.ColStart != 0 {
		v.start = make([]int64, 0, n)
	}
	if cols&trace.ColEnd != 0 {
		v.end = make([]int64, 0, n)
	}
}

// view gathers the subset pick selects from every chunk, in chunk order —
// the table's row order. The requested columns must already be
// materialized (run() materializes postCols before any view is built).
func (a *analysis) view(pick func(*chunkRows) []rowRange, cols trace.ColSet) *rowView {
	n := 0
	for k := range a.rows {
		for _, r := range pick(&a.rows[k]) {
			n += r.hi - r.lo
		}
	}
	v := &rowView{n: n}
	v.alloc(cols, n)
	for k := range a.rows {
		c := a.tb.ChunkAt(k)
		for _, r := range pick(&a.rows[k]) {
			if v.op != nil {
				v.op = append(v.op, c.Op[r.lo:r.hi]...)
			}
			if v.lib != nil {
				v.lib = append(v.lib, c.Lib[r.lo:r.hi]...)
			}
			if v.rank != nil {
				v.rank = append(v.rank, c.Rank[r.lo:r.hi]...)
			}
			if v.file != nil {
				v.file = append(v.file, c.File[r.lo:r.hi]...)
			}
			if v.off != nil {
				v.off = append(v.off, c.Offset[r.lo:r.hi]...)
			}
			if v.size != nil {
				v.size = append(v.size, c.Size[r.lo:r.hi]...)
			}
			if v.start != nil {
				v.start = append(v.start, c.Start[r.lo:r.hi]...)
			}
			if v.end != nil {
				v.end = append(v.end, c.End[r.lo:r.hi]...)
			}
		}
	}
	return v
}

// permuteView reorders a view by idx (for the phases guard sort on
// tables built from unsorted traces).
func permuteView(v *rowView, idx []int) *rowView {
	out := &rowView{n: v.n}
	if v.op != nil {
		out.op = make([]uint8, v.n)
		for i, j := range idx {
			out.op[i] = v.op[j]
		}
	}
	if v.lib != nil {
		out.lib = make([]uint8, v.n)
		for i, j := range idx {
			out.lib[i] = v.lib[j]
		}
	}
	if v.rank != nil {
		out.rank = make([]int32, v.n)
		for i, j := range idx {
			out.rank[i] = v.rank[j]
		}
	}
	if v.file != nil {
		out.file = make([]int32, v.n)
		for i, j := range idx {
			out.file[i] = v.file[j]
		}
	}
	if v.off != nil {
		out.off = make([]int64, v.n)
		for i, j := range idx {
			out.off[i] = v.off[j]
		}
	}
	if v.size != nil {
		out.size = make([]int64, v.n)
		for i, j := range idx {
			out.size[i] = v.size[j]
		}
	}
	if v.start != nil {
		out.start = make([]int64, v.n)
		for i, j := range idx {
			out.start[i] = v.start[j]
		}
	}
	if v.end != nil {
		out.end = make([]int64, v.n)
		for i, j := range idx {
			out.end[i] = v.end[j]
		}
	}
	return out
}

// The column sets each post-pass family reads; views gather exactly
// these so the gather cost tracks what the passes actually touch.
const (
	// primaryViewCols serves phases, the I/O-time interval union, the
	// high-level granularities and the access-pattern classification.
	primaryViewCols = trace.ColOp | trace.ColSize | trace.ColStart |
		trace.ColEnd | trace.ColRank | trace.ColFile | trace.ColOffset
	// posixViewCols serves the middleware granularity and access pattern.
	posixViewCols = trace.ColOp | trace.ColSize | trace.ColFile |
		trace.ColRank | trace.ColOffset
	// appViewCols serves the per-app op mix, byte/runtime tallies and
	// interface resolution.
	appViewCols = trace.ColOp | trace.ColSize | trace.ColStart |
		trace.ColEnd | trace.ColLib
)
