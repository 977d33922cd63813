package colstore

// The compressed-domain kernels. What the scan reads straight from encoded
// v2.2 segments is a kernel request: a filter dimension's predicate
// evaluated once per dictionary code or RLE run into pass/fail runs
// (passRuns), key-column cardinality from segment headers (UnifyCodes). A
// dimension or column whose segment lacks the structure is read from
// decoded rows instead — what a chunk serves follows from the codecs its
// segments were written with, never from a switch. Both sides produce
// byte-identical results (the equivalence suite runs every codec, the
// forced-raw variant driving every row test); per-kernel served/fallback
// counters in ScanStats make the split observable end-to-end, from `-v`
// CLI output to the vanid /metrics endpoint.

import (
	"fmt"
	"math"
	"math/bits"
	"sync"

	"vani/internal/parallel"
	"vani/internal/trace"
)

// KernelOp names a compressed-domain kernel operation. Served/fallback
// counters in ScanStats are indexed by it.
type KernelOp int

// The kernel operations.
const (
	// KPredicate evaluates the scan plan's pushed-down row predicate in the
	// compressed domain: translated into the code domain once per block for
	// dict segments, per run for RLE segments.
	KPredicate KernelOp = iota
	// KGroupAgg is key-column unification: the column's value range read
	// from dict, RLE or constant segment headers instead of from decoded
	// rows.
	KGroupAgg
	// NumKernelOps bounds the per-kernel counter arrays.
	NumKernelOps
)

var kernelOpNames = [NumKernelOps]string{"predicate", "groupagg"}

// String returns the kernel operation's short name.
func (op KernelOp) String() string {
	if op < 0 || op >= NumKernelOps {
		return "unknown"
	}
	return kernelOpNames[op]
}

// servesPredicate reports whether the predicate kernels can evaluate over
// segments of the codec: they dispatch on dict and RLE structure directly
// (ForEachCode/Runs), so FOR — constants aside, which ConstVal answers —
// and raw serve nothing.
func servesPredicate(codec uint8) bool {
	return codec == trace.SegCodecRLE || codec == trace.SegCodecDict
}

// tickKernel records one served or fallback kernel request against the
// table's scan stats (a no-op for eagerly built tables, which have none).
func (t *Table) tickKernel(op KernelOp, served bool) {
	if t.stats != nil {
		t.stats.tickKernel(op, served)
	}
}

// colNames names the groupable key columns, indexed by Col.
var colNames = [...]string{"rank", "node", "app", "file"}

// traceCol returns the trace-layer column set bit for a key column.
func (col Col) traceCol() trace.ColSet {
	switch col {
	case ColRank:
		return trace.ColRank
	case ColNode:
		return trace.ColNode
	case ColApp:
		return trace.ColApp
	case ColFile:
		return trace.ColFile
	}
	return 0
}

// wholeSegCursor returns a cursor over the chunk's encoded column segment
// when the chunk still holds its whole-block payload (every block row
// kept, nothing yet forced the payload away). Callers must Release it.
func (c *Chunk) wholeSegCursor(colIdx int) *trace.SegCursor {
	l := c.lazy
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.bd == nil || l.sel != nil {
		return nil
	}
	cur, err := l.bd.SegCursorAt(colIdx)
	if err != nil {
		return nil // corrupt segment: surface the error at Require instead
	}
	return cur
}

// valueRange is the closed range of values a chunk's key column stores.
type valueRange struct{ min, max int64 }

func (r *valueRange) note(v int64) {
	if v < r.min {
		r.min = v
	}
	if v > r.max {
		r.max = v
	}
}

// headerRange reads a key column's value range from its encoded segment
// without unpacking it: the dictionary of a dict segment, the run values of
// an RLE segment, the single value of a constant. ok == false means the
// header does not hold the range: a raw segment, or a FOR one, whose
// achieved endpoints are only known by unpacking every offset — which the
// pass that follows does anyway, into the typed column the fallback scans.
func headerRange(cur *trace.SegCursor, r *valueRange) bool {
	if nd := cur.NumCodes(); nd > 0 {
		for code := 0; code < nd; code++ {
			r.note(cur.DictVal(uint32(code)))
		}
		return true
	}
	if v, ok := cur.ConstVal(); ok {
		r.note(v)
		return true
	}
	if runs := cur.Runs(); len(runs) > 0 {
		for _, run := range runs {
			r.note(run.Val)
		}
		return true
	}
	return false
}

// UnifyCodes unifies a key column onto one dense scan-global id space.
// Stored values are the trace's interned ids, so the global id of a value
// is the value itself; what unification establishes is the cardinality —
// every stored value lies in [-1, card), so dense accumulators indexed by
// value+1 need card+1 slots — and that no value escapes the id table the
// column indexes: limit is that table's length, and a stored value outside
// [-1, limit) is malformed input, reported as an ErrBadFormat-wrapped
// error before any caller sizes anything by it.
//
// The unifier is total. A whole-block chunk answers from its segment
// header; any other chunk (selection-backed, raw or FOR-packed segment)
// materializes the column and scans it: the analyzer's passes need the
// column anyway, so the decode is moved, not added. One KGroupAgg request
// is counted per chunk, served when no row was read.
func (t *Table) UnifyCodes(par int, col Col, limit int) (card int, err error) {
	colIdx := bits.TrailingZeros64(uint64(col.traceCol()))
	parts := make([]valueRange, len(t.chunks))
	errs := make([]error, len(t.chunks))
	parallel.ForEach(par, len(t.chunks), func(k int) {
		c := t.chunks[k]
		r := valueRange{min: -1, max: -1}
		served := false
		if cur := c.wholeSegCursor(colIdx); cur != nil {
			served = headerRange(cur, &r)
			cur.Release()
		}
		t.tickKernel(KGroupAgg, served)
		if !served {
			if errs[k] = c.Require(col.traceCol()); errs[k] != nil {
				return
			}
			for _, v := range c.col(col) {
				r.note(int64(v))
			}
		}
		parts[k] = r
	})
	all := valueRange{min: -1, max: -1}
	for k, r := range parts {
		if errs[k] != nil {
			return 0, errs[k]
		}
		all.note(r.min)
		all.note(r.max)
	}
	if all.min < -1 || all.max >= int64(limit) {
		bad := all.max
		if all.min < -1 {
			bad = all.min
		}
		return 0, fmt.Errorf("colstore: %s id %d outside its table of %d entries: %w",
			colNames[col], bad, limit, trace.ErrBadFormat)
	}
	return int(all.max + 1), nil
}

// passRun is one maximal segment of block rows sharing a predicate
// outcome — a dimension's run summary with the values already evaluated
// away, coalesced on the outcome so an intersection walks as few segments
// as possible.
type passRun struct {
	n    int32
	pass bool
}

// appendRun appends n rows of one outcome, growing the last run when it
// has the same outcome.
func appendRun(dst []passRun, pass bool, n int32) []passRun {
	if len(dst) > 0 && dst[len(dst)-1].pass == pass {
		dst[len(dst)-1].n += n
		return dst
	}
	return append(dst, passRun{n, pass})
}

// predDim is one filter dimension the predicate kernel can evaluate
// against encoded segments.
type predDim struct {
	set    trace.ColSet
	accept func(m *trace.Matcher, v int64) (pass, valid bool)
}

// predDims are the dimensions passRuns evaluates, hoisted to package level
// so evaluation allocates no closures. Start never appears: its segment is
// a delta chain.
var predDims = [...]predDim{
	{trace.ColLevel, func(m *trace.Matcher, v int64) (bool, bool) { return m.AcceptLevel(uint8(v)), true }},
	{trace.ColOp, func(m *trace.Matcher, v int64) (bool, bool) { return m.AcceptOp(uint8(v)), true }},
	{trace.ColRank, func(m *trace.Matcher, v int64) (bool, bool) {
		if v < 0 || v > math.MaxInt32 {
			return false, false // decode would reject; let it
		}
		return m.AcceptRank(int32(v)), true
	}},
}

// passScratch is one block's working storage for passRuns: an outcome run
// list per dimension, their intersection, and a dictionary's accept table.
// It lives in passPool, so the scan's steady state allocates none of it.
type passScratch struct {
	dims   [len(predDims)][]passRun
	isect  []passRun
	accept []bool
}

var passPool = sync.Pool{New: func() any { return new(passScratch) }}

// evalDim evaluates predDims[i] over its encoded segment into s.dims[i]:
// outcome runs covering all n block rows, one run for a constant segment,
// one predicate test per run for RLE, one per code plus the code stream for
// dict. It reports false when the segment has none of that structure or a
// stored value would fail decode validation.
func (s *passScratch) evalDim(m *trace.Matcher, i int, bd *trace.BlockData) bool {
	d := &predDims[i]
	cur, err := bd.SegCursorAt(bits.TrailingZeros64(uint64(d.set)))
	if err != nil || cur == nil {
		return false
	}
	defer cur.Release()
	n := bd.Count()
	dst := &s.dims[i]
	*dst = (*dst)[:0]
	if v, ok := cur.ConstVal(); ok {
		pass, valid := d.accept(m, v)
		*dst = appendRun(*dst, pass, int32(n))
		return valid
	}
	if !servesPredicate(cur.Codec()) {
		return false
	}
	if nd := cur.NumCodes(); nd > 0 {
		s.accept = s.accept[:0]
		for code := 0; code < nd; code++ {
			pass, valid := d.accept(m, cur.DictVal(uint32(code)))
			if !valid {
				return false
			}
			s.accept = append(s.accept, pass)
		}
		cur.ForEachCode(func(code uint32) bool {
			*dst = appendRun(*dst, s.accept[code], 1)
			return true
		})
		return true
	}
	// The runs must tile the block exactly (cursor construction validates
	// this; the guard keeps a codec added later without run totals from
	// serving).
	row := 0
	for _, r := range cur.Runs() {
		pass, valid := d.accept(m, r.Val)
		if !valid {
			return false
		}
		*dst = appendRun(*dst, pass, r.N)
		row += int(r.N)
	}
	return row == n
}

// passRuns evaluates every constrained level/op/rank dimension whose
// segment is a constant, RLE or dict into outcome runs and intersects them
// in lockstep: the returned runs cover every block row, and a row inside a
// failing run fails the filter. Every other dimension of need comes back
// in residual, for selectRows to test on decoded rows: Start (a delta
// chain), raw and FOR segments, and segments storing a value decode would
// reject, so that the decode reproduces the error. need is the block's
// constrained set (Matcher.NeedColsBlock). The runs alias s.
func passRuns(m *trace.Matcher, need trace.ColSet, bd *trace.BlockData, s *passScratch) (runs []passRun, residual trace.ColSet) {
	residual = need
	var lists [len(predDims)][]passRun
	nl := 0
	for i := range predDims {
		if need&predDims[i].set != 0 && s.evalDim(m, i, bd) {
			residual &^= predDims[i].set
			lists[nl] = s.dims[i]
			nl++
		}
	}
	n := bd.Count()
	switch nl {
	case 0:
		s.isect = appendRun(s.isect[:0], true, int32(n))
		return s.isect, residual
	case 1:
		return lists[0], residual
	}
	var idx, rem [len(predDims)]int
	for i := 0; i < nl; i++ {
		rem[i] = int(lists[i][0].n)
	}
	s.isect = s.isect[:0]
	for row := 0; row < n; {
		seg, pass := n-row, true
		for i := 0; i < nl; i++ {
			seg = min(seg, rem[i])
			pass = pass && lists[i][idx[i]].pass
		}
		s.isect = appendRun(s.isect, pass, int32(seg))
		row += seg
		for i := 0; i < nl; i++ {
			if rem[i] -= seg; rem[i] == 0 && idx[i]+1 < len(lists[i]) {
				idx[i]++
				rem[i] = int(lists[i][idx[i]].n)
			}
		}
	}
	return s.isect, residual
}
