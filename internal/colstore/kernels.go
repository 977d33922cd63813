package colstore

// The compressed-domain kernels. What the scan reads straight from encoded
// v2.2 segments is a kernel request: predicate evaluation on dictionary
// codes or RLE runs, key-column cardinality from segment headers. A segment
// whose codec lacks the structure falls back to materializing the column
// and iterating rows — what a chunk serves follows from the codecs its
// segments were written with, never from a switch. Both sides produce
// byte-identical results (the equivalence suite runs every codec, the
// forced-raw variant driving every fallback); per-kernel served/fallback
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

// emptySel is the canonical zero-row selection: non-nil (so it is distinct
// from "every row") and shared, so total-drop blocks allocate nothing.
var emptySel = []int32{}

// synthCol carries a filter column materialized straight from the run
// summary during direct selection: the selected rows' values are already
// known from the runs the predicate was evaluated on, so the column is
// filled at exact size without ever decoding its segment. At most one of
// the typed slices is set, named by set. The synthesized values reproduce
// the decoder's conversions exactly — uint8 truncation for level and op,
// and the rank bounds the predicate already validated.
type synthCol struct {
	set   trace.ColSet
	level []uint8
	op    []uint8
	rank  []int32
}

// init sizes the typed slice for the dimension at exact final capacity.
func (s *synthCol) init(set trace.ColSet, cnt int) {
	s.set = set
	switch set {
	case trace.ColLevel:
		s.level = make([]uint8, 0, cnt)
	case trace.ColOp:
		s.op = make([]uint8, 0, cnt)
	case trace.ColRank:
		s.rank = make([]int32, 0, cnt)
	}
}

// appendN appends n copies of v, converted as the decoder would.
func (s *synthCol) appendN(v int64, n int) {
	switch s.set {
	case trace.ColLevel:
		for i := 0; i < n; i++ {
			s.level = append(s.level, uint8(v))
		}
	case trace.ColOp:
		for i := 0; i < n; i++ {
			s.op = append(s.op, uint8(v))
		}
	case trace.ColRank:
		for i := 0; i < n; i++ {
			s.rank = append(s.rank, int32(v))
		}
	}
}

// install hands the synthesized column to the chunk.
func (s *synthCol) install(ck *Chunk) {
	switch s.set {
	case trace.ColLevel:
		ck.Level = s.level
	case trace.ColOp:
		ck.Op = s.op
	case trace.ColRank:
		ck.Rank = s.rank
	}
}

// compressedSel builds the row selection directly from a single dimension's
// compressed segment, when the filter constrains exactly one dimension and
// that dimension's segment has run or code structure. Run lengths give the
// exact match count before any row is touched, so the selection vector is
// allocated once at its final size — something the materialized path cannot
// do without a counting pre-pass — no keep bitmap exists at all, and the
// filter column itself is synthesized from the runs (syn), so its segment
// is never decoded. all == true means every row passed (the caller keeps
// the whole block); ok == false means the fast path does not apply and the
// caller must fall back to compressedKeep / materialized selection.
//
// need is the matcher's constrained-dimension set for this block — the
// caller passes Matcher.NeedColsBlock, so a window the block's index entry
// proves wholly containing has already dropped out and a window+rank
// filter lands here as a pure rank filter on interior blocks.
func compressedSel(m *trace.Matcher, need trace.ColSet, bd *trace.BlockData) (sel []int32, syn synthCol, all, ok bool) {
	if need != trace.ColLevel && need != trace.ColOp && need != trace.ColRank {
		return nil, syn, false, false
	}
	for _, d := range predDims {
		if need != d.set {
			continue
		}
		cur, err := bd.SegCursorAt(bits.TrailingZeros64(uint64(d.set)))
		if err != nil || cur == nil {
			return nil, syn, false, false
		}
		n := bd.Count()
		if v, cok := cur.ConstVal(); cok {
			cur.Release()
			pass, valid := d.accept(m, v)
			if !valid {
				return nil, syn, false, false
			}
			if pass {
				return nil, syn, true, true
			}
			return emptySel, syn, false, true
		}
		if !servesPredicate(cur.Codec()) {
			cur.Release()
			return nil, syn, false, false
		}
		if nd := cur.NumCodes(); nd > 0 {
			// Dict: translate the predicate into the code domain once, count
			// matches with one code stream, fill with a second.
			acceptCode := make([]bool, nd)
			for code := 0; code < nd; code++ {
				pass, valid := d.accept(m, cur.DictVal(uint32(code)))
				if !valid {
					cur.Release()
					return nil, syn, false, false
				}
				acceptCode[code] = pass
			}
			cnt := 0
			cur.ForEachCode(func(code uint32) bool {
				if acceptCode[code] {
					cnt++
				}
				return true
			})
			switch cnt {
			case n:
				cur.Release()
				return nil, syn, true, true
			case 0:
				cur.Release()
				return emptySel, syn, false, true
			}
			sel = make([]int32, 0, cnt)
			syn.init(need, cnt)
			row := int32(0)
			cur.ForEachCode(func(code uint32) bool {
				if acceptCode[code] {
					sel = append(sel, row)
					syn.appendN(cur.DictVal(code), 1)
				}
				row++
				return true
			})
			cur.Release()
			return sel, syn, false, true
		}
		// RLE: one predicate evaluation per run; pass one counts, pass two
		// fills. The runs must tile the block exactly (construction validates
		// this; keep the guard so a codec added later without run totals
		// can't silently serve).
		runs := cur.Runs()
		cnt, row := 0, 0
		for _, r := range runs {
			pass, valid := d.accept(m, r.Val)
			if !valid {
				cur.Release()
				return nil, syn, false, false
			}
			if pass {
				cnt += int(r.N)
			}
			row += int(r.N)
		}
		if row != n {
			cur.Release()
			return nil, syn, false, false
		}
		switch cnt {
		case n:
			cur.Release()
			return nil, syn, true, true
		case 0:
			cur.Release()
			return emptySel, syn, false, true
		}
		sel = make([]int32, 0, cnt)
		syn.init(need, cnt)
		row = 0
		for _, r := range runs {
			if pass, _ := d.accept(m, r.Val); pass {
				for j := row; j < row+int(r.N); j++ {
					sel = append(sel, int32(j))
				}
				syn.appendN(r.Val, int(r.N))
			}
			row += int(r.N)
		}
		cur.Release()
		return sel, syn, false, true
	}
	return nil, syn, false, false
}

// passRun is one maximal segment of block rows sharing a predicate
// outcome for a single dimension — a dimension's run summary with the
// values already evaluated away, coalesced on the outcome so the
// intersection below walks as few segments as possible.
type passRun struct {
	n    int32
	pass bool
}

// appendPassRuns evaluates one dimension's predicate over its encoded
// segment and appends outcome runs covering all n block rows: one run for
// a constant segment, predicate-per-run for RLE, predicate-per-code plus a
// code stream for dict. ok == false means the segment has no usable
// structure (or a stored value would fail decode validation) and the
// multi-dimension fast path cannot serve this block.
func appendPassRuns(m *trace.Matcher, d *predDim, cur *trace.SegCursor, n int, dst []passRun) ([]passRun, bool) {
	put := func(pass bool, cnt int32) []passRun {
		if len(dst) > 0 && dst[len(dst)-1].pass == pass {
			dst[len(dst)-1].n += cnt
			return dst
		}
		return append(dst, passRun{cnt, pass})
	}
	if v, cok := cur.ConstVal(); cok {
		pass, valid := d.accept(m, v)
		if !valid {
			return dst, false
		}
		return put(pass, int32(n)), true
	}
	if !servesPredicate(cur.Codec()) {
		return dst, false
	}
	if nd := cur.NumCodes(); nd > 0 {
		acceptCode := make([]bool, nd)
		for code := 0; code < nd; code++ {
			pass, valid := d.accept(m, cur.DictVal(uint32(code)))
			if !valid {
				return dst, false
			}
			acceptCode[code] = pass
		}
		cur.ForEachCode(func(code uint32) bool {
			dst = put(acceptCode[code], 1)
			return true
		})
		return dst, true
	}
	row := 0
	for _, r := range cur.Runs() {
		pass, valid := d.accept(m, r.Val)
		if !valid {
			return dst, false
		}
		dst = put(pass, r.N)
		row += int(r.N)
	}
	return dst, row == n
}

// compressedSelMulti is the multi-dimension direct-selection path: when a
// filter constrains two or more of level/op/rank (and nothing else — a
// Start bound needs rows), each dimension's run summary evaluates into
// outcome runs and the runs intersect in lockstep, emitting the selection
// vector directly at exact final size — no keep bitmap, no residual row
// pass. A first intersection walk counts (and short-circuits whole-pass
// and whole-drop blocks without allocating), a second fills. eligible
// reports whether the filter shape qualifies at all (for the run-isect
// counters); ok whether every dimension was run-representable. need is the
// block-reduced constrained set (Matcher.NeedColsBlock).
func compressedSelMulti(m *trace.Matcher, need trace.ColSet, bd *trace.BlockData) (sel []int32, all, ok, eligible bool) {
	const dims3 = trace.ColLevel | trace.ColOp | trace.ColRank
	if need&^dims3 != 0 || bits.OnesCount64(uint64(need)) < 2 {
		return nil, false, false, false
	}
	n := bd.Count()
	var lists [3][]passRun
	nd := 0
	for i := range predDims {
		d := &predDims[i]
		if need&d.set == 0 {
			continue
		}
		cur, err := bd.SegCursorAt(bits.TrailingZeros64(uint64(d.set)))
		if err != nil || cur == nil {
			return nil, false, false, true
		}
		pr, prOK := appendPassRuns(m, d, cur, n, nil)
		cur.Release()
		if !prOK {
			return nil, false, false, true
		}
		lists[nd] = pr
		nd++
	}
	// Pass one: count matches by intersecting outcome runs in lockstep.
	var idx, rem [3]int
	for i := 0; i < nd; i++ {
		rem[i] = int(lists[i][0].n)
	}
	cnt := 0
	for row := 0; row < n; {
		seg := rem[0]
		pass := lists[0][idx[0]].pass
		for i := 1; i < nd; i++ {
			if rem[i] < seg {
				seg = rem[i]
			}
			pass = pass && lists[i][idx[i]].pass
		}
		if pass {
			cnt += seg
		}
		row += seg
		for i := 0; i < nd; i++ {
			if rem[i] -= seg; rem[i] == 0 && idx[i]+1 < len(lists[i]) {
				idx[i]++
				rem[i] = int(lists[i][idx[i]].n)
			}
		}
	}
	switch cnt {
	case n:
		return nil, true, true, true
	case 0:
		return emptySel, false, true, true
	}
	// Pass two: fill the selection at exact size.
	sel = make([]int32, 0, cnt)
	idx, rem = [3]int{}, [3]int{}
	for i := 0; i < nd; i++ {
		rem[i] = int(lists[i][0].n)
	}
	for row := 0; row < n; {
		seg := rem[0]
		pass := lists[0][idx[0]].pass
		for i := 1; i < nd; i++ {
			if rem[i] < seg {
				seg = rem[i]
			}
			pass = pass && lists[i][idx[i]].pass
		}
		if pass {
			for j := row; j < row+seg; j++ {
				sel = append(sel, int32(j))
			}
		}
		row += seg
		for i := 0; i < nd; i++ {
			if rem[i] -= seg; rem[i] == 0 && idx[i]+1 < len(lists[i]) {
				idx[i]++
				rem[i] = int(lists[i][idx[i]].n)
			}
		}
	}
	return sel, false, true, true
}

// compressedKeep evaluates the matcher's per-dimension predicates in the
// compressed domain: for each constrained dimension whose segment the
// registry serves, a keep bitmap is narrowed — dict segments translate the
// predicate into the code domain once and stream codes, RLE segments test
// once per run — and the dimension leaves the residual set. Dimensions
// whose segments are unserved, or whose stored values would fail decode
// validation, stay residual so materialization reproduces the decode
// error exactly. keep == nil with served dimensions means every row passed
// them. Start never evaluates compressed (its segment is a delta chain) —
// though a block whose index entry proves the window containing arrives
// with ColStart already dropped from need (Matcher.NeedColsBlock), the
// one case where the window costs nothing at all.
func compressedKeep(m *trace.Matcher, need trace.ColSet, bd *trace.BlockData) (kb *keepBuf, residual trace.ColSet, served bool) {
	residual = need
	if residual&^trace.ColStart == 0 {
		return nil, residual, false
	}
	n := bd.Count()
	var keep []bool
	for _, d := range predDims {
		if residual&d.set == 0 {
			continue
		}
		cur, err := bd.SegCursorAt(bits.TrailingZeros64(uint64(d.set)))
		if err != nil || cur == nil {
			continue
		}
		if v, ok := cur.ConstVal(); ok {
			// Constant column: one predicate evaluation covers the block.
			cur.Release()
			pass, valid := d.accept(m, v)
			if !valid {
				continue
			}
			if !pass {
				if kb == nil {
					kb = newKeep(n)
					keep = kb.b
				}
				for x := range keep {
					keep[x] = false
				}
			}
			residual &^= d.set
			served = true
			continue
		}
		if !servesPredicate(cur.Codec()) {
			cur.Release()
			continue
		}
		if nd := cur.NumCodes(); nd > 0 {
			// Dict: translate the predicate into the code domain once.
			acceptCode := make([]bool, nd)
			valid, all := true, true
			for code := 0; code < nd; code++ {
				pass, ok := d.accept(m, cur.DictVal(uint32(code)))
				if !ok {
					valid = false
					break
				}
				acceptCode[code] = pass
				all = all && pass
			}
			if !valid {
				cur.Release()
				continue
			}
			if !all {
				if kb == nil {
					kb = newKeep(n)
					keep = kb.b
				}
				row := 0
				cur.ForEachCode(func(code uint32) bool {
					if !acceptCode[code] {
						keep[row] = false
					}
					row++
					return true
				})
			}
			cur.Release()
			residual &^= d.set
			served = true
			continue
		}
		// RLE: one predicate evaluation per run. The runs must tile the
		// block exactly (construction validates this; keep the guard so a
		// codec added later without run totals can't silently serve).
		valid := true
		row := 0
		for _, r := range cur.Runs() {
			pass, ok := d.accept(m, r.Val)
			if !ok {
				valid = false
				break
			}
			if !pass {
				if kb == nil {
					kb = newKeep(n)
					keep = kb.b
				}
				for x := row; x < row+int(r.N); x++ {
					keep[x] = false
				}
			}
			row += int(r.N)
		}
		cur.Release()
		if valid && row == n {
			residual &^= d.set
			served = true
		}
	}
	return kb, residual, served
}

// predDim is one filter dimension the compressed predicate paths can
// evaluate against encoded segments.
type predDim struct {
	set    trace.ColSet
	accept func(m *trace.Matcher, v int64) (pass, valid bool)
}

// predDims are the filter dimensions compressedKeep can evaluate against
// encoded segments, hoisted to package level so evaluation allocates no
// closures. Start never appears: its segment is a delta chain.
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

// keepBuf boxes a pooled keep bitmap: a bitmap's life ends at row
// selection, and the box travels with it, so the scan's steady state
// allocates nothing per block.
type keepBuf struct{ b []bool }

// keepPool recycles keep bitmaps (with their boxes) between blocks.
var keepPool = sync.Pool{New: func() any { return new(keepBuf) }}

// newKeep returns an all-true keep bitmap for n rows, reusing pooled
// backing when it fits.
func newKeep(n int) *keepBuf {
	kb := keepPool.Get().(*keepBuf)
	if cap(kb.b) < n {
		kb.b = make([]bool, n)
	}
	kb.b = kb.b[:n]
	for i := range kb.b {
		kb.b[i] = true
	}
	return kb
}

// releaseKeep recycles a bitmap returned by compressedKeep (nil is fine).
func releaseKeep(kb *keepBuf) {
	if kb != nil {
		keepPool.Put(kb)
	}
}

// selectRowsResidual applies the residual row predicate after compressed
// predicate dimensions already narrowed keep: only the dimensions still in
// residual are re-evaluated on materialized columns. With keep == nil every
// row passed the served dimensions.
func selectRowsResidual(m *trace.Matcher, cols *trace.Columns, keep []bool, residual trace.ColSet) []int32 {
	sel := make([]int32, 0, cols.N)
	for j := 0; j < cols.N; j++ {
		if keep != nil && !keep[j] {
			continue
		}
		if residual&trace.ColStart != 0 && !m.AcceptStart(cols.Start[j]) {
			continue
		}
		if residual&trace.ColRank != 0 && !m.AcceptRank(cols.Rank[j]) {
			continue
		}
		if residual&trace.ColLevel != 0 && !m.AcceptLevel(cols.Level[j]) {
			continue
		}
		if residual&trace.ColOp != 0 && !m.AcceptOp(cols.Op[j]) {
			continue
		}
		sel = append(sel, int32(j))
	}
	return sel
}
