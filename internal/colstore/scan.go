package colstore

// The scan planner's middle layer: an analysis declares the predicates it
// can push (ScanSpec); FromBlocksSpecContext drives them down into the
// VANITRC2 block index — skipping whole blocks the footer statistics rule
// out, decoding the filter dimensions the block's index entry leaves
// constrained and testing those on the block's rows (selectRows), then
// decoding the rest of a block some row survives — and builds a table of
// one whole chunk per surviving block, at any block geometry. ScanStats
// counts what the plan saved so pruning effectiveness is observable, not
// inferred.

import (
	"context"
	"sync/atomic"
	"time"

	"vani/internal/parallel"
	"vani/internal/trace"
)

// ScanSpec is the scan plan an analysis declares before touching data: the
// predicates the reader may push down. The zero value is an unfiltered
// scan.
type ScanSpec struct {
	// Filter is pushed down to the block index (pruning) and applied
	// per-row afterwards, so the resulting table is row-identical to
	// filtering a full decode in memory.
	Filter trace.Filter
}

// ScanStats counts what a planned scan actually did. Counters are atomic:
// one ScanStats is shared by the parallel scan workers.
type ScanStats struct {
	BlocksTotal  atomic.Int64 // blocks in the log
	BlocksPruned atomic.Int64 // blocks skipped via footer statistics
	RowsTotal    atomic.Int64 // rows in blocks that were read
	RowsKept     atomic.Int64 // rows surviving the residual filter
	PayloadBytes atomic.Int64 // unwrapped payload bytes of blocks read
	DecodedBytes atomic.Int64 // payload bytes actually varint-decoded

	// Segs counts the column segments decoded, by segment codec id — the
	// codec mix the cost model actually chose on this log.
	Segs [trace.NumSegCodecs]atomic.Int64

	// DecodeNanos is the time the scan workers spent inside the plan's
	// segment decodes, summed over workers: the part of the scan's wall
	// time that is segment decode rather than reading, filtering and
	// adopting columns.
	DecodeNanos atomic.Int64
}

// ScanCounters is a plain-value snapshot of ScanStats, suitable for
// embedding in reports and timings.
type ScanCounters struct {
	BlocksTotal  int64
	BlocksPruned int64
	RowsTotal    int64
	RowsKept     int64
	PayloadBytes int64
	DecodedBytes int64

	// Decoded column segments by codec (the log's codec mix).
	SegRaw  int64
	SegRLE  int64
	SegDict int64
	SegFOR  int64

	// Time spent in the plan's segment decodes, summed over workers.
	DecodeNanos int64

	// No producer is left; always 0. Kept for bench/charfile.go, which sums
	// them into colstore.tl_served_ratio, kernels_served_ratio,
	// group_served_ratio and runisect_served_ratio.
	TLServed         int64
	TLFallback       int64
	KernelsServed    int64
	KernelsFallback  int64
	GroupServed      int64
	GroupFallback    int64
	RunIsectServed   int64
	RunIsectFallback int64
}

// Snapshot reads every counter.
func (s *ScanStats) Snapshot() ScanCounters {
	return ScanCounters{
		BlocksTotal:  s.BlocksTotal.Load(),
		BlocksPruned: s.BlocksPruned.Load(),
		RowsTotal:    s.RowsTotal.Load(),
		RowsKept:     s.RowsKept.Load(),
		PayloadBytes: s.PayloadBytes.Load(),
		DecodedBytes: s.DecodedBytes.Load(),
		SegRaw:       s.Segs[0].Load(),
		SegRLE:       s.Segs[1].Load(),
		SegDict:      s.Segs[2].Load(),
		SegFOR:       s.Segs[3].Load(),
		DecodeNanos:  s.DecodeNanos.Load(),
	}
}

// decode decodes the columns of want from bd into cols, adding the time it
// took, the segment bytes it decoded and their codecs to the counters. A
// memoized block reports what its decode did: every segment on the call
// that fills the memo, whatever was wanted, and none on a memo hit.
func (s *ScanStats) decode(bd *trace.BlockData, want trace.ColSet, cols *trace.Columns) error {
	if want == 0 {
		return nil
	}
	t0 := time.Now()
	set, decoded, err := bd.Decode(want, cols)
	s.DecodeNanos.Add(int64(time.Since(t0)))
	if err != nil {
		return err
	}
	s.DecodedBytes.Add(decoded)
	for col := 0; col < trace.NumCols; col++ {
		if set&(trace.ColSet(1)<<col) != 0 {
			s.Segs[bd.SegCodec(col)].Add(1)
		}
	}
	return nil
}

// MaterializeContext returns ctx.Err(): every chunk already holds every
// column. It is kept for the benchmark harness, which calls it.
func (t *Table) MaterializeContext(ctx context.Context, par int, want trace.ColSet) error {
	return ctx.Err()
}

// adopt installs decoded or transposed columns into the chunk, cut first
// to the rows sel names unless it is nil (every row kept). The chunk then
// owns the columns, pooled or exact, and hands them back on release; a cut
// keeps their storage in proportion to the kept rows (trace.Columns.Keep).
func (c *Chunk) adopt(cols *trace.Columns, sel []int32) {
	if sel != nil {
		cols.Keep(sel)
	}
	c.Columns = *cols
}

// release hands the chunk's columns back to the column pools; see
// Table.Release.
func (c *Chunk) release() { c.Recycle(trace.AllCols) }

// Release ends the table's life: every column its chunks adopted — from a
// planned scan's block decode or from FromEvents' transpose — goes back to
// the column pools for the next table to fill, and the table is left empty.
// Only the table's owner may call it, once no goroutine reads the table and
// nothing derived from it still aliases a chunk's column slices; the table,
// its chunks and those slices must not be used afterwards. Never calling it
// is correct — the columns are ordinary garbage then.
func (t *Table) Release() {
	for _, c := range t.chunks {
		c.release()
	}
	t.chunks, t.n = nil, 0
}

// FromBlocksSpecContext executes a scan plan against a block log: blocks
// the footer statistics rule out are never read; a read block decodes the
// filter columns it constrains and tests the filter on those rows, and only
// when a row survives decodes its other columns, so each block's surviving
// rows form one whole chunk, for a block of any size. The
// worker then hands the block's payload buffer back to its pool
// (BlockData.Release). The resulting table is row-identical — same rows,
// same order — to decoding everything and filtering in memory, at any par.
// The source is any trace.BlockSource — a BlockReader over a file, or a
// shared block cache. stats may be nil.
//
// Every block worker observes ctx before reading, so a canceled or
// timed-out caller aborts the scan mid-log instead of decoding the
// remaining blocks. The returned error is ctx.Err() when the abort was a
// cancellation.
func FromBlocksSpecContext(ctx context.Context, src trace.BlockSource, par int, spec ScanSpec, stats *ScanStats) (*Table, error) {
	if stats == nil {
		stats = &ScanStats{}
	}
	m := spec.Filter.NewMatcher()
	nb := src.NumBlocks()
	stats.BlocksTotal.Add(int64(nb))
	chunks := make([]*Chunk, nb)
	errs := make([]error, nb)
	parallel.ForEach(par, nb, func(k int) {
		if errs[k] = ctx.Err(); errs[k] != nil {
			return
		}
		bi := src.BlockAt(k)
		if m.SkipBlock(bi) {
			stats.BlocksPruned.Add(1)
			return
		}
		// The block's index entry can prove dimensions pass-all for every
		// row it holds (a containing time window, most usefully), so the
		// constrained set shrinks per block: a pure-window filter keeps
		// interior blocks whole without testing a row.
		need := m.NeedColsBlock(bi)
		bd, err := src.ReadBlock(k)
		if err != nil {
			errs[k] = err
			return
		}
		defer bd.Release()
		stats.PayloadBytes.Add(int64(bd.PayloadBytes()))
		stats.RowsTotal.Add(int64(bd.Count()))
		var cols trace.Columns
		if errs[k] = stats.decode(bd, need, &cols); errs[k] != nil {
			return
		}
		buf := selBufs.Get()
		if buf == nil {
			buf = new([]int32)
		}
		defer selBufs.Put(buf)
		sel := selectRows(m, need, &cols, buf)
		kept := len(sel)
		if sel == nil {
			kept = bd.Count() // whole block kept: adopt without copying
		}
		stats.RowsKept.Add(int64(kept))
		if kept == 0 {
			cols.Recycle(need)
			return // every row filtered out; chunk dropped entirely
		}
		if errs[k] = stats.decode(bd, trace.AllCols&^need, &cols); errs[k] != nil {
			cols.Recycle(need)
			return
		}
		ck := &Chunk{}
		ck.adopt(&cols, sel)
		chunks[k] = ck
	})
	for _, err := range errs {
		if err != nil {
			for _, ck := range chunks {
				if ck != nil {
					ck.release()
				}
			}
			return nil, err
		}
	}
	t := &Table{}
	for _, ck := range chunks {
		if ck == nil {
			continue
		}
		t.n += ck.N
		t.chunks = append(t.chunks, ck)
	}
	return t, nil
}

// selBufs holds selectRows' block-sized scratch, so a filtered scan's
// steady state allocates no selection.
var selBufs parallel.FreeList[[]int32]

// selectRows tests every dimension of need — the block's constrained set
// (Matcher.NeedColsBlock), decoded into cols — on each block row and
// returns the kept rows, ascending, in *buf's array, which it grows as
// needed. It returns nil when every block row is kept — the chunk then
// adopts the block's columns whole — and an empty non-nil selection when
// none is. The selection is read only until buf's next use.
func selectRows(m *trace.Matcher, need trace.ColSet, cols *trace.Columns, buf *[]int32) []int32 {
	if need == 0 {
		return nil
	}
	keep := (*buf)[:0]
	for row := range int32(cols.N) {
		if need&trace.ColStart != 0 && !m.AcceptStart(cols.Start[row]) ||
			need&trace.ColRank != 0 && !m.AcceptRank(cols.Rank[row]) ||
			need&trace.ColLevel != 0 && !m.AcceptLevel(cols.Level[row]) ||
			need&trace.ColOp != 0 && !m.AcceptOp(cols.Op[row]) {
			continue
		}
		keep = append(keep, row)
	}
	*buf = keep
	if len(keep) == cols.N {
		return nil
	}
	if keep == nil {
		return []int32{} // a scratch never grown still selects no row
	}
	return keep
}
