package colstore

// The scan planner's middle layer: an analysis declares the columns its
// kernels touch and the predicates it can push (ScanSpec);
// FromBlocksSpecContext drives that plan down into the VANITRC2 block index
// — skipping whole blocks the footer statistics rule out, decoding the
// column segments the plan names plus the filter dimensions the block's
// index entry leaves constrained, and testing those on the block's rows
// (selectRows) — and builds a table of one chunk per surviving block, at
// any block geometry, whose chunks materialize further columns lazily, the
// first time a kernel asks. ScanStats counts what the plan saved so
// pruning effectiveness is observable, not inferred.

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"vani/internal/parallel"
	"vani/internal/trace"
)

// ScanSpec is the scan plan an analysis declares before touching data: the
// columns its kernels will read up front and the predicates the reader may
// push down. Cols == 0 defers every column — chunks hold only the block's
// undecoded payload until a kernel Requires a column. The zero value is a
// fully lazy, unfiltered scan.
type ScanSpec struct {
	// Cols are the columns to materialize eagerly during the scan (the
	// filter columns a block constrains are always decoded). 0 = decode on
	// demand.
	Cols trace.ColSet
	// Filter is pushed down to the block index (pruning) and applied
	// per-row afterwards, so the resulting table is row-identical to
	// filtering a full decode in memory.
	Filter trace.Filter
}

// ScanStats counts what a planned scan actually did. Counters are atomic:
// one ScanStats is shared by the parallel scan workers and by later lazy
// materializations of the resulting table's chunks.
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

	// DecodeNanos is the time chunks spent materializing columns inside
	// Require, summed over workers: the analyzer's passes decode lazily, so
	// this is the part of their wall time that is segment decode and column
	// adoption rather than analysis.
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

	// Time spent in Require's lazy decodes, summed over workers.
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

// countSegs tallies the codec of every decoded column segment of set into
// the codec-mix counters.
func (s *ScanStats) countSegs(bd *trace.BlockData, set trace.ColSet) {
	for col := 0; col < trace.NumCols; col++ {
		if set&(trace.ColSet(1)<<col) != 0 {
			s.Segs[bd.SegCodec(col)].Add(1)
		}
	}
}

// lazySrc is the undecoded remainder of a chunk built by
// FromBlocksSpecContext: the block payload, the row selection the filter
// chose, and the set of columns already materialized. The mutex
// serializes Require calls so concurrent kernels may demand columns of the
// same chunk safely.
type lazySrc struct {
	mu    sync.Mutex
	bd    *trace.BlockData
	sel   []int32 // block row indices kept by the filter; nil = all rows
	have  trace.ColSet
	stats *ScanStats
}

// Require materializes the requested columns of the chunk, decoding any
// missing segments from the retained block payload. It is a no-op for
// eagerly built chunks and for columns already present. Safe for concurrent
// use.
func (c *Chunk) Require(want trace.ColSet) error {
	l := c.lazy
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	missing := want &^ l.have
	if missing == 0 {
		return nil
	}
	t0 := time.Now()
	var cols trace.Columns
	decoded, err := l.bd.Decode(missing, &cols)
	if err != nil {
		return err
	}
	c.adopt(&cols, l.sel, missing)
	l.have |= missing
	if l.stats != nil {
		l.stats.DecodeNanos.Add(int64(time.Since(t0)))
		if decoded > 0 {
			// decoded == 0 means a shared-cache memo hit: the block's columns
			// were copied out, not re-decoded, so the scan did no decode work.
			l.stats.DecodedBytes.Add(decoded)
			l.stats.countSegs(l.bd, missing)
		}
	}
	if l.have == trace.AllCols {
		l.bd = nil // payload no longer needed; let it go
	}
	return nil
}

// MaterializeContext decodes the given columns for every chunk, fanning
// out over up to par workers; tables transposed from memory return at once.
// Each chunk worker observes ctx before decoding, so a canceled caller stops
// mid-table.
func (t *Table) MaterializeContext(ctx context.Context, par int, want trace.ColSet) error {
	errs := make([]error, len(t.chunks))
	parallel.ForEach(par, len(t.chunks), func(k int) {
		if errs[k] = ctx.Err(); errs[k] != nil {
			return
		}
		errs[k] = t.chunks[k].Require(want)
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// gather copies a chunk's n rows out of a decoded block column: the n block
// rows sel names, or the block's first n when sel is nil.
func gather[T any](src []T, sel []int32, n int) []T {
	dst := make([]T, n)
	if sel == nil {
		copy(dst, src)
		return dst
	}
	for i, j := range sel {
		dst[i] = src[j]
	}
	return dst
}

// adopt installs decoded block columns into the chunk: a direct slice
// adoption when the chunk keeps every block row (sel == nil) of a block not
// marked exact — the chunk then owns the pooled slices and remembers them
// for release — a copy of the kept rows otherwise, after which the decode
// temporary goes straight back to the pool. Only columns in set are touched.
func (c *Chunk) adopt(cols *trace.Columns, sel []int32, set trace.ColSet) {
	if sel == nil && !c.exact {
		c.pooled |= set
		if set&trace.ColLevel != 0 {
			c.Level = cols.Level[:c.N]
		}
		if set&trace.ColOp != 0 {
			c.Op = cols.Op[:c.N]
		}
		if set&trace.ColLib != 0 {
			c.Lib = cols.Lib[:c.N]
		}
		if set&trace.ColRank != 0 {
			c.Rank = cols.Rank[:c.N]
		}
		if set&trace.ColNode != 0 {
			c.Node = cols.Node[:c.N]
		}
		if set&trace.ColApp != 0 {
			c.App = cols.App[:c.N]
		}
		if set&trace.ColFile != 0 {
			c.File = cols.File[:c.N]
		}
		if set&trace.ColOffset != 0 {
			c.Offset = cols.Offset[:c.N]
		}
		if set&trace.ColSize != 0 {
			c.Size = cols.Size[:c.N]
		}
		if set&trace.ColStart != 0 {
			c.Start = cols.Start[:c.N]
		}
		if set&trace.ColEnd != 0 {
			c.End = cols.End[:c.N]
		}
		return
	}
	if set&trace.ColLevel != 0 {
		c.Level = gather(cols.Level, sel, c.N)
	}
	if set&trace.ColOp != 0 {
		c.Op = gather(cols.Op, sel, c.N)
	}
	if set&trace.ColLib != 0 {
		c.Lib = gather(cols.Lib, sel, c.N)
	}
	if set&trace.ColRank != 0 {
		c.Rank = gather(cols.Rank, sel, c.N)
	}
	if set&trace.ColNode != 0 {
		c.Node = gather(cols.Node, sel, c.N)
	}
	if set&trace.ColApp != 0 {
		c.App = gather(cols.App, sel, c.N)
	}
	if set&trace.ColFile != 0 {
		c.File = gather(cols.File, sel, c.N)
	}
	if set&trace.ColOffset != 0 {
		c.Offset = gather(cols.Offset, sel, c.N)
	}
	if set&trace.ColSize != 0 {
		c.Size = gather(cols.Size, sel, c.N)
	}
	if set&trace.ColStart != 0 {
		c.Start = gather(cols.Start, sel, c.N)
	}
	if set&trace.ColEnd != 0 {
		c.End = gather(cols.End, sel, c.N)
	}
	cols.Recycle(set)
}

// release hands the block columns the chunk adopted by slice back to the
// column pools and empties the chunk; see Table.Release.
func (c *Chunk) release() {
	cols := trace.Columns{
		Level: c.Level, Op: c.Op, Lib: c.Lib,
		Rank: c.Rank, Node: c.Node, App: c.App, File: c.File,
		Offset: c.Offset, Size: c.Size, Start: c.Start, End: c.End,
	}
	cols.Recycle(c.pooled)
	*c = Chunk{}
}

// Release ends the table's life: every block column a planned scan's chunks
// adopted goes back to the column pools for the next scan to decode into,
// and the table is left empty. Only the table's owner may call it, once no
// goroutine reads the table and nothing derived from it still aliases a
// chunk's column slices; the table, its chunks and those slices must not be
// used afterwards. Never calling it is correct — the columns are ordinary
// garbage then. Eagerly built tables hold no pooled column; for them Release
// only empties the table.
func (t *Table) Release() {
	for _, c := range t.chunks {
		c.release()
	}
	t.chunks, t.n = nil, 0
}

// FromBlocksSpecContext executes a scan plan against a block log: blocks
// the footer statistics rule out are never read, read blocks decode the
// filter columns they constrain plus spec.Cols and test the filter on those
// rows, and each block's surviving rows form one chunk whose remaining
// columns materialize lazily from the retained payload, for a block of any
// size (see Chunk.exact). The resulting table is row-identical — same rows,
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
		// interior blocks whole without decoding or testing a row.
		need := m.NeedColsBlock(bi)
		bd, err := src.ReadBlock(k)
		if err != nil {
			errs[k] = err
			return
		}
		stats.PayloadBytes.Add(int64(bd.PayloadBytes()))
		stats.RowsTotal.Add(int64(bd.Count()))
		have := need | spec.Cols
		var cols trace.Columns
		if have != 0 {
			decoded, err := bd.Decode(have, &cols)
			if err != nil {
				errs[k] = err
				return
			}
			if decoded > 0 { // 0 = shared-cache memo hit, nothing decoded
				stats.DecodedBytes.Add(decoded)
				stats.countSegs(bd, have)
			}
		}
		sel := selectRows(m, need, &cols)
		kept := len(sel)
		if sel == nil {
			kept = bd.Count() // whole block kept: adopt without copying
		}
		stats.RowsKept.Add(int64(kept))
		if kept == 0 {
			cols.Recycle(have)
			return // every row filtered out; chunk dropped entirely
		}
		ck := &Chunk{N: kept, exact: 2*bd.Count() <= trace.DefaultBlockEvents && k != nb-1}
		ck.adopt(&cols, sel, have)
		if have != trace.AllCols {
			ck.lazy = &lazySrc{bd: bd, sel: sel, have: have, stats: stats}
		}
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

// selPool holds selectRows' block-sized scratch, so a filtered scan's
// steady state allocates only each chunk's exact-size selection.
var selPool = sync.Pool{New: func() any { return new([]int32) }}

// selectRows tests every dimension of need — the block's constrained set
// (Matcher.NeedColsBlock), decoded into cols — on each block row and
// returns the kept rows as an exact-size selection. It returns nil when
// every block row is kept — the chunk then adopts the block's columns
// whole — and an empty non-nil selection when none is.
func selectRows(m *trace.Matcher, need trace.ColSet, cols *trace.Columns) []int32 {
	if need == 0 {
		return nil
	}
	buf := selPool.Get().(*[]int32)
	defer selPool.Put(buf)
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
	return append(make([]int32, 0, len(keep)), keep...)
}
