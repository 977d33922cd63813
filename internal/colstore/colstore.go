// Package colstore converts row-major trace logs into a chunked
// column-major table and provides the filter/group-by/aggregate operations
// the analyzer is built on.
//
// The paper's Analyzer first converts Recorder's row-major logs to parquet
// "as a necessary first step, as filtering and aggregation operations in
// memory are highly inefficient for this format", then analyzes them
// out-of-core and in parallel with DASK. This package plays the
// parquet+DASK role: each event field becomes a typed column stored in
// fixed-size chunks (the parquet row-group / DASK partition analogue),
// scan kernels fan out over chunks via a bounded worker pool and reduce
// their per-chunk partials in chunk order — so parallel aggregation is
// bit-identical to sequential — and a fused multi-aggregate scan answers
// many predicates in a single pass over the data. The row-vs-column
// ablation benchmark quantifies the paper's claim.
package colstore

import (
	"time"

	"vani/internal/parallel"
	"vani/internal/trace"
)

// Chunk geometry. ChunkRows is a power of two so global row indices locate
// their chunk with a shift and mask.
const (
	chunkShift = 14
	// ChunkRows is the fixed number of rows per chunk (the last chunk of a
	// table may hold fewer).
	ChunkRows = 1 << chunkShift
	chunkMask = ChunkRows - 1
)

// Chunk is one block of rows with contiguous per-column storage. Base is
// the global index of row 0, so global row i lives at chunk index i-Base.
// Chunks built eagerly hold every column at length N; chunks built by
// FromBlocksSpec materialize columns on demand — a column slice is nil
// until Require (or Table.Materialize) decodes it, so kernels must Require
// the columns they read before touching a planned table's slices.
type Chunk struct {
	Base int
	N    int

	Level  []uint8
	Op     []uint8
	Lib    []uint8
	Rank   []int32
	Node   []int32
	App    []int32
	File   []int32
	Offset []int64
	Size   []int64
	Start  []int64 // nanoseconds
	End    []int64 // nanoseconds

	lazy *lazySrc // undecoded remainder; nil once fully materialized

	// pooled names the columns adopted by slice from a block decode: they
	// came from trace's column pools and go back on Table.Release.
	pooled trace.ColSet
}

func newChunk(base, rows int) *Chunk {
	return &Chunk{
		Base:   base,
		N:      rows,
		Level:  make([]uint8, rows),
		Op:     make([]uint8, rows),
		Lib:    make([]uint8, rows),
		Rank:   make([]int32, rows),
		Node:   make([]int32, rows),
		App:    make([]int32, rows),
		File:   make([]int32, rows),
		Offset: make([]int64, rows),
		Size:   make([]int64, rows),
		Start:  make([]int64, rows),
		End:    make([]int64, rows),
	}
}

func (c *Chunk) set(j int, ev *trace.Event) {
	c.Level[j] = uint8(ev.Level)
	c.Op[j] = uint8(ev.Op)
	c.Lib[j] = uint8(ev.Lib)
	c.Rank[j] = ev.Rank
	c.Node[j] = ev.Node
	c.App[j] = ev.App
	c.File[j] = ev.File
	c.Offset[j] = ev.Offset
	c.Size[j] = ev.Size
	c.Start[j] = int64(ev.Start)
	c.End[j] = int64(ev.End)
}

// copyRow copies row j of src into row k of c.
func (c *Chunk) copyRow(k int, src *Chunk, j int) {
	c.Level[k] = src.Level[j]
	c.Op[k] = src.Op[j]
	c.Lib[k] = src.Lib[j]
	c.Rank[k] = src.Rank[j]
	c.Node[k] = src.Node[j]
	c.App[k] = src.App[j]
	c.File[k] = src.File[j]
	c.Offset[k] = src.Offset[j]
	c.Size[k] = src.Size[j]
	c.Start[k] = src.Start[j]
	c.End[k] = src.End[j]
}

// Table is a chunked column-major event table. Eagerly built tables have
// uniform geometry (every chunk but the last holds ChunkRows rows); tables
// produced by a filtering scan may hold irregular chunks, located by
// binary search instead of shift/mask.
type Table struct {
	n       int
	chunks  []*Chunk
	uniform bool // chunks[k].Base == k<<chunkShift for all k

	// stats is the scan's ScanStats when the table came from a planned
	// block scan; kernel served/fallback requests tick into it. Nil for
	// eagerly built tables.
	stats *ScanStats
}

// Len returns the number of rows.
func (t *Table) Len() int { return t.n }

// NumChunks returns the number of fixed-size chunks.
func (t *Table) NumChunks() int { return len(t.chunks) }

// ChunkAt returns chunk k.
func (t *Table) ChunkAt(k int) *Chunk { return t.chunks[k] }

// loc resolves a global row index to its chunk and in-chunk index: a shift
// and mask for uniform geometry, a binary search over chunk bases for the
// irregular chunks a filtering scan produces.
func (t *Table) loc(i int) (*Chunk, int) {
	if t.uniform {
		return t.chunks[i>>chunkShift], i & chunkMask
	}
	lo, hi := 0, len(t.chunks)
	for lo < hi {
		mid := (lo + hi) >> 1
		if t.chunks[mid].Base <= i {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	c := t.chunks[lo-1]
	return c, i - c.Base
}

// Per-row accessors. Scan kernels iterate chunks directly; these exist for
// the random-access passes (phase building, pattern classification) that
// run over small merged row sets.

// Level returns the level column value of row i.
func (t *Table) Level(i int) uint8 { c, j := t.loc(i); return c.Level[j] }

// Op returns the op column value of row i.
func (t *Table) Op(i int) uint8 { c, j := t.loc(i); return c.Op[j] }

// Lib returns the lib column value of row i.
func (t *Table) Lib(i int) uint8 { c, j := t.loc(i); return c.Lib[j] }

// Rank returns the rank column value of row i.
func (t *Table) Rank(i int) int32 { c, j := t.loc(i); return c.Rank[j] }

// Node returns the node column value of row i.
func (t *Table) Node(i int) int32 { c, j := t.loc(i); return c.Node[j] }

// App returns the app column value of row i.
func (t *Table) App(i int) int32 { c, j := t.loc(i); return c.App[j] }

// File returns the file column value of row i.
func (t *Table) File(i int) int32 { c, j := t.loc(i); return c.File[j] }

// Offset returns the offset column value of row i.
func (t *Table) Offset(i int) int64 { c, j := t.loc(i); return c.Offset[j] }

// Size returns the size column value of row i.
func (t *Table) Size(i int) int64 { c, j := t.loc(i); return c.Size[j] }

// Start returns the start time of row i in nanoseconds.
func (t *Table) Start(i int) int64 { c, j := t.loc(i); return c.Start[j] }

// End returns the end time of row i in nanoseconds.
func (t *Table) End(i int) int64 { c, j := t.loc(i); return c.End[j] }

// IsData reports whether row i is a data op (read/write).
func (t *Table) IsData(i int) bool { return trace.Op(t.Op(i)).IsData() }

// IsMeta reports whether row i is a metadata op.
func (t *Table) IsMeta(i int) bool { return trace.Op(t.Op(i)).IsMeta() }

// IsIO reports whether row i is an I/O op at all.
func (t *Table) IsIO(i int) bool { return trace.Op(t.Op(i)).IsIO() }

// Dur returns the duration of row i.
func (t *Table) Dur(i int) time.Duration {
	c, j := t.loc(i)
	return time.Duration(c.End[j] - c.Start[j])
}

// Builder appends events into a chunked table, the streaming construction
// path: events scanned off disk flow straight into column chunks without a
// []Event ever materializing.
type Builder struct {
	t    *Table
	last *Chunk // capacity ChunkRows; N tracks fill
}

// NewBuilder returns an empty table builder.
func NewBuilder() *Builder { return &Builder{t: &Table{uniform: true}} }

// Append adds one event as the next row.
func (b *Builder) Append(ev *trace.Event) {
	if b.last == nil || b.last.N == ChunkRows {
		b.last = newChunk(b.t.n, ChunkRows)
		b.last.N = 0
		b.t.chunks = append(b.t.chunks, b.last)
	}
	b.last.set(b.last.N, ev)
	b.last.N++
	b.t.n++
}

// AppendEvents adds a batch of events.
func (b *Builder) AppendEvents(evs []trace.Event) {
	for i := range evs {
		b.Append(&evs[i])
	}
}

// Len returns the number of rows appended so far.
func (b *Builder) Len() int { return b.t.n }

// Finish seals and returns the table. The builder must not be used after.
func (b *Builder) Finish() *Table {
	t := b.t
	b.t, b.last = nil, nil
	if k := len(t.chunks); k > 0 {
		t.chunks[k-1].trim()
	}
	return t
}

// trim reslices a partially filled chunk's columns to its row count so
// range loops over columns never see unfilled tail rows.
func (c *Chunk) trim() {
	n := c.N
	c.Level = c.Level[:n]
	c.Op = c.Op[:n]
	c.Lib = c.Lib[:n]
	c.Rank = c.Rank[:n]
	c.Node = c.Node[:n]
	c.App = c.App[:n]
	c.File = c.File[:n]
	c.Offset = c.Offset[:n]
	c.Size = c.Size[:n]
	c.Start = c.Start[:n]
	c.End = c.End[:n]
}

// FromTrace transposes a trace's events into column chunks, one worker per
// chunk (transposition is positional, so parallelism cannot affect the
// result).
func FromTrace(t *trace.Trace) *Table { return FromEvents(t.Events, 0) }

// FromEvents transposes an event slice into column chunks using up to par
// workers (par <= 0 means GOMAXPROCS).
func FromEvents(evs []trace.Event, par int) *Table {
	n := len(evs)
	tb := &Table{n: n, uniform: true}
	nchunks := (n + ChunkRows - 1) / ChunkRows
	tb.chunks = make([]*Chunk, nchunks)
	parallel.ForEach(par, nchunks, func(k int) {
		lo := k << chunkShift
		hi := lo + ChunkRows
		if hi > n {
			hi = n
		}
		c := newChunk(lo, hi-lo)
		for j, i := 0, lo; i < hi; i, j = i+1, j+1 {
			c.set(j, &evs[i])
		}
		tb.chunks[k] = c
	})
	return tb
}

// Pred is a row predicate over global row indices.
type Pred func(i int) bool

// Indices returns the row indices satisfying pred, in order.
func (t *Table) Indices(pred Pred) []int {
	var idx []int
	for _, c := range t.chunks {
		for j := 0; j < c.N; j++ {
			if pred(c.Base + j) {
				idx = append(idx, c.Base+j)
			}
		}
	}
	return idx
}

// Select materializes the rows satisfying pred into a new table.
func (t *Table) Select(pred Pred) *Table {
	return t.Take(t.Indices(pred))
}

// Take materializes the given rows into a new table.
func (t *Table) Take(idx []int) *Table {
	out := &Table{n: len(idx), uniform: true}
	for len(idx) > 0 {
		rows := len(idx)
		if rows > ChunkRows {
			rows = ChunkRows
		}
		c := newChunk(len(out.chunks)<<chunkShift, rows)
		for k := 0; k < rows; k++ {
			src, j := t.loc(idx[k])
			c.copyRow(k, src, j)
		}
		out.chunks = append(out.chunks, c)
		idx = idx[rows:]
	}
	return out
}

// Count counts rows satisfying pred (nil = all), fanning out over chunks
// with up to par workers (par <= 0 means GOMAXPROCS, 1 is sequential).
func (t *Table) Count(par int, pred Pred) int {
	if pred == nil {
		return t.n
	}
	parts := make([]int64, len(t.chunks))
	parallel.ForEach(par, len(t.chunks), func(k int) {
		c := t.chunks[k]
		var n int64
		for j := 0; j < c.N; j++ {
			if pred(c.Base + j) {
				n++
			}
		}
		parts[k] = n
	})
	var n int64
	for _, p := range parts {
		n += p
	}
	return int(n)
}

// SumSize sums the Size column over rows satisfying pred (nil = all),
// chunk-parallel with a deterministic in-order reduction.
func (t *Table) SumSize(par int, pred Pred) int64 {
	parts := make([]int64, len(t.chunks))
	parallel.ForEach(par, len(t.chunks), func(k int) {
		c := t.chunks[k]
		var sum int64
		if pred == nil {
			for _, s := range c.Size {
				sum += s
			}
		} else {
			for j := 0; j < c.N; j++ {
				if pred(c.Base + j) {
					sum += c.Size[j]
				}
			}
		}
		parts[k] = sum
	})
	var sum int64
	for _, p := range parts {
		sum += p
	}
	return sum
}

// SumDur sums row durations over rows satisfying pred (nil = all),
// chunk-parallel with a deterministic in-order reduction.
func (t *Table) SumDur(par int, pred Pred) time.Duration {
	parts := make([]int64, len(t.chunks))
	parallel.ForEach(par, len(t.chunks), func(k int) {
		c := t.chunks[k]
		var sum int64
		for j := 0; j < c.N; j++ {
			if pred == nil || pred(c.Base+j) {
				sum += c.End[j] - c.Start[j]
			}
		}
		parts[k] = sum
	})
	var sum int64
	for _, p := range parts {
		sum += p
	}
	return time.Duration(sum)
}

// Agg is one aggregate slot of a fused scan: rows matching Pred contribute
// to Count, Bytes (Size column) and DurNS (End-Start).
type Agg struct {
	Pred  Pred
	Count int64
	Bytes int64
	DurNS int64
}

// Dur returns the accumulated duration.
func (a *Agg) Dur() time.Duration { return time.Duration(a.DurNS) }

// Scan computes every aggregate in a single fused pass over the table:
// each chunk is scanned once, evaluating all predicates per row, and the
// per-chunk partials reduce in chunk order, so one traversal of the data
// answers many questions and the result is identical at any parallelism.
func (t *Table) Scan(par int, aggs ...*Agg) {
	if len(aggs) == 0 {
		return
	}
	parts := make([][]Agg, len(t.chunks))
	parallel.ForEach(par, len(t.chunks), func(k int) {
		c := t.chunks[k]
		local := make([]Agg, len(aggs))
		for j := 0; j < c.N; j++ {
			i := c.Base + j
			for a := range aggs {
				if aggs[a].Pred == nil || aggs[a].Pred(i) {
					local[a].Count++
					local[a].Bytes += c.Size[j]
					local[a].DurNS += c.End[j] - c.Start[j]
				}
			}
		}
		parts[k] = local
	})
	for _, local := range parts {
		for a := range aggs {
			aggs[a].Count += local[a].Count
			aggs[a].Bytes += local[a].Bytes
			aggs[a].DurNS += local[a].DurNS
		}
	}
}

// MinStart returns the table's earliest start time (0 for an empty table).
func (t *Table) MinStart() time.Duration {
	if t.n == 0 {
		return 0
	}
	min := t.chunks[0].Start[0]
	for _, c := range t.chunks {
		for _, s := range c.Start {
			if s < min {
				min = s
			}
		}
	}
	return time.Duration(min)
}

// MaxEnd returns the latest end time in the table (0 for an empty table).
func (t *Table) MaxEnd() time.Duration {
	var max int64
	for _, c := range t.chunks {
		for _, e := range c.End {
			if e > max {
				max = e
			}
		}
	}
	return time.Duration(max)
}

// Col names an int32 key column for group-by operations.
type Col int

// Groupable columns.
const (
	ColRank Col = iota
	ColNode
	ColApp
	ColFile
)

func (c *Chunk) col(col Col) []int32 {
	switch col {
	case ColRank:
		return c.Rank
	case ColNode:
		return c.Node
	case ColApp:
		return c.App
	case ColFile:
		return c.File
	}
	return nil
}

// ForEachChunk invokes fn over the table's chunks in order — the streamed
// aggregation pattern the paper runs through DASK partitions.
func (t *Table) ForEachChunk(fn func(*Chunk)) {
	for _, c := range t.chunks {
		fn(c)
	}
}
