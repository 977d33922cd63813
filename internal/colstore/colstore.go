// Package colstore converts row-major trace logs into the chunked
// column-major table the analyzer scans.
//
// The paper's Analyzer first converts Recorder's row-major logs to parquet
// "as a necessary first step, as filtering and aggregation operations in
// memory are highly inefficient for this format", then analyzes them
// out-of-core and in parallel with DASK. This package plays the parquet
// role: each event field becomes a typed column stored in chunks (the
// parquet row-group / DASK partition analogue). A table planned from a block
// log (FromBlocksSpecContext) has one chunk per surviving block, whatever the
// block's size, whose columns materialize on demand; an in-memory trace
// (FromEvents) transposes into ChunkRows-row chunks. The analyzer fans its
// passes out over chunks and reduces their partials in chunk order, so
// parallel analysis is bit-identical to sequential. The row-vs-column
// ablation benchmark quantifies the paper's claim.
package colstore

import (
	"vani/internal/parallel"
	"vani/internal/trace"
)

// ChunkRows is the number of rows per chunk of a table transposed from
// memory (the last chunk may hold fewer). It equals the default block size,
// so a default-geometry log and its in-memory trace chunk alike.
const ChunkRows = 1 << 14

// Chunk is one block of rows with contiguous per-column storage. Chunks
// transposed from memory hold every column at length N; chunks built by
// FromBlocksSpecContext materialize columns on demand — a column slice is
// nil until Require (or Table.MaterializeContext) decodes it, so kernels
// must Require the columns they read before touching a planned table's
// slices.
type Chunk struct {
	N int

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

	// exact marks a block shorter than half a pool array that is not its
	// log's last (the one short block a default-geometry log has): adopt
	// copies even the columns it keeps whole to exact size and hands the
	// arrays straight back, so a log of short blocks holds memory in
	// proportion to its rows, not its block count. Blocks up to the default
	// size decode into pool arrays; larger ones into exact fresh slices.
	exact bool
}

func newChunk(rows int) *Chunk {
	return &Chunk{
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

// Table is a chunked column-major event table. Its chunks need not share a
// size: a planned scan's chunk is one surviving block, or the rows of it a
// filter kept.
type Table struct {
	n      int
	chunks []*Chunk

	// stats is the scan's ScanStats when the table came from a planned
	// block scan; kernel served/fallback requests tick into it. Nil for
	// tables transposed from memory.
	stats *ScanStats
}

// Len returns the number of rows.
func (t *Table) Len() int { return t.n }

// NumChunks returns the number of chunks.
func (t *Table) NumChunks() int { return len(t.chunks) }

// ChunkAt returns chunk k.
func (t *Table) ChunkAt(k int) *Chunk { return t.chunks[k] }

// FromEvents transposes an event slice into column chunks using up to par
// workers (par <= 0 means GOMAXPROCS). Transposition is positional, so
// parallelism cannot affect the result.
func FromEvents(evs []trace.Event, par int) *Table {
	n := len(evs)
	tb := &Table{n: n}
	nchunks := (n + ChunkRows - 1) / ChunkRows
	tb.chunks = make([]*Chunk, nchunks)
	parallel.ForEach(par, nchunks, func(k int) {
		rows := evs[k*ChunkRows : min((k+1)*ChunkRows, n)]
		c := newChunk(len(rows))
		for j := range rows {
			ev := &rows[j]
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
		tb.chunks[k] = c
	})
	return tb
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
