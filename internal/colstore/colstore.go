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
// block's size, decoded whole by the scan worker that read the block; an
// in-memory trace (FromEvents) transposes into ChunkRows-row chunks. Either
// way every chunk holds every column, in arrays from trace's column pools.
// The analyzer fans its passes out over chunks and reduces their partials
// in chunk order, so parallel analysis is bit-identical to sequential. The row-vs-column
// ablation benchmark quantifies the paper's claim.
package colstore

import (
	"fmt"

	"vani/internal/parallel"
	"vani/internal/trace"
)

// ChunkRows is the number of rows per chunk of a table transposed from
// memory (the last chunk may hold fewer). It equals the default block size,
// so a default-geometry log and its in-memory trace chunk alike.
const ChunkRows = 1 << 14

// Chunk is one block of rows with contiguous per-column storage: every
// column at length N, in arrays from trace's column pools' size classes (or
// at exact size, when too short or too long for a class) that go back on
// Table.Release. The columns came from a block decode or from
// Columns.Transpose.
type Chunk struct {
	trace.Columns
}

// Table is a chunked column-major event table. Its chunks need not share a
// size: a planned scan's chunk is one surviving block, or the rows of it a
// filter kept.
type Table struct {
	n      int
	chunks []*Chunk
}

// Len returns the number of rows.
func (t *Table) Len() int { return t.n }

// NumChunks returns the number of chunks.
func (t *Table) NumChunks() int { return len(t.chunks) }

// ChunkAt returns chunk k.
func (t *Table) ChunkAt(k int) *Chunk { return t.chunks[k] }

// FromEvents transposes an event slice into column chunks using up to par
// workers (par <= 0 means GOMAXPROCS). Transposition is positional, so
// parallelism cannot affect the result. Each chunk adopts the pooled
// columns trace.Columns.Transpose fills, which Table.Release hands back.
func FromEvents(evs []trace.Event, par int) *Table {
	n := len(evs)
	tb := &Table{n: n}
	nchunks := (n + ChunkRows - 1) / ChunkRows
	tb.chunks = make([]*Chunk, nchunks)
	parallel.ForEach(par, nchunks, func(k int) {
		var cols trace.Columns
		cols.Transpose(evs[k*ChunkRows : min((k+1)*ChunkRows, n)])
		c := &Chunk{}
		c.adopt(&cols, nil)
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

// colNames names the groupable key columns, indexed by Col.
var colNames = [...]string{"rank", "node", "app", "file"}

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

// UnifyCodes unifies key columns onto dense scan-global id spaces, one
// per column. Stored values are the trace's interned ids, so the global id
// of a value is the value itself; what unification establishes is each
// column's cardinality — every value cols[i] stores lies in [-1, cards[i]),
// so dense accumulators indexed by value+1 need cards[i]+1 slots — and
// that no value escapes the id table the column indexes: limits[i] is
// that table's length, and a stored value outside [-1, limits[i]) is
// malformed input, reported as an ErrBadFormat-wrapped error before any
// caller sizes anything by it. The chunks scan their columns for their
// ranges in parallel.
func (t *Table) UnifyCodes(par int, cols []Col, limits []int) (cards []int, err error) {
	type valueRange struct{ min, max int32 }
	nc := len(cols)
	parts := make([]valueRange, len(t.chunks)*nc)
	parallel.ForEach(par, len(t.chunks), func(k int) {
		c := t.chunks[k]
		for i, col := range cols {
			r := valueRange{min: -1, max: -1}
			for _, v := range c.col(col) {
				r.min, r.max = min(r.min, v), max(r.max, v)
			}
			parts[k*nc+i] = r
		}
	})
	cards = make([]int, nc)
	for i, col := range cols {
		all := valueRange{min: -1, max: -1}
		for k := range t.chunks {
			r := parts[k*nc+i]
			all.min, all.max = min(all.min, r.min), max(all.max, r.max)
		}
		if all.min < -1 || int64(all.max) >= int64(limits[i]) {
			bad := all.max
			if all.min < -1 {
				bad = all.min
			}
			return nil, fmt.Errorf("colstore: %s id %d outside its table of %d entries: %w",
				colNames[col], bad, limits[i], trace.ErrBadFormat)
		}
		cards[i] = int(all.max) + 1
	}
	return cards, nil
}

// ForEachChunk invokes fn over the table's chunks in order — the streamed
// aggregation pattern the paper runs through DASK partitions.
func (t *Table) ForEachChunk(fn func(*Chunk)) {
	for _, c := range t.chunks {
		fn(c)
	}
}
