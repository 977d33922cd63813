package core

import (
	"bytes"
	"context"
	"sync/atomic"
	"testing"
	_ "unsafe" // for go:linkname

	"vani/internal/spec"
	"vani/internal/trace"
	"vani/internal/yamlenc"
)

// tracePoison is internal/trace's poisonRecycled switch: while it is set,
// every column slice handed back to the pools is overwritten with a
// sentinel. Linking to it keeps the switch out of trace's API.
//
//go:linkname tracePoison vani/internal/trace.poisonRecycled
var tracePoison atomic.Bool

// TestAnalyzeContextReleasesColumns: an in-memory analysis transposes the
// trace into pooled columns and hands every one back when it ends, so
// ColumnsInUse is where it was after each call. With every returned column
// poisoned, the seven golden workloads' traces characterize at Parallelism
// 1 and 4, twice over — each analysis transposing into columns the one
// before it released — to the bytes they had before anything was poisoned:
// the characterization aliases none of the table, and the transpose writes
// every row it reads.
func TestAnalyzeContextReleasesColumns(t *testing.T) {
	ctx := context.Background()
	var (
		traces []*trace.Trace
		opts   []Options
		want   [][]byte
	)
	for _, w := range spec.All() {
		sp := w.DefaultSpec()
		sp.Nodes, sp.Scale = 2, 0.02
		sp.RanksPerNode = min(sp.RanksPerNode, 8)
		res, err := w.Run(sp)
		if err != nil {
			t.Fatalf("Run(%s): %v", w.Name(), err)
		}
		opt := DefaultOptions()
		opt.Storage = &sp.Storage
		c, err := AnalyzeContext(ctx, res.Trace, opt)
		if err != nil {
			t.Fatalf("%s: %v", w.Name(), err)
		}
		traces, opts, want = append(traces, res.Trace), append(opts, opt), append(want, yamlenc.Marshal(c))
	}

	tracePoison.Store(true)
	defer tracePoison.Store(false)
	inUse := trace.ColumnsInUse()
	for round := 0; round < 2; round++ {
		for _, par := range []int{1, 4} {
			for i, tr := range traces {
				opt := opts[i]
				opt.Parallelism = par
				c, err := AnalyzeContext(ctx, tr, opt)
				if err != nil {
					t.Fatalf("%s: %v", tr.Meta.Workload, err)
				}
				if got := trace.ColumnsInUse(); got != inUse {
					t.Fatalf("%s round %d par %d: %d pooled columns still out", tr.Meta.Workload, round, par, got-inUse)
				}
				// Rendered after the table went back, poisoned.
				if got := yamlenc.Marshal(c); !bytes.Equal(got, want[i]) {
					t.Fatalf("%s round %d par %d: report differs over recycled columns", tr.Meta.Workload, round, par)
				}
			}
		}
	}
}
