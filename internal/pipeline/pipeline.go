// Package pipeline is the trace-to-characterization read path shared by
// the root facade, the vanid service, and the trace repository: open the
// log through its block index, columnarize under the pushed-down filter,
// and run the analyzer. It lives below the facade so internal subsystems
// (repo's fleet queries) can characterize stored traces without importing
// package vani.
package pipeline

import (
	"context"
	"fmt"
	"os"
	"time"

	"vani/internal/colstore"
	"vani/internal/core"
	"vani/internal/trace"
)

// File analyzes a trace log on disk with cancellation: ctx is threaded
// through the block reader's physical reads, the column scans, and the
// analyzer's chunk-parallel workers, so a canceled or timed-out request
// stops decoding mid-trace instead of running the log to completion. The
// returned error is ctx.Err() when the abort was a cancellation.
func File(ctx context.Context, path string, opt core.Options) (*core.Characterization, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, err
	}
	br, err := trace.NewBlockReader(trace.ReaderAtContext(ctx, f), info.Size())
	if err != nil {
		return nil, wrapReadErr(path, err)
	}
	c, err := Blocks(ctx, br, opt)
	if err != nil {
		return nil, wrapReadErr(path, err)
	}
	return c, nil
}

// Blocks analyzes a block source — a BlockReader over an open file, or a
// shared decoded-block cache like vanid's — through the planned-scan path:
// the filter pushes down to the block index, predicates evaluate in the
// compressed domain where the segment codecs serve them, and the
// analyzer's scan materializes only the columns its passes read. The
// characterization is byte-identical to File over the same log.
func Blocks(ctx context.Context, src trace.BlockSource, opt core.Options) (*core.Characterization, error) {
	t0 := time.Now()
	stats := &colstore.ScanStats{}
	spec := colstore.ScanSpec{Filter: opt.Filter}
	tb, err := colstore.FromBlocksSpecContext(ctx, src, opt.Parallelism, spec, stats)
	if err != nil {
		return nil, err
	}
	// The table dies here whatever the analyzer returns, and the
	// characterization aliases none of its columns, so the block columns
	// go back for the next request to decode into.
	defer tb.Release()
	if opt.Stats != nil {
		opt.Stats.Columnarize = time.Since(t0)
	}
	c, err := core.AnalyzeTableContext(ctx, src.Header(), tb, opt)
	if err != nil {
		return nil, err
	}
	// Snapshot after analysis: lazily materialized columns add their
	// decoded bytes during the kernels' Require calls.
	if opt.Stats != nil {
		opt.Stats.Scan = stats.Snapshot()
	}
	return c, nil
}

// wrapReadErr attributes a read-path failure to its file, but leaves
// context errors bare so callers can distinguish cancellation.
func wrapReadErr(path string, err error) error {
	if trace.IsCtxErr(err) {
		return err
	}
	return fmt.Errorf("reading %s: %w", path, err)
}
