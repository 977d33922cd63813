// Package pipeline is the trace-to-characterization read path shared by
// the root facade, the vanid service, and the trace repository: open the
// log (block-indexed VANITRC2 or serial VANITRC1), columnarize under the
// pushed-down filter, and run the analyzer. It lives below the facade so
// internal subsystems (repo's fleet queries) can characterize stored
// traces without importing package vani.
package pipeline

import (
	"context"
	"fmt"
	"io"
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

	var head [8]byte
	if _, err := io.ReadFull(f, head[:]); err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, trace.ErrBadFormat)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	if format, ok := trace.SniffMagic(head[:]); ok && format == trace.FormatV2 {
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

	sc, err := trace.NewScanner(f)
	if err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	t0 := time.Now()
	b := colstore.NewBuilder()
	buf := make([]trace.Event, 8192)
	m := opt.Filter.NewMatcher()
	filtered := !opt.Filter.Empty()
	var rowsTotal int64
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		n, err := sc.Next(buf)
		if filtered {
			for i := range buf[:n] {
				if m.MatchEvent(&buf[i]) {
					b.Append(&buf[i])
				}
			}
		} else {
			b.AppendEvents(buf[:n])
		}
		rowsTotal += int64(n)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("reading %s: %w", path, err)
		}
	}
	tb := b.Finish()
	if opt.Stats != nil {
		opt.Stats.Columnarize = time.Since(t0)
		opt.Stats.Scan = colstore.ScanCounters{
			RowsTotal: rowsTotal,
			RowsKept:  int64(tb.Len()),
		}
	}
	c, err := core.AnalyzeTableContext(ctx, sc.Header(), tb, opt)
	if err != nil {
		return nil, wrapReadErr(path, err)
	}
	return c, nil
}

// Blocks analyzes a VANITRC2 block source — a BlockReader over an open
// file, or a shared decoded-block cache like vanid's — through the
// planned-scan path: the filter pushes down to the block index, predicates
// evaluate in the compressed domain where the kernel registry serves them,
// and the analyzer's scan walks key spans over chunks that kept their run
// summaries, materializing only the columns its pass bodies read. The
// characterization is byte-identical to File over the same log.
func Blocks(ctx context.Context, src trace.BlockSource, opt core.Options) (*core.Characterization, error) {
	t0 := time.Now()
	stats := &colstore.ScanStats{}
	spec := colstore.ScanSpec{Filter: opt.Filter}
	tb, err := colstore.FromBlocksSpecContext(ctx, src, opt.Parallelism, spec, stats)
	if err != nil {
		return nil, err
	}
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
