package trace_test

import (
	"context"
	"errors"
	"fmt"

	"vani/internal/core"
	"vani/internal/trace"
)

// The analyzer's half of FuzzBlockReader's property: whatever bytes open as
// a block log either characterize or fail as malformed (or over the
// analyzer's stated budget) — a panic fails the fuzz target on its own —
// unfiltered and under filters that send fuzzed segments through row
// selection, and every call hands back each pooled column it took.
func init() {
	trace.CharacterizeLog = func(br *trace.BlockReader) error {
		for _, f := range fuzzFilters(br) {
			inUse := trace.ColumnsInUse()
			opt := core.DefaultOptions()
			opt.Filter = f
			_, err := core.AnalyzeBlocksContext(context.Background(), br, opt)
			if err != nil && !errors.Is(err, trace.ErrBadFormat) && !errors.Is(err, core.ErrTooLarge) {
				return fmt.Errorf("filter %+v: error %w is neither ErrBadFormat nor ErrTooLarge", f, err)
			}
			if got := trace.ColumnsInUse(); got != inUse {
				return fmt.Errorf("filter %+v: %d pooled columns never came back", f, got-inUse)
			}
		}
		return nil
	}
}

// fuzzFilters returns the unfiltered scan plus three filter shapes: a
// window whose edges fall inside the first and last blocks' start ranges
// with ranks, levels and ops; a single rank; and a level with an op class.
func fuzzFilters(br *trace.BlockReader) []trace.Filter {
	window := trace.Filter{Ranks: []int32{0, 1, 3}, Levels: []trace.Level{trace.LevelPosix}, Ops: trace.OpClassData}
	if nb := br.NumBlocks(); nb > 0 {
		first, last := br.BlockAt(0), br.BlockAt(nb-1)
		window.From = first.MinStart + (first.MaxStart-first.MinStart)/2
		window.To = last.MinStart + (last.MaxStart-last.MinStart)/2 + 1
	}
	return []trace.Filter{
		{},
		window,
		{Ranks: []int32{1}},
		{Levels: []trace.Level{trace.LevelPosix}, Ops: trace.OpClassMeta},
	}
}
