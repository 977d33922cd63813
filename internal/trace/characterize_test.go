package trace_test

import (
	"context"
	"errors"
	"fmt"

	"vani/internal/core"
	"vani/internal/pipeline"
	"vani/internal/trace"
)

// The analyzer's half of FuzzBlockReader's property: whatever bytes open as
// a block log either characterize or fail as malformed (or over the
// analyzer's stated budget) — a panic fails the fuzz target on its own.
func init() {
	trace.CharacterizeLog = func(br *trace.BlockReader) error {
		_, err := pipeline.Blocks(context.Background(), br, core.DefaultOptions())
		if err != nil && !errors.Is(err, trace.ErrBadFormat) && !errors.Is(err, core.ErrTooLarge) {
			return fmt.Errorf("error %w is neither ErrBadFormat nor ErrTooLarge", err)
		}
		return nil
	}
}
