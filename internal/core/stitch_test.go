package core

import (
	"time"

	"vani/internal/colstore"
)

// streams builds a stream partial into a list of its own; stitchIOTime and
// stitchPhases run the merged accumulator's stitches of the same names over
// a scratch of their own.

func (s *partScratch) streams(c *colstore.Chunk, rows []rowRange) streamPart {
	return s.streamsInto(c, rows, nil)
}

func stitchIOTime(parts []chunkPart) time.Duration {
	var s partScratch
	return s.stitchIOTime(parts)
}

func stitchPhases(parts []chunkPart, gap int64, rankSlots int) ([]IOPhaseEntity, Granularity) {
	var s partScratch
	return s.stitchPhases(parts, gap, rankSlots)
}
