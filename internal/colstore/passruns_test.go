package colstore

import (
	"math/bits"
	"testing"
	"time"

	"vani/internal/trace"
)

// ruleBlock is the block size of ruleTrace's logs.
const ruleBlock = 4096

// ruleTrace builds a log of seven blocks of ruleBlock events (the last one
// short) over a monotone clock: in even blocks level, op and rank each hold
// one value, which differs between blocks; in odd blocks all three change
// in runs of different lengths.
func ruleTrace() *trace.Trace {
	tr := trace.NewTracer()
	app, file := tr.AppID("app"), tr.FileID("/f")
	levels := []trace.Level{trace.LevelPosix, trace.LevelMiddleware, trace.LevelApp}
	ops := []trace.Op{trace.OpWrite, trace.OpRead, trace.OpOpen, trace.OpClose}
	for i := 0; i < 6*ruleBlock+777; i++ {
		lv, op, rank := i/311, i/97, i/53
		if b := i / ruleBlock; b%2 == 0 {
			lv, op, rank = b/2, b/2, b/2
		}
		start := time.Duration(i) * time.Microsecond
		tr.Record(trace.Event{
			Level: levels[lv%len(levels)], Op: ops[op%len(ops)], Rank: int32(rank % 8),
			Node: int32(rank % 8 / 4), App: app, File: file,
			Offset: int64(i) * 512, Size: 512, Start: start, End: start + time.Microsecond,
		})
	}
	return tr.Finish()
}

// segKind names what a level/op/rank segment came out as. The kinds up to
// kindDict are the ones the predicate kernel turns into pass runs.
type segKind int

const (
	kindConst segKind = iota
	kindRLE
	kindDict
	kindFOR
	kindRaw
	numSegKinds
)

var segKindNames = [numSegKinds]string{"constant", "rle", "dict", "for", "raw"}

// kindOf classifies one column segment of a block from its footer codec
// and the block's events: a FOR segment of one value is the writer's
// constant.
func kindOf(bi trace.BlockInfo, col trace.ColSet, evs []trace.Event, val func(*trace.Event) int64) segKind {
	switch bi.SegCodecs[bits.TrailingZeros64(uint64(col))] {
	case trace.SegCodecRLE:
		return kindRLE
	case trace.SegCodecDict:
		return kindDict
	case trace.SegCodecFOR:
		for i := range evs {
			if val(&evs[i]) != val(&evs[0]) {
				return kindFOR
			}
		}
		return kindConst
	}
	return kindRaw
}

// TestPassRunsPerDimensionRule pins the predicate kernel's rule: a
// constrained level, op or rank dimension becomes pass runs when its
// segment is a constant, RLE or dict, and is tested on decoded rows
// otherwise (FOR, raw, and always Start). Over logs whose segments come
// out as each kind, under filters on one, two and three dimensions, with
// and without a window whose edges cut blocks, the table holds exactly
// the rows trace.FilterEvents keeps, KPredicate is served on exactly the
// blocks where some dimension became runs, and RunIsect ticks on exactly
// the blocks constrained by two or more of level/op/rank and nothing else,
// served when all of them became runs.
func TestPassRunsPerDimensionRule(t *testing.T) {
	tr := ruleTrace()
	dims := []struct {
		set trace.ColSet
		val func(*trace.Event) int64
	}{
		{trace.ColLevel, func(e *trace.Event) int64 { return int64(e.Level) }},
		{trace.ColOp, func(e *trace.Event) int64 { return int64(e.Op) }},
		{trace.ColRank, func(e *trace.Event) int64 { return int64(e.Rank) }},
	}
	ranks, levels, ops := []int32{1, 2, 5}, []trace.Level{trace.LevelPosix}, trace.OpClassData
	shapes := map[string]trace.Filter{
		"rank":               {Ranks: ranks},
		"level":              {Levels: levels},
		"op":                 {Ops: ops},
		"rank+op":            {Ranks: ranks, Ops: ops},
		"level+op":           {Levels: levels, Ops: ops},
		"rank+level":         {Ranks: ranks, Levels: levels},
		"rank+level+op":      {Ranks: ranks, Levels: levels, Ops: ops},
		"rank+level+op wide": {Ranks: []int32{0, 3}, Levels: []trace.Level{trace.LevelPosix, trace.LevelApp}, Ops: trace.OpClassIO},
	}
	half := ruleBlock / 2 * time.Microsecond
	window := [2]time.Duration{ruleBlock*time.Microsecond + half, 4*ruleBlock*time.Microsecond + half}
	codecs := map[string]trace.CodecMode{
		"auto": trace.CodecAuto, "raw": trace.CodecForceRaw, "rle": trace.CodecForceRLE,
		"dict": trace.CodecForceDict, "for": trace.CodecForceFOR,
	}
	var seen [numSegKinds]int
	for cname, codec := range codecs {
		br := blockReaderFor(t, tr, trace.V2Options{BlockEvents: ruleBlock, Codec: codec})
		for fname, shape := range shapes {
			for _, windowed := range []bool{false, true} {
				f := shape
				if windowed {
					f.From, f.To = window[0], window[1]
				}
				var stats ScanStats
				assertEvents(t, trace.FilterEvents(tr.Events, f), plan(t, br, 2, ScanSpec{Filter: f}, &stats))

				var want [4]int64 // KPredicate served, fallback; RunIsect served, fallback
				m := f.NewMatcher()
				for k := 0; k < br.NumBlocks(); k++ {
					bi := br.BlockAt(k)
					need := m.NeedColsBlock(bi)
					if m.SkipBlock(bi) || need == 0 {
						continue
					}
					evs := tr.Events[k*ruleBlock : min((k+1)*ruleBlock, len(tr.Events))]
					var runs trace.ColSet
					for _, d := range dims {
						if need&d.set == 0 {
							continue
						}
						kind := kindOf(bi, d.set, evs, d.val)
						seen[kind]++
						if kind <= kindDict {
							runs |= d.set
						}
					}
					if runs != 0 {
						want[0]++
					} else {
						want[1]++
					}
					if need&trace.ColStart == 0 && bits.OnesCount64(uint64(need)) >= 2 {
						if runs == need {
							want[2]++
						} else {
							want[3]++
						}
					}
				}
				got := [4]int64{
					stats.KernelServed[KPredicate].Load(), stats.KernelFallback[KPredicate].Load(),
					stats.RunIsectServed.Load(), stats.RunIsectFallback.Load(),
				}
				if got != want {
					t.Errorf("%s/%s window=%v: predicate served/fallback, runisect served/fallback = %v, the rule predicts %v",
						cname, fname, windowed, got, want)
				}
			}
		}
	}
	for kind, n := range seen {
		if n == 0 {
			t.Errorf("no constrained dimension came out as a %s segment", segKindNames[kind])
		}
	}
}
