package core

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"
	"time"

	"vani/internal/colstore"
	"vani/internal/parallel"
	"vani/internal/stats"
	"vani/internal/trace"
)

// The analyzer's one scan. The key columns store the trace's interned dense
// ids, so once colstore.UnifyCodes has bounded each of them, everything the
// scan keys on (app, file) or rank is a flat array indexed by value+1. Two
// chunk-parallel passes follow — pass 1 resolves each (app, file) stream's
// primary level, pass 2 characterizes at those levels — and each pass
// iterates every chunk's rows.
//
// Accumulators are held per worker, not per chunk: each is an integer sum,
// a set union or a minimum, so which chunks a worker happened to take
// cannot change the merged value, and the scan's memory is O(workers × ids)
// however long the trace. What depends on the table's row order is kept
// per chunk, as the small ordered partials of partials.go; the row subsets
// themselves are worker scratch.

// maxDenseCells is the scan's one memory budget: the (app × file) primary
// level matrix and the (app × rank) membership bitsets may each span at
// most this many cells per worker. The id spaces come from the trace's own
// interned tables, so only a trace that interns millions of files across
// many applications can reach it, and one that does is refused with an
// ErrTooLarge error naming the product — never analyzed some other, slower
// way.
const maxDenseCells = 1 << 21

// ErrTooLarge is wrapped by the error the analyzer returns for a trace
// whose id spaces exceed its memory budget.
var ErrTooLarge = errors.New("core: trace exceeds the analyzer's memory budget")

// pass1Acc is one worker's partial of the level-resolution pass: levels is
// the (app, file) primary-level matrix storing level+1 (0 = unset) — the
// highest abstraction through which that application touched that file,
// so counting there avoids double-counting one logical operation across
// layers while keeping POSIX-only side traffic visible — and ranks the
// per-app bitsets of ranks that emitted any event.
type pass1Acc struct {
	levels []uint16
	maxEnd int64
	gpu    bool
	ranks  [][]uint64
}

// pass2Acc is one worker's partial of the characterization pass, every
// table indexed by value+1, followed by the scratch its partial builders
// reuse across chunks. Accumulators are recycled across analyses through
// accs; reset sizes one to an analysis.
type pass2Acc struct {
	files                 []fileAgg
	touches, touchBuf     []fileTouch // see noteSets; touchBuf is sort scratch
	readBytes, writeBytes int64
	readHist, writeHist   stats.SizeHistogram
	readTL, writeTL       *stats.Timeline
	perRank               []rankAcc
	apps                  []appAcc
	posixSizes            sizeTally
	seen                  []setSeen // per rank slot, see noteSets
	// The merged accumulator's file summaries and their app lists
	// (summarize).
	sums    []fileSum
	sumApps []int32
	partScratch
}

type setSeen struct {
	file, node, app int32
	did             uint8 // which op classes' sets took the tuple
}

const didMeta, didRead, didWrite uint8 = 1, 2, 4

// accs holds pass 2's accumulators between analyses, scratch and all, by
// the bit length of the file-slot count they were last sized for: an
// analysis takes accumulators already about its size, so a large trace does
// not regrow small ones another analysis left.
var accs [33]parallel.FreeList[pass2Acc]

// accList returns the list of accumulators last sized for fileSlots file
// slots.
func accList(fileSlots int) *parallel.FreeList[pass2Acc] {
	return &accs[bits.Len32(uint32(fileSlots))]
}

// putPass2Acc hands p, last sized for fileSlots file slots, back to accs.
func putPass2Acc(p *pass2Acc, fileSlots int) {
	p.readTL, p.writeTL = nil, nil
	if poisonAccs.Load() {
		p.poison()
	}
	accList(fileSlots).Put(p)
}

// poisonAccs makes release overwrite every accumulator it hands back to
// accs; tests set it to prove that reset clears all an analysis reads and
// that no report aliases a recycled accumulator.
var poisonAccs atomic.Bool

// newPass2Acc returns a recycled or new accumulator, reset for a.
func (a *analysis) newPass2Acc() *pass2Acc {
	p := accList(a.fileSlots).Get()
	if p == nil {
		p = &pass2Acc{}
	}
	p.reset(a)
	return p
}

// reset empties p and sizes its tables to a's slot counts, keeping their
// arrays where they are large enough.
func (p *pass2Acc) reset(a *analysis) {
	span := a.runtime
	if span <= 0 {
		span = time.Second
	}
	p.files = resize(p.files, a.fileSlots)
	p.touches = p.touches[:0]
	p.readBytes, p.writeBytes = 0, 0
	p.readHist, p.writeHist = stats.SizeHistogram{}, stats.SizeHistogram{}
	p.readTL = stats.NewTimeline(span, a.opt.TimelineBins)
	p.writeTL = stats.NewTimeline(span, a.opt.TimelineBins)
	p.perRank = resize(p.perRank, a.rankSlots)
	p.apps = resize(p.apps, a.appSlots)
	for i := range p.apps {
		p.apps[i].minStart = math.MaxInt64
	}
	clear(p.posixSizes[0])
	clear(p.posixSizes[1])
	p.seen = resize(p.seen, a.rankSlots)
	p.partScratch.reset(a.rankSlots)
}

// release hands the analysis' accumulators back to accs. The merged one's
// timelines stay with the report. It goes back last, so the next analysis
// of this size draws it first, merges into it again and finds the merged
// lists' room (touches, summaries, stitch buffers) where it left it.
func (a *analysis) release(p2 []*pass2Acc) {
	for _, p := range p2 {
		if p != nil && p != a.acc {
			putPass2Acc(p, a.fileSlots)
		}
	}
	if a.acc != nil {
		putPass2Acc(a.acc, a.fileSlots)
		a.acc, a.files = nil, nil
	}
}

// resize returns s with n zeroed elements, in s's array when it fits.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// merge folds another worker's accumulators into p: integer sums, set
// unions and minima, so the order of merging cannot show.
func (p *pass2Acc) merge(o *pass2Acc) {
	for si := range o.files {
		p.files[si].merge(&o.files[si])
	}
	p.touches = append(p.touches, o.touches...)
	p.readBytes += o.readBytes
	p.writeBytes += o.writeBytes
	p.readHist.Merge(&o.readHist)
	p.writeHist.Merge(&o.writeHist)
	p.readTL.Merge(o.readTL)
	p.writeTL.Merge(o.writeTL)
	for si := range o.perRank {
		if acc, cur := &o.perRank[si], &p.perRank[si]; acc.hit {
			cur.hit = true
			cur.rBytes += acc.rBytes
			cur.wBytes += acc.wBytes
			cur.rDur += acc.rDur
			cur.wDur += acc.wDur
		}
	}
	for si := range o.apps {
		p.apps[si].merge(&o.apps[si])
	}
	p.posixSizes.merge(&o.posixSizes)
}

// firstErr returns the lowest-indexed chunk error.
func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// pass1 bounds the key columns and resolves each (app, file) stream's
// primary level, the per-app rank counts, the runtime and GPU use.
func (a *analysis) pass1() error {
	// Ids are checked against the header's interned tables before anything
	// is sized or indexed by them: a trace whose events name an app or file
	// its header never interned is malformed, whatever decoded it. App 0 is
	// the Event zero value, so traces that intern no app still carry it.
	cards, err := a.tb.UnifyCodes(a.par,
		[]colstore.Col{colstore.ColApp, colstore.ColFile, colstore.ColRank},
		[]int{max(len(a.tr.Apps), 1), len(a.tr.Files), math.MaxInt32})
	if err != nil {
		return err
	}
	apps, files, ranks := cards[0], cards[1], cards[2]
	a.appSlots, a.fileSlots, a.rankSlots = apps+1, files+1, ranks+1
	if int64(a.appSlots)*int64(a.fileSlots) > maxDenseCells || int64(a.appSlots)*int64(a.rankSlots) > maxDenseCells {
		return fmt.Errorf("%w: %d apps × %d files × %d ranks, over %d (app × file) or (app × rank) cells",
			ErrTooLarge, apps, files, ranks, maxDenseCells)
	}
	appSlots, fileSlots := a.appSlots, a.fileSlots
	rankWords := (a.rankSlots + 63) / 64

	nchunks := a.tb.NumChunks()
	errs := make([]error, nchunks)
	p1 := make([]*pass1Acc, parallel.Workers(a.par, nchunks))
	parallel.ForEachWorker(a.par, nchunks, func(w, k int) {
		if errs[k] = a.ctx.Err(); errs[k] != nil {
			return
		}
		c := a.tb.ChunkAt(k)
		p := p1[w]
		if p == nil {
			p = &pass1Acc{
				levels: make([]uint16, appSlots*fileSlots),
				ranks:  make([][]uint64, appSlots),
			}
			p1[w] = p
		}
		for _, e := range c.End {
			p.maxEnd = max(p.maxEnd, e)
		}
		rowPass1(c, fileSlots, rankWords, p)
	})
	if err := firstErr(errs); err != nil {
		return err
	}
	a.levels = make([]uint16, appSlots*fileSlots)
	a.appRanks = make([]int, appSlots)
	var maxEnd int64
	for _, p := range p1 {
		if p == nil {
			continue
		}
		maxEnd = max(maxEnd, p.maxEnd)
		a.gpuUsed = a.gpuUsed || p.gpu
		for i, lv := range p.levels {
			if lv != 0 && (a.levels[i] == 0 || lv < a.levels[i]) {
				a.levels[i] = lv
			}
		}
	}
	for si := range a.appRanks {
		for w := 0; w < rankWords; w++ {
			var word uint64
			for _, p := range p1 {
				if p != nil && p.ranks[si] != nil {
					word |= p.ranks[si][w]
				}
			}
			a.appRanks[si] += bits.OnesCount64(word)
		}
	}
	a.runtime = time.Duration(maxEnd)
	return nil
}

// scanChunk runs pass 2's body over chunk k at the resolved levels: the
// commutative accumulators of p advance, and p.primary and p.posix hold the
// chunk's row subsets until the next call.
func (a *analysis) scanChunk(k int, p *pass2Acc) *colstore.Chunk {
	c := a.tb.ChunkAt(k)
	p.primary, p.posix = p.primary[:0], p.posix[:0]
	rowPass2(c, a.levels, a.fileSlots, p)
	return c
}

// pass2 is the characterization scan, and the last pass over the rows: each
// worker follows a chunk's body with the chunk's partials (partials.go)
// while its columns are hot, so nothing per-row survives the chunk.
func (a *analysis) pass2() ([]*pass2Acc, error) {
	nchunks := a.tb.NumChunks()
	errs := make([]error, nchunks)
	p2 := make([]*pass2Acc, parallel.Workers(a.par, nchunks))
	// Drawn in worker order, so the accumulator stitch merges into, p2[0],
	// is the one the last analysis of this size merged into (release hands
	// it back last) and has room for the merged lists and the partials.
	for w := range p2 {
		p2[w] = a.newPass2Acc()
	}
	if len(p2) > 0 {
		p2[0].parts = reuseParts(p2[0].parts, nchunks)
		a.parts = p2[0].parts
	}
	parallel.ForEachWorker(a.par, nchunks, func(w, k int) {
		if errs[k] = a.ctx.Err(); errs[k] != nil {
			return
		}
		p := p2[w]
		c := a.scanChunk(k, p)
		part := &a.parts[k]
		part.prim = p.streamsInto(c, p.primary, part.prim.ends)
		part.posix = p.streamsInto(c, p.posix, part.posix.ends)
		p.posixSizes.addRows(c, p.posix)
		errs[k] = p.sweep(c, p.primary, int64(a.opt.PhaseGap), part)
	})
	return p2, firstErr(errs)
}

// stitch merges the workers' accumulators into a.acc and combines the
// chunks' ordered partials, serially, in time proportional to ids and
// partials.
func (a *analysis) stitch(p2 []*pass2Acc) {
	for _, p := range p2 {
		if a.acc == nil {
			a.acc = p
		} else if p != nil {
			a.acc.merge(p)
		}
	}
	if a.acc == nil {
		a.acc = a.newPass2Acc()
	}
	a.files = a.acc.summarize()
	for si := range a.acc.apps {
		a.primData += a.acc.apps[si].data
		a.primMeta += a.acc.apps[si].rows - a.acc.apps[si].data
	}
	a.posixGran = a.acc.posixSizes.granularity()
	a.primPattern = stitchPattern(a.acc.last, a.parts, func(p *chunkPart) *streamPart { return &p.prim })
	a.posixPattern = stitchPattern(a.acc.last, a.parts, func(p *chunkPart) *streamPart { return &p.posix })
	a.ioTime = a.acc.stitchIOTime(a.parts)
	a.phases, a.primGran = a.acc.stitchPhases(a.parts, int64(a.opt.PhaseGap), a.rankSlots)
	a.parts = nil
}

// setBit marks slot i in a lazily allocated per-app bitset.
func setBit(sets [][]uint64, si, words, i int) {
	bs := sets[si]
	if bs == nil {
		bs = make([]uint64, words)
		sets[si] = bs
	}
	bs[i>>6] |= 1 << (i & 63)
}

// lowerLevel records level lv for matrix cell idx if it is the lowest seen.
func lowerLevel(levels []uint16, idx int, lv uint8) {
	v := uint16(lv) + 1
	if cur := levels[idx]; cur == 0 || v < cur {
		levels[idx] = v
	}
}

// rowPass1 is pass 1's body over one chunk.
func rowPass1(c *colstore.Chunk, fileSlots, rankWords int, p *pass1Acc) {
	for j := 0; j < c.N; j++ {
		op := trace.Op(c.Op[j])
		if op == trace.OpGPUCompute {
			p.gpu = true
		}
		setBit(p.ranks, int(c.App[j])+1, rankWords, int(c.Rank[j])+1)
		if op.IsIO() {
			lowerLevel(p.levels, (int(c.App[j])+1)*fileSlots+int(c.File[j])+1, c.Level[j])
		}
	}
}

// rowPass2 is pass 2's body over one chunk.
func rowPass2(c *colstore.Chunk, levels []uint16, fileSlots int, p *pass2Acc) {
	for j := 0; j < c.N; j++ {
		op := trace.Op(c.Op[j])
		if !op.IsIO() {
			continue
		}
		if trace.Level(c.Level[j]) == trace.LevelPosix {
			p.posix = appendRange(p.posix, j, j+1)
		}
		if uint16(c.Level[j])+1 != levels[(int(c.App[j])+1)*fileSlots+int(c.File[j])+1] {
			continue
		}
		p.primary = appendRange(p.primary, j, j+1)
		p.apps[int(c.App[j])+1].add(c, j, j+1)
		dur := c.End[j] - c.Start[j]
		var fa *fileAgg
		var need uint8
		if c.File[j] >= 0 {
			fa = &p.files[int(c.File[j])+1]
			fa.ioDur += time.Duration(dur)
			need = didMeta
		}
		acc := &p.perRank[int(c.Rank[j])+1]
		acc.hit = true
		switch op {
		case trace.OpRead:
			p.readBytes += c.Size[j]
			p.readHist.Add(c.Size[j], time.Duration(dur))
			p.readTL.Add(time.Duration(c.Start[j]), time.Duration(c.End[j]), c.Size[j])
			acc.rBytes += c.Size[j]
			acc.rDur += dur
			if fa != nil {
				fa.bytesRead += c.Size[j]
				fa.dataOps++
				need |= didRead
			}
		case trace.OpWrite:
			p.writeBytes += c.Size[j]
			p.writeHist.Add(c.Size[j], time.Duration(dur))
			p.writeTL.Add(time.Duration(c.Start[j]), time.Duration(c.End[j]), c.Size[j])
			acc.wBytes += c.Size[j]
			acc.wDur += dur
			if fa != nil {
				fa.bytesWritten += c.Size[j]
				fa.dataOps++
				need |= didWrite
			}
		case trace.OpOpen:
			if fa != nil {
				fa.opens++
				fa.metaOps++
			}
		default:
			if fa != nil {
				fa.metaOps++
			}
		}
		if need != 0 {
			p.noteSets(&p.seen[int(c.Rank[j])+1], c.File[j], c.Rank[j], c.Node[j], c.App[j], need)
		}
	}
}

// noteSets records that a row of rank did the op classes in need on file,
// from node, for app. A rank works through one file at a time, so sn — the
// rank's slot of the worker's seen table — usually names this very (file,
// node, app) with those classes already noted, and the row costs three
// compares; otherwise the tuple is appended to the worker's touch list,
// which stitch sorts into each file's rank, node and app sets
// (pass2Acc.summarize). The comparison is on the whole tuple: workflow
// applications share ranks.
func (p *pass2Acc) noteSets(sn *setSeen, file, rank, node, app int32, need uint8) {
	if sn.file != file || sn.node != node || sn.app != app {
		*sn = setSeen{file: file, node: node, app: app}
	}
	if need&^sn.did == 0 {
		return
	}
	sn.did |= need
	p.touches = append(p.touches, fileTouch{file: file, rank: rank, node: node, app: app, did: need})
}

// poison overwrites everything p holds, to its slices' capacities, with
// values a cleared accumulator never has: a seen entry claims every op class
// of file 0 from node 0 for app 0, so a reset that keeps one drops touches.
func (p *pass2Acc) poison() {
	fill(p.files, fileAgg{bytesRead: -1 << 40, bytesWritten: 1 << 41, opens: -3, dataOps: -5, metaOps: 1 << 42, ioDur: -1})
	fill(p.touches, fileTouch{file: 0x5a5a5a5a, rank: 3, node: 1, app: 0, did: 7})
	fill(p.touchBuf, fileTouch{file: 0x5a5a5a5a, rank: 3, node: 1, app: 0, did: 7})
	p.readBytes, p.writeBytes = -1<<40, -1<<40
	p.readHist.Count[0], p.writeHist.Bytes[1] = -7, -7
	fill(p.perRank, rankAcc{hit: true, rBytes: -1 << 40, wBytes: 1 << 40, rDur: -1, wDur: 1 << 50})
	fill(p.apps, appAcc{rows: 1 << 40, data: -9, bytes: -1, minStart: -1 << 50, maxEnd: 1 << 60, lib: [8]int64{3, 3, 3, 3, 3, 3, 3, 3}})
	for i := range p.posixSizes {
		if p.posixSizes[i] != nil {
			p.posixSizes[i][1<<41] = 1 << 41
		}
	}
	fill(p.seen, setSeen{did: didMeta | didRead | didWrite})
	fill(p.sums, fileSum{id: -7, ranks: -1, crossRAW: true})
	fill(p.sumApps, 0x5a5a5a5a)
	p.partScratch.poison()
}

// fill sets every element of s, to its capacity, to v.
func fill[T any](s []T, v T) {
	s = s[:cap(s)]
	for i := range s {
		s[i] = v
	}
}
