package core

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
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
// materializes one fixed column set per chunk and iterates its rows.
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
// reuse across chunks.
type pass2Acc struct {
	files                 []*fileAgg
	readBytes, writeBytes int64
	readHist, writeHist   stats.SizeHistogram
	readTL, writeTL       *stats.Timeline
	perRank               []rankAcc
	apps                  []appAcc
	posixSizes            sizeTally
	seen                  []setSeen // per rank slot, see noteSets
	partScratch
}

type setSeen struct {
	file, node, app int32
	did             uint8 // which op classes' sets took the tuple
}

const didMeta, didRead, didWrite uint8 = 1, 2, 4

func (a *analysis) newPass2Acc() *pass2Acc {
	span := a.runtime
	if span <= 0 {
		span = time.Second
	}
	return &pass2Acc{
		files:       make([]*fileAgg, a.fileSlots),
		perRank:     make([]rankAcc, a.rankSlots),
		readTL:      stats.NewTimeline(span, a.opt.TimelineBins),
		writeTL:     stats.NewTimeline(span, a.opt.TimelineBins),
		apps:        newAppAccs(a.appSlots),
		seen:        make([]setSeen, a.rankSlots),
		partScratch: newPartScratch(a.rankSlots),
	}
}

// merge folds another worker's accumulators into p: integer sums, set
// unions and minima, so the order of merging cannot show.
func (p *pass2Acc) merge(o *pass2Acc) {
	for si, fa := range o.files {
		if cur := p.files[si]; cur != nil && fa != nil {
			cur.merge(fa)
		} else if fa != nil {
			p.files[si] = fa
		}
	}
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
// primary level, the per-app rank counts, the runtime and GPU use. Each
// pass declares its column set and Requires it per chunk, so a lazily
// planned table decodes exactly the columns the pass touches.
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
		if errs[k] = c.Require(pass1Cols); errs[k] != nil {
			return
		}
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
func (a *analysis) scanChunk(k int, p *pass2Acc) (*colstore.Chunk, error) {
	c := a.tb.ChunkAt(k)
	if err := c.Require(pass2Cols | partialCols); err != nil {
		return nil, err
	}
	p.primary, p.posix = p.primary[:0], p.posix[:0]
	rowPass2(c, a.levels, a.fileSlots, p)
	return c, nil
}

// pass2 is the characterization scan, and the last pass over the rows: each
// worker follows a chunk's body with the chunk's partials (partials.go)
// while its columns are hot, so nothing per-row survives the chunk.
func (a *analysis) pass2() ([]*pass2Acc, error) {
	nchunks := a.tb.NumChunks()
	errs := make([]error, nchunks)
	p2 := make([]*pass2Acc, parallel.Workers(a.par, nchunks))
	a.parts = make([]chunkPart, nchunks)
	parallel.ForEachWorker(a.par, nchunks, func(w, k int) {
		if errs[k] = a.ctx.Err(); errs[k] != nil {
			return
		}
		if p2[w] == nil {
			p2[w] = a.newPass2Acc()
		}
		p := p2[w]
		var c *colstore.Chunk
		if c, errs[k] = a.scanChunk(k, p); errs[k] != nil {
			return
		}
		part := &a.parts[k]
		part.prim, part.posix = p.streams(c, p.primary), p.streams(c, p.posix)
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
	for _, fa := range a.acc.files {
		if fa != nil {
			a.files = append(a.files, fa)
		}
	}
	for si := range a.acc.apps {
		a.primData += a.acc.apps[si].data
		a.primMeta += a.acc.apps[si].rows - a.acc.apps[si].data
	}
	a.posixGran = a.acc.posixSizes.granularity()
	a.primPattern = stitchPattern(a.parts, func(p *chunkPart) *streamPart { return &p.prim })
	a.posixPattern = stitchPattern(a.parts, func(p *chunkPart) *streamPart { return &p.posix })
	a.ioTime = stitchIOTime(a.parts)
	a.phases, a.primGran = stitchPhases(a.parts, int64(a.opt.PhaseGap), a.rankSlots)
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
			fa = p.files[int(c.File[j])+1]
			if fa == nil {
				fa = newFileAgg(c.File[j])
				p.files[int(c.File[j])+1] = fa
			}
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
			fa.noteSets(&p.seen[int(c.Rank[j])+1], c.Rank[j], c.Node[j], c.App[j], need)
		}
	}
}

// noteSets records a row's rank, node and app in the file's sets. A rank
// works through one file at a time, so sn — the rank's slot of the worker's
// seen table — usually names this very (file, node, app) with the needed
// sets already written, and the row costs three compares instead of up to
// four map writes. The comparison is on the whole tuple: workflow
// applications share ranks.
func (fa *fileAgg) noteSets(sn *setSeen, rank, node, app int32, need uint8) {
	if sn.file != fa.id || sn.node != node || sn.app != app {
		*sn = setSeen{file: fa.id, node: node, app: app}
	}
	if need&^sn.did == 0 {
		return
	}
	sn.did |= need
	fa.ranks[rank] = true
	if need&didRead != 0 {
		fa.readerRanks[rank], fa.readerNodes[node], fa.readerApps[app] = true, true, true
	}
	if need&didWrite != 0 {
		fa.writerRanks[rank], fa.writerNodes[node], fa.writerApps[app] = true, true, true
	}
}
