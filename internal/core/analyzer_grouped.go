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
// primary level, pass 2 characterizes at those levels — and each pass has
// two bodies, selected per chunk by what the chunk carries: a chunk with
// run summaries for all five stable key columns rides its key spans (every
// lookup hoisted to span boundaries, op dispatched per same-op sub-run,
// only Op/Size/Start/End materialized), any other chunk materializes the
// pass's column set and iterates rows. Both bodies feed the same
// accumulators with regrouped integer sums over the same rows in the same
// order, so which body served a chunk never shows in the result.
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
// planned table decodes exactly the columns the chunk's pass body touches.
func (a *analysis) pass1() error {
	// Ids are checked against the header's interned tables before anything
	// is sized or indexed by them: a trace whose events name an app or file
	// its header never interned is malformed, whatever decoded it. App 0 is
	// the Event zero value, so traces that intern no app still carry it.
	apps, err := a.tb.UnifyCodes(a.par, colstore.ColApp, max(len(a.tr.Apps), 1))
	if err != nil {
		return err
	}
	files, err := a.tb.UnifyCodes(a.par, colstore.ColFile, len(a.tr.Files))
	if err != nil {
		return err
	}
	ranks, err := a.tb.UnifyCodes(a.par, colstore.ColRank, math.MaxInt32)
	if err != nil {
		return err
	}
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
		spans, spanOK := a.tb.ChunkKeySpans(k, nil)
		need := pass1Cols
		if spanOK {
			need = trace.ColEnd | trace.ColOp
		}
		if errs[k] = c.Require(need); errs[k] != nil {
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
		if spanOK {
			keySpanPass1(c, spans, fileSlots, rankWords, p)
		} else {
			rowPass1(c, fileSlots, rankWords, p)
		}
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
	spans, spanOK := a.tb.ChunkKeySpans(k, nil)
	a.tb.TickAccumKernels(spanOK)
	need := pass2Cols
	if spanOK {
		need = trace.ColOp | trace.ColSize | trace.ColStart | trace.ColEnd
	}
	if err := c.Require(need | partialCols); err != nil {
		return nil, err
	}
	p.primary, p.posix = p.primary[:0], p.posix[:0]
	if spanOK {
		keySpanPass2(c, spans, a.levels, a.fileSlots, p)
	} else {
		rowPass2(c, a.levels, a.fileSlots, p)
	}
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

// keySpanPass1 runs pass 1 over one chunk's key spans: the rank bit and
// the level cell are touched once per span, and only op is read per row.
func keySpanPass1(c *colstore.Chunk, spans []colstore.KeySpan, fileSlots, rankWords int, p *pass1Acc) {
	for _, s := range spans {
		setBit(p.ranks, int(s.App)+1, rankWords, int(s.Rank)+1)
		anyIO := false
		for _, b := range c.Op[s.Lo:s.Hi] {
			op := trace.Op(b)
			if op == trace.OpGPUCompute {
				p.gpu = true
			}
			if op.IsIO() {
				anyIO = true
			}
		}
		if anyIO {
			lowerLevel(p.levels, (int(s.App)+1)*fileSlots+int(s.File)+1, s.Level)
		}
	}
}

// rowPass1 is pass 1's per-row body for chunks without key spans.
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

// addData accumulates rows [lo, hi) of one data op — all reads or all
// writes of one rank — batching equal-size sub-runs through
// SizeHistogram.AddRun and the whole range through Timeline.AddRuns, and
// returns the range's byte and duration totals. Every batched add is a
// regrouped integer sum over the same rows in the same order, so the
// accumulators end bit-identical to per-row adds.
func addData(c *colstore.Chunk, lo, hi int, hist *stats.SizeHistogram, tl *stats.Timeline) (bytes, dur int64) {
	for i := lo; i < hi; {
		sz := c.Size[i]
		dsum := c.End[i] - c.Start[i]
		i2 := i + 1
		for i2 < hi && c.Size[i2] == sz {
			dsum += c.End[i2] - c.Start[i2]
			i2++
		}
		bytes += sz * int64(i2-i)
		dur += dsum
		hist.AddRun(sz, int64(i2-i), time.Duration(dsum))
		i = i2
	}
	tl.AddRuns(c.Start, c.End, c.Size, lo, hi)
	return bytes, dur
}

// keySpanPass2 runs pass 2 over one chunk's key spans: the primary check,
// the file/rank accumulator lookups and the reader/writer set updates
// happen once per span; within a span the op dispatch is hoisted to
// maximal same-op sub-runs, accumulated through addData.
func keySpanPass2(c *colstore.Chunk, spans []colstore.KeySpan, levels []uint16, fileSlots int, p *pass2Acc) {
	for _, s := range spans {
		isPosix := trace.Level(s.Level) == trace.LevelPosix
		isPrim := uint16(s.Level)+1 == levels[(int(s.App)+1)*fileSlots+int(s.File)+1]
		if !isPosix && !isPrim {
			continue // no row of this span can contribute anything
		}
		var fa *fileAgg
		var sawRead, sawWrite bool
		app, acc := &p.apps[int(s.App)+1], &p.perRank[int(s.Rank)+1]
		for j := s.Lo; j < s.Hi; {
			op := trace.Op(c.Op[j])
			j2 := j + 1
			for j2 < s.Hi && c.Op[j2] == c.Op[j] {
				j2++
			}
			lo, hi := j, j2
			j = j2
			if !op.IsIO() {
				continue
			}
			if isPosix {
				p.posix = appendRange(p.posix, lo, hi)
			}
			if !isPrim {
				continue
			}
			p.primary = appendRange(p.primary, lo, hi)
			app.add(c, lo, hi)
			cnt := int64(hi - lo)
			if s.File >= 0 && fa == nil {
				fa = p.files[int(s.File)+1]
				if fa == nil {
					fa = newFileAgg(s.File)
					p.files[int(s.File)+1] = fa
				}
				fa.ranks[s.Rank] = true
			}
			acc.hit = true
			switch op {
			case trace.OpRead:
				bytes, dur := addData(c, lo, hi, &p.readHist, p.readTL)
				p.readBytes += bytes
				acc.rBytes += bytes
				acc.rDur += dur
				if fa != nil {
					fa.bytesRead += bytes
					fa.ioDur += time.Duration(dur)
					fa.dataOps += cnt
					sawRead = true
				}
			case trace.OpWrite:
				bytes, dur := addData(c, lo, hi, &p.writeHist, p.writeTL)
				p.writeBytes += bytes
				acc.wBytes += bytes
				acc.wDur += dur
				if fa != nil {
					fa.bytesWritten += bytes
					fa.ioDur += time.Duration(dur)
					fa.dataOps += cnt
					sawWrite = true
				}
			default:
				if fa != nil {
					var dsum int64
					for i := lo; i < hi; i++ {
						dsum += c.End[i] - c.Start[i]
					}
					fa.ioDur += time.Duration(dsum)
					fa.metaOps += cnt
					if op == trace.OpOpen {
						fa.opens += cnt
					}
				}
			}
		}
		if fa != nil {
			if sawRead {
				fa.readerRanks[s.Rank] = true
				fa.readerNodes[s.Node] = true
				fa.readerApps[s.App] = true
			}
			if sawWrite {
				fa.writerRanks[s.Rank] = true
				fa.writerNodes[s.Node] = true
				fa.writerApps[s.App] = true
			}
		}
	}
}

// rowPass2 is pass 2's per-row body for chunks without key spans.
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
