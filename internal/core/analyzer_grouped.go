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
// however long the trace. Only the row subsets — whose order is the
// table's row order — are kept per chunk.

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
// table indexed by value+1.
type pass2Acc struct {
	files      []*fileAgg
	readBytes  int64
	writeBytes int64
	data, meta int64
	readHist   stats.SizeHistogram
	writeHist  stats.SizeHistogram
	readTL     *stats.Timeline
	writeTL    *stats.Timeline
	perRank    []rankAcc
}

// fusedScan runs both analyzer passes over the columnar store and leaves
// their merged results on a. Each pass declares its column set and Requires
// it per chunk, so a lazily planned table decodes exactly the columns the
// chunk's pass body touches.
func (a *analysis) fusedScan() error {
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
	appSlots, fileSlots, rankSlots := apps+1, files+1, ranks+1
	if int64(appSlots)*int64(fileSlots) > maxDenseCells || int64(appSlots)*int64(rankSlots) > maxDenseCells {
		return fmt.Errorf("%w: %d apps × %d files × %d ranks, over %d (app × file) or (app × rank) cells",
			ErrTooLarge, apps, files, ranks, maxDenseCells)
	}
	rankWords := (rankSlots + 63) / 64

	nchunks := a.tb.NumChunks()
	workers := parallel.Workers(a.par, nchunks)
	errs := make([]error, nchunks)
	firstErr := func() error {
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	}

	// Pass 1: primary-level matrix, per-app rank bitsets, runtime, GPU.
	p1 := make([]*pass1Acc, workers)
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
			if e > p.maxEnd {
				p.maxEnd = e
			}
		}
		if spanOK {
			keySpanPass1(c, spans, fileSlots, rankWords, p)
		} else {
			rowPass1(c, fileSlots, rankWords, p)
		}
	})
	if err := firstErr(); err != nil {
		return err
	}
	levels := make([]uint16, appSlots*fileSlots)
	a.appRanks = make([]int, appSlots)
	var maxEnd int64
	for _, p := range p1 {
		if p == nil {
			continue
		}
		if p.maxEnd > maxEnd {
			maxEnd = p.maxEnd
		}
		a.gpuUsed = a.gpuUsed || p.gpu
		for i, lv := range p.levels {
			if lv != 0 && (levels[i] == 0 || lv < levels[i]) {
				levels[i] = lv
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

	// Pass 2: the characterization scan at the resolved levels.
	span := a.runtime
	if span <= 0 {
		span = time.Second
	}
	bins := a.opt.TimelineBins
	p2 := make([]*pass2Acc, workers)
	a.rows = make([]chunkRows, nchunks)
	parallel.ForEachWorker(a.par, nchunks, func(w, k int) {
		if errs[k] = a.ctx.Err(); errs[k] != nil {
			return
		}
		c := a.tb.ChunkAt(k)
		spans, spanOK := a.tb.ChunkKeySpans(k, nil)
		a.tb.TickAccumKernels(spanOK)
		need := pass2Cols
		if spanOK {
			need = trace.ColOp | trace.ColSize | trace.ColStart | trace.ColEnd
		}
		if errs[k] = c.Require(need); errs[k] != nil {
			return
		}
		p := p2[w]
		if p == nil {
			p = &pass2Acc{
				files:   make([]*fileAgg, fileSlots),
				perRank: make([]rankAcc, rankSlots),
				readTL:  stats.NewTimeline(span, bins),
				writeTL: stats.NewTimeline(span, bins),
			}
			p2[w] = p
		}
		rows := &a.rows[k]
		rows.byApp = make([][]rowRange, appSlots)
		if spanOK {
			keySpanPass2(c, spans, levels, fileSlots, p, rows)
		} else {
			rowPass2(c, levels, fileSlots, p, rows)
		}
	})
	if err := firstErr(); err != nil {
		return err
	}

	a.readTL = stats.NewTimeline(span, bins)
	a.writeTL = stats.NewTimeline(span, bins)
	a.perRank = make([]rankAcc, rankSlots)
	merged := make([]*fileAgg, fileSlots)
	for _, p := range p2 {
		if p == nil {
			continue
		}
		for si, fa := range p.files {
			if fa == nil {
				continue
			}
			if cur := merged[si]; cur != nil {
				cur.merge(fa)
			} else {
				merged[si] = fa
			}
		}
		a.readBytes += p.readBytes
		a.writeBytes += p.writeBytes
		a.primData += p.data
		a.primMeta += p.meta
		a.readHist.Merge(&p.readHist)
		a.writeHist.Merge(&p.writeHist)
		a.readTL.Merge(p.readTL)
		a.writeTL.Merge(p.writeTL)
		for si := range p.perRank {
			acc, cur := &p.perRank[si], &a.perRank[si]
			if !acc.hit {
				continue
			}
			cur.hit = true
			cur.rBytes += acc.rBytes
			cur.wBytes += acc.wBytes
			cur.rDur += acc.rDur
			cur.wDur += acc.wDur
		}
	}
	for _, fa := range merged {
		if fa != nil {
			a.files = append(a.files, fa)
		}
	}
	return nil
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
func keySpanPass2(c *colstore.Chunk, spans []colstore.KeySpan, levels []uint16, fileSlots int, p *pass2Acc, rows *chunkRows) {
	for _, s := range spans {
		isPosix := trace.Level(s.Level) == trace.LevelPosix
		isPrim := uint16(s.Level)+1 == levels[(int(s.App)+1)*fileSlots+int(s.File)+1]
		if !isPosix && !isPrim {
			continue // no row of this span can contribute anything
		}
		var fa *fileAgg
		var sawRead, sawWrite bool
		appRows := rows.byApp[int(s.App)+1]
		acc := &p.perRank[int(s.Rank)+1]
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
				rows.posix = appendRange(rows.posix, lo, hi)
			}
			if !isPrim {
				continue
			}
			rows.primary = appendRange(rows.primary, lo, hi)
			appRows = appendRange(appRows, lo, hi)
			cnt := int64(hi - lo)
			if op.IsData() {
				p.data += cnt
			} else if op.IsMeta() {
				p.meta += cnt
			}
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
		rows.byApp[int(s.App)+1] = appRows
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
func rowPass2(c *colstore.Chunk, levels []uint16, fileSlots int, p *pass2Acc, rows *chunkRows) {
	for j := 0; j < c.N; j++ {
		op := trace.Op(c.Op[j])
		if !op.IsIO() {
			continue
		}
		if trace.Level(c.Level[j]) == trace.LevelPosix {
			rows.posix = appendRange(rows.posix, j, j+1)
		}
		if uint16(c.Level[j])+1 != levels[(int(c.App[j])+1)*fileSlots+int(c.File[j])+1] {
			continue
		}
		rows.primary = appendRange(rows.primary, j, j+1)
		asl := int(c.App[j]) + 1
		rows.byApp[asl] = appendRange(rows.byApp[asl], j, j+1)
		dur := c.End[j] - c.Start[j]
		if op.IsData() {
			p.data++
		} else if op.IsMeta() {
			p.meta++
		}
		var fa *fileAgg
		if c.File[j] >= 0 {
			fa = p.files[int(c.File[j])+1]
			if fa == nil {
				fa = newFileAgg(c.File[j])
				p.files[int(c.File[j])+1] = fa
			}
			fa.ranks[c.Rank[j]] = true
			fa.ioDur += time.Duration(dur)
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
				fa.readerRanks[c.Rank[j]] = true
				fa.readerNodes[c.Node[j]] = true
				fa.readerApps[c.App[j]] = true
				fa.dataOps++
			}
		case trace.OpWrite:
			p.writeBytes += c.Size[j]
			p.writeHist.Add(c.Size[j], time.Duration(dur))
			p.writeTL.Add(time.Duration(c.Start[j]), time.Duration(c.End[j]), c.Size[j])
			acc.wBytes += c.Size[j]
			acc.wDur += dur
			if fa != nil {
				fa.bytesWritten += c.Size[j]
				fa.writerRanks[c.Rank[j]] = true
				fa.writerNodes[c.Node[j]] = true
				fa.writerApps[c.App[j]] = true
				fa.dataOps++
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
	}
}
