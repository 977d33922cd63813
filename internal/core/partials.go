package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"time"

	"vani/internal/colstore"
	"vani/internal/trace"
)

// Ordered partials (DESIGN §10). Pass 2 is the last pass over the rows: what
// the report derives from a chunk's row subsets is computed by the worker
// that just ran the chunk's body, while the columns are hot. A commutative
// tally lands in the worker's accumulator; a quantity that depends on row
// order leaves one small partial per chunk, and three stitches combine the
// partials serially, in chunk order, in time proportional to the partials:
// stream ends (stitchPattern), covered intervals (stitchIOTime), and
// clusters of rows no gap separates (stitchPhases).
//
// The time sweeps want Start order: a chunk that lacks it re-lists its
// primary rows by Start first, and a stitch sorts its partial list when
// chunks arrive out of order. Streams always run in table order. The
// interval arguments need End >= Start, which every Tracer guarantees; a
// primary row that breaks it is malformed input.

// rowRange is a run [lo, hi) of collected rows, chunk-relative.
type rowRange struct{ lo, hi int }

// appendRange appends [lo, hi), extending the previous range when the two
// touch. Adjacency is the only condition: ranges carry no key, so the rows
// of a level- and rank-interleaved log still coalesce wherever the subset's
// members are consecutive, and a range breaks only at a non-member row.
func appendRange(rs []rowRange, lo, hi int) []rowRange {
	if n := len(rs); n > 0 && rs[n-1].hi == lo {
		rs[n-1].hi = hi
		return rs
	}
	return append(rs, rowRange{lo, hi})
}

type interval struct{ s, e int64 }

type streamKey struct{ file, rank int32 }

// streamEnd is one stream's first and last data offset within a chunk.
type streamEnd struct {
	streamKey
	first, last int64
}

// streamPart is one chunk's access-pattern partial for one row subset: the
// consecutive-access pairs inside the chunk, and each stream's ends.
type streamPart struct {
	seq, total int64
	ends       []streamEnd
}

// cluster is a maximal group of a chunk's primary rows that no gap separates,
// judged against the chunk's own running max End. That maximum is at most
// the table's, so every phase boundary is a cluster boundary and a cluster
// is a connected piece of one phase: sweeping whole clusters reproduces the
// row sweep, and every per-phase attribute is a sum, a min/max or a set
// union. maxE has a floor of zero, as the phase sweep's running end does;
// ranks are distinct.
type cluster struct {
	minS, maxE                 int64
	rows, reads, writes, bytes int64
	ranks                      []int32
	sizes                      sizeTally
}

// chunkPart is everything order-dependent one chunk leaves behind. Its
// time partials keep their arrays from one analysis to the next: the merged
// accumulator recycles an analysis' parts by chunk index (pass2Acc.parts),
// so chunk k of a trace analyzed again finds the room its last analysis
// left, whichever worker runs it.
type chunkPart struct {
	prim, posix streamPart
	ivs         []interval // disjoint, ascending
	clusters    []cluster  // ascending minS
	clRanks     []int32    // the clusters' rank lists, end to end
}

// reuseParts returns n empty parts in ps' array, each keeping its lists'
// arrays.
func reuseParts(ps []chunkPart, n int) []chunkPart {
	if cap(ps) < n {
		ps = append(ps[:cap(ps)], make([]chunkPart, n-cap(ps))...)
	}
	ps = ps[:n]
	for k := range ps {
		p := &ps[k]
		*p = chunkPart{
			prim:  streamPart{ends: p.prim.ends[:0]},
			posix: streamPart{ends: p.posix.ends[:0]},
			ivs:   p.ivs[:0], clusters: p.clusters[:0], clRanks: p.clRanks[:0],
		}
	}
	return ps
}

// sizeTally counts exact positive transfer sizes, reads in [0] and writes
// in [1]; a map exists once its op was seen.
type sizeTally [2]map[int64]int64

// add counts n transfers of one op and size. Callers batch equal-(op, size)
// runs — the tracer's transfer loops — into one call.
func (t *sizeTally) add(op trace.Op, size, n int64) {
	if size <= 0 || n == 0 || !op.IsData() {
		return
	}
	i := 0
	if op == trace.OpWrite {
		i = 1
	}
	if t[i] == nil {
		t[i] = map[int64]int64{}
	}
	t[i][size] += n
}

func (t *sizeTally) merge(o *sizeTally) {
	for sz, n := range o[0] {
		t.add(trace.OpRead, sz, n)
	}
	for sz, n := range o[1] {
		t.add(trace.OpWrite, sz, n)
	}
}

// addRows tallies the data rows of a row subset.
func (t *sizeTally) addRows(c *colstore.Chunk, rows []rowRange) {
	for _, r := range rows {
		for i := r.lo; i < r.hi; {
			j := i + 1
			for j < r.hi && c.Op[j] == c.Op[i] && c.Size[j] == c.Size[i] {
				j++
			}
			t.add(trace.Op(c.Op[i]), c.Size[i], int64(j-i))
			i = j
		}
	}
}

// granularity returns the most frequent read and write size (ties break
// toward the larger size, 0 when nothing was counted).
func (t *sizeTally) granularity() Granularity {
	var g [2]int64
	for i, counts := range t {
		var bestN int64
		for sz, n := range counts {
			if n > bestN || (n == bestN && sz > g[i]) {
				g[i], bestN = sz, n
			}
		}
	}
	return Granularity{Read: g[0], Write: g[1]}
}

// partScratch is the state pass 2's partial builders reuse from chunk to
// chunk, and with their accumulator from analysis to analysis. Nothing in it
// outlives a chunk but capacity.
type partScratch struct {
	// The chunk's row subsets as pass 2's bodies emit them: ascending,
	// non-overlapping ranges.
	primary, posix []rowRange
	sorted         []rowRange // primary rows of an out-of-order chunk, by Start

	// Streams. A rank works through one file at a time, so a one-entry
	// cache per rank slot sits in front of the chunk's stream index.
	epoch int
	cache []streamCache
	index map[streamKey]int32
	// The merged accumulator's stitchPattern keeps each stream's last
	// offset here, cleared per use.
	last map[streamKey]int64

	// The open cluster's distinct ranks and size counts. stamp[rank+1] is
	// the serial of the last cluster that listed the rank, so the list
	// stays distinct without a set per cluster.
	ranks  []int32
	stamp  []int
	serial int
	sizes  sizeTally
	// How many intervals, clusters and cluster ranks the worker's last
	// chunk left: a part's list without an array starts at that capacity.
	nIvs, nCls, nRks int

	// The merged accumulator's: the analysis' chunk partials, by chunk
	// (reuseParts), and the buffers its stitches concatenate every chunk's
	// intervals and clusters into (inOrder).
	parts  []chunkPart
	allIvs []interval
	allCls []cluster
}

type streamCache struct {
	epoch     int
	file, idx int32
}

// reset empties s for an analysis of rankSlots rank slots.
func (s *partScratch) reset(rankSlots int) {
	s.primary, s.posix, s.sorted = s.primary[:0], s.posix[:0], s.sorted[:0]
	s.epoch = 0
	s.cache = resize(s.cache, rankSlots)
	if s.index == nil {
		s.index, s.last = map[streamKey]int32{}, map[streamKey]int64{}
	}
	clear(s.index)
	s.ranks = s.ranks[:0]
	s.stamp = resize(s.stamp, rankSlots)
	s.serial = 0
	s.sizes = sizeTally{}
	s.nIvs, s.nCls, s.nRks = 0, 0, 0
	s.allIvs, s.allCls = s.allIvs[:0], s.allCls[:0]
}

// poison overwrites what s holds with values a reset scratch never has: a
// cache entry and a stamp that match the first epoch and serial.
func (s *partScratch) poison() {
	fill(s.primary, rowRange{-1, 1 << 30})
	fill(s.posix, rowRange{-1, 1 << 30})
	fill(s.sorted, rowRange{-1, 1 << 30})
	fill(s.cache, streamCache{epoch: 1, file: 0, idx: 1 << 30})
	s.index[streamKey{0, 0}] = 1 << 30
	for k := range s.last {
		s.last[k] = math.MaxInt64
	}
	s.last[streamKey{0, 0}] = math.MaxInt64
	fill(s.ranks, -7)
	fill(s.stamp, 1)
	bad := cluster{minS: -1, maxE: -1, rows: -1, ranks: []int32{-7}}
	parts := s.parts[:cap(s.parts)]
	for k := range parts {
		p := &parts[k]
		fill(p.ivs, interval{-1, -2})
		fill(p.clusters, bad)
		fill(p.clRanks, -7)
		fill(p.prim.ends, streamEnd{streamKey{-7, -7}, -1, -1})
		fill(p.posix.ends, streamEnd{streamKey{-7, -7}, -1, -1})
		p.prim.seq, p.posix.total = -5, -5
	}
	fill(s.allIvs, interval{-1, -2})
	fill(s.allCls, bad)
}

// streamsInto builds the access-pattern partial of one row subset: per
// (file, rank) stream, in table order, how many consecutive data accesses
// the chunk holds and how many of them do not move backwards. The streams'
// ends go into ends' array (its elements are overwritten).
func (s *partScratch) streamsInto(c *colstore.Chunk, rows []rowRange, ends []streamEnd) streamPart {
	s.epoch++
	clear(s.index)
	ends = ends[:0]
	var part streamPart
	for _, r := range rows {
		for j := r.lo; j < r.hi; j++ {
			f := c.File[j]
			if f < 0 || !trace.Op(c.Op[j]).IsData() {
				continue
			}
			rank, off := c.Rank[j], c.Offset[j]
			ce := &s.cache[int(rank)+1]
			if ce.epoch != s.epoch || ce.file != f {
				k := streamKey{f, rank}
				idx, ok := s.index[k]
				if !ok {
					idx = int32(len(ends))
					s.index[k] = idx
					ends = append(ends, streamEnd{k, off, off})
				}
				*ce = streamCache{s.epoch, f, idx}
				if !ok {
					continue
				}
			}
			e := &ends[ce.idx]
			part.total++
			if off >= e.last {
				part.seq++
			}
			e.last = off
		}
	}
	part.ends = ends
	return part
}

// byStart re-lists a subset one row at a time in stable Start order.
func (s *partScratch) byStart(c *colstore.Chunk, rows []rowRange) []rowRange {
	s.sorted = s.sorted[:0]
	for _, r := range rows {
		for j := r.lo; j < r.hi; j++ {
			s.sorted = append(s.sorted, rowRange{j, j + 1})
		}
	}
	slices.SortStableFunc(s.sorted, func(x, y rowRange) int { return cmp.Compare(c.Start[x.lo], c.Start[y.lo]) })
	return s.sorted
}

// sweep walks the chunk's primary rows in Start order once and leaves both
// time partials in part: the covered intervals and the gap-separated
// clusters.
func (s *partScratch) sweep(c *colstore.Chunk, rows []rowRange, gap int64, part *chunkPart) error {
	if part.ivs == nil {
		part.ivs, part.clusters, part.clRanks = make([]interval, 0, s.nIvs), make([]cluster, 0, s.nCls), make([]int32, 0, s.nRks)
	}
	var (
		cur     interval
		cl      cluster
		maxEnd  int64    // running max End, floored at zero like the phase sweep's
		runOp   trace.Op // the pending equal-(op, size) run of the open cluster
		runSize int64
		runN    int64
	)
	prev := int64(math.MinInt64)
	for _, r := range rows {
		for j := r.lo; j < r.hi; j++ {
			st, en := c.Start[j], c.End[j]
			if en < st {
				return fmt.Errorf("core: event of rank %d ends at %d ns, before its start at %d ns: %w",
					c.Rank[j], en, st, trace.ErrBadFormat)
			}
			if st < prev {
				// Not in Start order: start over on the re-listed rows.
				s.ranks, s.sizes = s.ranks[:0], sizeTally{}
				part.ivs, part.clusters, part.clRanks = part.ivs[:0], part.clusters[:0], part.clRanks[:0]
				return s.sweep(c, s.byStart(c, rows), gap, part)
			}
			first := cl.rows == 0
			if first || st > cur.e {
				if !first {
					part.ivs = append(part.ivs, cur)
				}
				cur = interval{st, en}
			} else if en > cur.e {
				cur.e = en
			}
			op, sz := trace.Op(c.Op[j]), c.Size[j]
			if op != runOp || sz != runSize || first || st-maxEnd > gap {
				s.sizes.add(runOp, runSize, runN)
				runOp, runSize, runN = op, sz, 0
			}
			if first || st-maxEnd > gap {
				if !first {
					part.clusters = append(part.clusters, s.closeCluster(cl, part))
				}
				cl = cluster{minS: st}
				s.serial++
			}
			prev, maxEnd, cl.maxE = st, max(maxEnd, en), max(cl.maxE, en)
			runN++
			cl.rows++
			switch op {
			case trace.OpRead:
				cl.reads++
				cl.bytes += sz
			case trace.OpWrite:
				cl.writes++
				cl.bytes += sz
			}
			if rs := int(c.Rank[j]) + 1; s.stamp[rs] != s.serial {
				s.stamp[rs] = s.serial
				s.ranks = append(s.ranks, c.Rank[j])
			}
		}
	}
	if cl.rows > 0 {
		s.sizes.add(runOp, runSize, runN)
		part.clusters = append(part.clusters, s.closeCluster(cl, part))
		part.ivs = append(part.ivs, cur)
	}
	s.nIvs, s.nCls, s.nRks = len(part.ivs), len(part.clusters), len(part.clRanks)
	return nil
}

// closeCluster moves the open cluster's ranks, onto the part's list of
// cluster ranks, and its size counts out of the scratch. An append that
// outgrows that list leaves the earlier clusters' ranks where they are.
func (s *partScratch) closeCluster(cl cluster, part *chunkPart) cluster {
	base := len(part.clRanks)
	part.clRanks = append(part.clRanks, s.ranks...)
	cl.ranks, s.ranks = part.clRanks[base:len(part.clRanks):len(part.clRanks)], s.ranks[:0]
	cl.sizes, s.sizes = s.sizes, sizeTally{}
	return cl
}

// appAcc is one worker's tally of an application's primary rows.
type appAcc struct {
	rows, data, bytes int64
	minStart, maxEnd  int64
	lib               [8]int64
}

// add tallies primary rows [lo, hi) of the application's I/O.
func (acc *appAcc) add(c *colstore.Chunk, lo, hi int) {
	acc.rows += int64(hi - lo)
	for j := lo; j < hi; j++ {
		if trace.Op(c.Op[j]).IsData() {
			acc.data++
			acc.bytes += c.Size[j]
		}
		acc.minStart, acc.maxEnd = min(acc.minStart, c.Start[j]), max(acc.maxEnd, c.End[j])
		if lib := c.Lib[j]; int(lib) < len(acc.lib) {
			acc.lib[lib]++
		}
	}
}

func (acc *appAcc) merge(o *appAcc) {
	acc.rows += o.rows
	acc.data += o.data
	acc.bytes += o.bytes
	acc.minStart, acc.maxEnd = min(acc.minStart, o.minStart), max(acc.maxEnd, o.maxEnd)
	for i, n := range o.lib {
		acc.lib[i] += n
	}
}

// stitchPattern classifies offsets per (file, rank) stream: sequential if
// at least 80% of consecutive data accesses are non-decreasing in offset.
// Chunks are visited in table order; a stream seen before contributes the
// pair that straddles the seam — its first offset here against its last
// offset there — so the comparison sequence is the per-row one. last is
// the map of last offsets to work in; it is cleared first.
func stitchPattern(last map[streamKey]int64, parts []chunkPart, pick func(*chunkPart) *streamPart) string {
	clear(last)
	var seq, total int64
	for k := range parts {
		p := pick(&parts[k])
		seq += p.seq
		total += p.total
		for _, e := range p.ends {
			if prev, ok := last[e.streamKey]; ok {
				total++
				if e.first >= prev {
					seq++
				}
			}
			last[e.streamKey] = e.last
		}
	}
	if total == 0 || float64(seq)/float64(total) >= 0.8 {
		return "Seq"
	}
	return "Random"
}

// inOrder concatenates one partial list of every chunk into dst's array,
// ascending by key: chunk order is that order already unless the table is
// out of Start order, and only then is the list sorted.
func inOrder[T any](dst []T, parts []chunkPart, list func(*chunkPart) []T, key func(*T) int64) []T {
	n := 0
	for k := range parts {
		n += len(list(&parts[k]))
	}
	all := dst[:0]
	if cap(all) < n {
		all = make([]T, 0, n)
	}
	for k := range parts {
		all = append(all, list(&parts[k])...)
	}
	for i := 1; i < len(all); i++ {
		if key(&all[i]) < key(&all[i-1]) {
			slices.SortStableFunc(all, func(x, y T) int { return cmp.Compare(key(&x), key(&y)) })
			break
		}
	}
	return all
}

// stitchIOTime returns the total time the primary rows cover — the
// workload's I/O wall-clock — by sweeping the chunks' covered intervals,
// concatenated in s.allIvs.
func (s *partScratch) stitchIOTime(parts []chunkPart) time.Duration {
	s.allIvs = inOrder(s.allIvs, parts, func(p *chunkPart) []interval { return p.ivs }, func(iv *interval) int64 { return iv.s })
	ivs := s.allIvs
	if len(ivs) == 0 {
		return 0
	}
	var total int64
	cur := ivs[0]
	for _, iv := range ivs[1:] {
		if iv.s > cur.e {
			total += cur.e - cur.s
			cur = iv
		} else if iv.e > cur.e {
			cur.e = iv.e
		}
	}
	return time.Duration(total + cur.e - cur.s)
}

// stitchPhases merges the chunks' clusters, concatenated in s.allCls, into
// the I/O phases — activity bursts separated by more than the gap threshold
// (Table V) — and returns them with the dominant transfer sizes over all
// primary rows, which are the clusters' size counts summed. A phase's ranks
// are counted through one stamp per rank slot, s.stamp's, so they cost
// O(distinct ranks in the phase).
func (s *partScratch) stitchPhases(parts []chunkPart, gap int64, rankSlots int) ([]IOPhaseEntity, Granularity) {
	s.allCls = inOrder(s.allCls, parts, func(p *chunkPart) []cluster { return p.clusters }, func(cl *cluster) int64 { return cl.minS })
	cls := s.allCls
	if len(cls) == 0 {
		return nil, Granularity{}
	}
	var (
		phases = make([]IOPhaseEntity, 0, len(cls)) // exact but for the seams
		cur    cluster                              // the open phase; its ranks are counted, not listed
		nRanks int
		maxEnd int64
		all    sizeTally
	)
	s.stamp = resize(s.stamp, rankSlots)
	stamp := s.stamp
	for i := range cls {
		cl := &cls[i]
		if i > 0 && cl.minS-maxEnd > gap {
			phases = append(phases, buildPhase(len(phases), &cur, nRanks))
			cur, nRanks = cluster{}, 0
		}
		all.merge(&cl.sizes)
		if cur.rows == 0 {
			cur.minS, cur.sizes = cl.minS, cl.sizes // adopted, not copied
		} else {
			cur.sizes.merge(&cl.sizes)
		}
		maxEnd, cur.maxE = max(maxEnd, cl.maxE), max(cur.maxE, cl.maxE)
		cur.rows += cl.rows
		cur.reads += cl.reads
		cur.writes += cl.writes
		cur.bytes += cl.bytes
		for _, r := range cl.ranks {
			if rs := int(r) + 1; stamp[rs] != len(phases)+1 {
				stamp[rs] = len(phases) + 1
				nRanks++
			}
		}
	}
	return append(phases, buildPhase(len(phases), &cur, nRanks)), all.granularity()
}

// buildPhase renders one merged cluster as a phase entity. The granule is
// the dominant read size, unless there is none or writes outnumber reads
// and have a dominant size of their own.
func buildPhase(idx int, cl *cluster, nRanks int) IOPhaseEntity {
	data := cl.reads + cl.writes
	dPct, mPct := pcts(data, cl.rows-data)
	opsPerRank := float64(cl.rows) / float64(nRanks)
	g := cl.sizes.granularity()
	granule := g.Read
	if granule == 0 || (g.Write > 0 && cl.writes > cl.reads) {
		granule = g.Write
	}
	return IOPhaseEntity{
		Index:      idx,
		Start:      time.Duration(cl.minS),
		End:        time.Duration(cl.maxE),
		IOBytes:    cl.bytes,
		DataOpsPct: dPct,
		MetaOpsPct: mPct,
		OpsPerRank: opsPerRank,
		Granule:    granule,
		Frequency:  phaseLabel(opsPerRank, granule),
		Runtime:    time.Duration(cl.maxE - cl.minS),
	}
}
