package core

import (
	"cmp"
	"context"
	"slices"
	"sort"
	"time"

	"vani/internal/colstore"
	"vani/internal/stats"
	"vani/internal/storage"
	"vani/internal/trace"
)

// Options configures the analyzer.
type Options struct {
	// PhaseGap is the inter-I/O gap that separates two I/O phases
	// ("defined using a threshold between two I/O calls", Section IV-B).
	PhaseGap time.Duration
	// TimelineBins sets the resolution of the figure timelines.
	TimelineBins int
	// Storage, when non-nil, fills the storage entities (Tables VIII/IX)
	// from the system the job ran against.
	Storage *storage.Config
	// TopFlows limits the dependency panel to the N highest-volume files.
	TopFlows int
	// Parallelism bounds the workers used for the chunk-parallel scans
	// (<= 0 means GOMAXPROCS, 1 runs fully sequential). Partials stitch in
	// chunk order and every accumulator is an integer sum, a set union or a
	// minimum, so the characterization is bit-identical at any setting.
	Parallelism int
	// Filter restricts the characterization to the matching events. Analyze
	// applies it to the in-memory event log before columnarizing (the
	// reference semantics); the facade's file path pushes the same filter
	// down to the block index instead. AnalyzeTableContext assumes its
	// table was already built under the filter and does not re-apply it.
	Filter trace.Filter
	// Stats, when non-nil, receives per-stage wall-clock timings.
	Stats *Timings
}

// Timings records the wall-clock cost of each pipeline stage.
type Timings struct {
	// TraceMerge is the time the tracer's Finish spent sorting its event
	// log (filled by callers that hold the tracer; the analyzer itself
	// never sees it).
	TraceMerge time.Duration
	// Columnarize is the row-to-column transposition time.
	Columnarize time.Duration
	// Analyze is the fused characterization time: Pass1 (key columns bounded,
	// primary levels resolved), Pass2 (the chunk-parallel scan and its
	// per-chunk partials) and Stitch (what follows on one goroutine — the
	// analyzer's serial part: accumulators merged, partials combined,
	// entities built).
	Analyze              time.Duration
	Pass1, Pass2, Stitch time.Duration
	// Scan counts what the scan plan did: blocks pruned via the footer
	// index, rows dropped by the row filter, payload bytes decoded vs
	// available. Filled by the file scan path (or, for in-memory filtering,
	// the row counters only).
	Scan colstore.ScanCounters
}

// DefaultOptions returns the analyzer settings used for the paper tables.
func DefaultOptions() Options {
	return Options{
		PhaseGap:     time.Second,
		TimelineBins: 64,
		TopFlows:     8,
	}
}

func (opt *Options) fill() {
	if opt.PhaseGap <= 0 {
		opt.PhaseGap = time.Second
	}
	if opt.TimelineBins <= 0 {
		opt.TimelineBins = 64
	}
	if opt.TopFlows <= 0 {
		opt.TopFlows = 8
	}
}

// Analyze builds the full characterization from an in-memory trace. A
// non-empty opt.Filter is applied to the event log before columnarizing —
// the reference semantics every pushed-down scan must reproduce.
func Analyze(tr *trace.Trace, opt Options) *Characterization {
	// A table transposed from memory decodes nothing, so analysis cannot
	// hit a decode error; what remains is a trace whose events name
	// ids outside its own interned tables or end before they start, which no
	// Tracer produces. Callers holding a trace of unknown provenance use
	// AnalyzeContext.
	c, err := AnalyzeContext(context.Background(), tr, opt)
	if err != nil {
		panic(err)
	}
	return c
}

// AnalyzeContext is Analyze with cancellation: the chunk-parallel scan
// workers observe ctx, so a canceled or timed-out caller aborts mid-scan.
// With a background context it never fails and matches Analyze exactly.
func AnalyzeContext(ctx context.Context, tr *trace.Trace, opt Options) (*Characterization, error) {
	opt.fill()
	evs := tr.Events
	if !opt.Filter.Empty() {
		evs = trace.FilterEvents(evs, opt.Filter)
		if opt.Stats != nil {
			opt.Stats.Scan.RowsTotal = int64(len(tr.Events))
			opt.Stats.Scan.RowsKept = int64(len(evs))
		}
	}
	t0 := time.Now()
	tb := colstore.FromEvents(evs, opt.Parallelism)
	// As in AnalyzeBlocksContext: the characterization aliases none of the
	// table's pooled columns, so they go back when the analysis ends.
	defer tb.Release()
	if opt.Stats != nil {
		opt.Stats.Columnarize = time.Since(t0)
	}
	return AnalyzeTableContext(ctx, tr, tb, opt)
}

// AnalyzeBlocksContext analyzes a block source — a BlockReader over an
// open file, or a shared decoded-block cache like vanid's — through the
// planned-scan path: the filter pushes down to the block index, surviving
// blocks decode and test the filter's columns, and a block some row passes
// decodes whole into its chunk before the analyzer's passes run.
// The characterization is byte-identical to AnalyzeContext over the same
// log's events.
func AnalyzeBlocksContext(ctx context.Context, src trace.BlockSource, opt Options) (*Characterization, error) {
	t0 := time.Now()
	stats := &colstore.ScanStats{}
	spec := colstore.ScanSpec{Filter: opt.Filter}
	tb, err := colstore.FromBlocksSpecContext(ctx, src, opt.Parallelism, spec, stats)
	if err != nil {
		return nil, err
	}
	// The table dies here whatever the analyzer returns, and the
	// characterization aliases none of its columns, so the block columns
	// go back for the next request to decode into.
	defer tb.Release()
	if opt.Stats != nil {
		opt.Stats.Columnarize = time.Since(t0)
		opt.Stats.Scan = stats.Snapshot()
	}
	return AnalyzeTableContext(ctx, src.Header(), tb, opt)
}

// AnalyzeTableContext builds the characterization from a columnar table
// plus the trace header carrying its metadata and interning tables
// (hdr.Events is never touched, so traces streamed off disk need not
// materialize one). Every chunk holds its decoded rows, so decode errors
// come only from the plan (colstore.FromBlocksSpecContext). opt.Filter is NOT
// applied — the table is assumed to have been built under it. The
// chunk-parallel scan workers observe ctx per chunk, so a canceled or
// timed-out caller aborts the analysis mid-scan; the returned error is
// ctx.Err() when the abort was a cancellation.
func AnalyzeTableContext(ctx context.Context, hdr *trace.Trace, tb *colstore.Table, opt Options) (*Characterization, error) {
	opt.fill()
	t0 := time.Now()
	a := &analysis{ctx: ctx, tr: hdr, tb: tb, opt: opt, par: opt.Parallelism}
	c, err := a.run()
	if err != nil {
		return nil, err
	}
	if opt.Stats != nil {
		opt.Stats.Analyze = time.Since(t0)
	}
	return c, nil
}

type analysis struct {
	ctx context.Context
	tr  *trace.Trace // header only: Meta, Apps, Files, Samples
	tb  *colstore.Table
	opt Options
	par int

	// Filled by pass 1 (analyzer_grouped.go): the id spaces' slot counts,
	// the (app, file) primary-level matrix, and the global facts. appRanks
	// is indexed by app id + 1.
	appSlots, fileSlots, rankSlots int
	levels                         []uint16
	runtime                        time.Duration
	gpuUsed                        bool
	appRanks                       []int // ranks that emitted any event, per app

	// parts holds pass 2's per-chunk ordered partials until stitch combines
	// them; acc is the workers' accumulators merged, files its touched files'
	// summaries in ascending id order (acc's scratch).
	parts                     []chunkPart
	acc                       *pass2Acc
	files                     []fileSum
	primData, primMeta        int64
	ioTime                    time.Duration
	phases                    []IOPhaseEntity
	primGran, posixGran       Granularity
	primPattern, posixPattern string
}

// fileAgg is one file's counters in a worker's accumulator, which holds one
// per file slot.
type fileAgg struct {
	bytesRead, bytesWritten int64
	opens, dataOps, metaOps int64
	ioDur                   time.Duration
}

func (fa *fileAgg) merge(o *fileAgg) {
	fa.bytesRead += o.bytesRead
	fa.bytesWritten += o.bytesWritten
	fa.opens += o.opens
	fa.dataOps += o.dataOps
	fa.metaOps += o.metaOps
	fa.ioDur += o.ioDur
}

// fileTouch is one (file, rank, node, app) tuple and the op classes its rows
// did there (didMeta, didRead, didWrite), as noteSets appends it. A file's
// rank, node and app sets are the union of its touches.
type fileTouch struct {
	file, rank, node, app int32
	did                   uint8
}

// fileSum is what the report reads of one touched file: its counters and
// what its touches say — how many distinct ranks touched it, read it and
// wrote it, whether a node read data another node wrote (or one of several
// writer nodes did), and the apps that wrote and read it, ascending.
type fileSum struct {
	fileAgg
	id                              int32
	ranks, readerRanks, writerRanks int
	crossRAW                        bool
	writerApps, readerApps          []int32
}

// nodeSet is as much of a set of nodes as crossRAW needs: how many distinct
// nodes, counted up to two, and the first.
type nodeSet struct {
	n     int
	first int32
}

func (s *nodeSet) add(node int32) {
	if s.n == 0 {
		s.n, s.first = 1, node
	} else if s.n == 1 && node != s.first {
		s.n = 2
	}
}

// summarize sorts the merged touch list by (file, rank) and derives every
// touched file's summary in one walk, ascending by file id. The summaries and
// their app lists live in p's scratch.
func (p *pass2Acc) summarize() []fileSum {
	p.touches, p.touchBuf = sortTouches(p.touches, p.touchBuf)
	ts := p.touches
	// Each touch adds at most one writer and one reader app, so the app
	// lists never outgrow this and the summaries' sub-slices stay valid.
	apps := slices.Grow(p.sumApps[:0], 2*len(ts))
	sums := p.sums[:0]
	for lo := 0; lo < len(ts); {
		fs := fileSum{id: ts[lo].file}
		fs.fileAgg = p.files[int(fs.id)+1]
		var writers, readers nodeSet
		hi := lo
		for hi < len(ts) && ts[hi].file == fs.id {
			rank, did := ts[hi].rank, uint8(0)
			for ; hi < len(ts) && ts[hi].file == fs.id && ts[hi].rank == rank; hi++ {
				t := &ts[hi]
				did |= t.did
				if t.did&didWrite != 0 {
					writers.add(t.node)
				}
				if t.did&didRead != 0 {
					readers.add(t.node)
				}
			}
			fs.ranks++
			if did&didRead != 0 {
				fs.readerRanks++
			}
			if did&didWrite != 0 {
				fs.writerRanks++
			}
		}
		fs.crossRAW = writers.n > 0 && readers.n > 0 &&
			(writers.n > 1 || readers.n > 1 || writers.first != readers.first)
		apps, fs.writerApps = appendApps(apps, ts[lo:hi], didWrite)
		apps, fs.readerApps = appendApps(apps, ts[lo:hi], didRead)
		sums = append(sums, fs)
		lo = hi
	}
	p.sums, p.sumApps = sums, apps
	return sums
}

// touchDigits are the (shift, width) digits of a touch's sort key: rank
// slot in the low 32 bits, file in the high 32.
var touchDigits = [...][2]uint{{0, 11}, {11, 11}, {22, 10}, {32, 11}, {43, 11}, {54, 10}}

func touchKey(t *fileTouch) uint64 {
	return uint64(uint32(t.file))<<32 | uint64(uint32(t.rank+1))
}

// sortTouches orders ts by (file, rank slot) with a least-significant-digit
// radix sort, which takes a pass only for the digits in which keys differ
// (two for 1,280 files × 1,280 ranks) and is several times faster here
// than a comparison sort. buf is scratch; it returns the sorted list and
// the other buffer.
func sortTouches(ts, buf []fileTouch) (sorted, scratch []fileTouch) {
	var or, and uint64 = 0, ^uint64(0)
	for i := range ts {
		k := touchKey(&ts[i])
		or, and = or|k, and&k
	}
	if cap(buf) < len(ts) {
		buf = make([]fileTouch, len(ts), cap(ts))
	}
	buf = buf[:len(ts)]
	var count [1 << 11]int
	for _, d := range touchDigits {
		shift, mask := d[0], uint64(1)<<d[1]-1
		if (or^and)>>shift&mask == 0 {
			continue
		}
		clear(count[:])
		for i := range ts {
			count[touchKey(&ts[i])>>shift&mask]++
		}
		sum := 0
		for i, n := range count {
			count[i], sum = sum, sum+n
		}
		for i := range ts {
			k := touchKey(&ts[i]) >> shift & mask
			buf[count[k]] = ts[i]
			count[k]++
		}
		ts, buf = buf, ts
	}
	return ts, buf
}

// appendApps appends to dst the distinct apps of the touches that did any
// of the op classes in did, ascending, and returns dst and the appended list.
func appendApps(dst []int32, ts []fileTouch, did uint8) ([]int32, []int32) {
	lo := len(dst)
	for i := range ts {
		if t := &ts[i]; t.did&did != 0 && (len(dst) == lo || dst[len(dst)-1] != t.app) {
			dst = append(dst, t.app)
		}
	}
	list := dst[lo:]
	slices.Sort(list)
	list = slices.Compact(list)
	return dst[:lo+len(list)], list[:len(list):len(list)]
}

type rankAcc struct {
	hit            bool // the rank issued primary I/O (meta-only ranks report zeros)
	rBytes, wBytes int64
	rDur, wDur     int64
}

func (a *analysis) run() (*Characterization, error) {
	var t0 time.Time
	a.lap(&t0)
	if err := a.pass1(); err != nil {
		return nil, err
	}
	d1 := a.lap(&t0)
	p2, err := a.pass2()
	// The accumulators go back to the pool once the report is built: it
	// copies what it keeps of them but the merged timelines, which release
	// leaves to it.
	defer a.release(p2)
	if err == nil {
		err = a.ctx.Err()
	}
	if err != nil {
		return nil, err
	}
	d2 := a.lap(&t0)
	a.stitch(p2)

	dist := a.dataDist()
	c := &Characterization{Workload: a.tr.Meta.Workload}
	c.JobConfig = a.jobConfig()
	c.Apps = a.appEntities()
	c.Workflow = a.workflow(c.Apps)
	c.Phases = a.phases
	c.HighLevel = a.highLevel(dist)
	c.Middleware = a.middleware()
	c.NodeLocal, c.Shared = a.storageEntities()
	c.Dataset = a.dataset(dist)
	c.File = a.fileEntity()
	c.Figure = a.figure()
	if st := a.opt.Stats; st != nil {
		st.Pass1, st.Pass2, st.Stitch = d1, d2, a.lap(&t0)
	}
	return c, nil
}

// lap returns the time since *t0 and restarts the clock. Nothing is timed
// when the caller passed no Stats.
func (a *analysis) lap(t0 *time.Time) time.Duration {
	if a.opt.Stats == nil {
		return 0
	}
	now := time.Now()
	d := now.Sub(*t0)
	*t0 = now
	return d
}

func (a *analysis) jobConfig() JobConfigEntity {
	m := a.tr.Meta
	return JobConfigEntity{
		Nodes:           m.Nodes,
		CPUCoresPerNode: m.CoresPerNode,
		GPUsPerNode:     m.GPUsPerNode,
		NodeLocalBBDir:  m.NodeLocalDir,
		SharedBBDir:     m.SharedBBDir,
		PFSDir:          m.PFSDir,
		JobTime:         m.JobTimeLimit,
	}
}

func pcts(data, meta int64) (float64, float64) {
	total := data + meta
	if total == 0 {
		return 0, 0
	}
	return float64(data) / float64(total), float64(meta) / float64(total)
}

// interfaceName maps the dominant library of an app's rows to the table
// name. The tallies are walked in ascending enum order, so a count tie
// deterministically picks the lower-level library.
func interfaceName(counts *[8]int64) string {
	best := trace.LibNone
	var bestN int64 = -1
	for lib := int(trace.LibNone) + 1; lib < len(counts); lib++ {
		if counts[lib] > bestN {
			best, bestN = trace.Lib(lib), counts[lib]
		}
	}
	if bestN <= 0 {
		return "none"
	}
	if best == trace.LibHDF5 {
		return "HDF5 (MPI-IO)"
	}
	return best.String()
}

func (a *analysis) appEntities() []AppEntity {
	var out []AppEntity
	tally := a.classifyFiles()
	for si := range a.acc.apps {
		// An app is reported when it has primary rows; slots ascend, so the
		// entities come out in app id order.
		acc := &a.acc.apps[si]
		if acc.rows == 0 {
			continue
		}
		app := int32(si - 1)
		dPct, mPct := pcts(acc.data, acc.rows-acc.data)
		fpp, shared, dep := appFiles(&tally[si])
		out = append(out, AppEntity{
			Name: a.tr.AppName(app),
			// Processes counts every rank that emitted any event for the
			// app, including pure compute ranks (the paper's per-app process
			// count) — gathered in pass 1 rather than by rescanning here.
			Processes:   a.appRanks[si],
			ProcDep:     dep,
			FPPFiles:    fpp,
			SharedFiles: shared,
			IOBytes:     acc.bytes,
			DataOpsPct:  dPct,
			MetaOpsPct:  mPct,
			Interface:   interfaceName(&acc.lib),
			Runtime:     time.Duration(acc.maxEnd - acc.minStart),
		})
	}
	return out
}

// The process/data relationships a file can have, as appFiles counts them.
const (
	depFPP = iota
	depSingleWriter
	depSharedRead
	depPipeline
	numDeps
)

// classifyFiles counts in one pass over the touched files, per app slot,
// how many of the files the app read or wrote are file-per-process,
// single-writer, shared-read or pipeline files.
func (a *analysis) classifyFiles() [][numDeps]int {
	tally := make([][numDeps]int, a.appSlots)
	for i := range a.files {
		fs := &a.files[i]
		kind := depPipeline
		switch {
		case fs.ranks == 1:
			kind = depFPP
		case fs.writerRanks == 1:
			kind = depSingleWriter
		case fs.writerRanks == 0 && fs.readerRanks > 1:
			kind = depSharedRead
		}
		// Every app on either list, once: both lists ascend.
		w, r := fs.writerApps, fs.readerApps
		for len(w) > 0 || len(r) > 0 {
			var app int32
			switch {
			case len(r) == 0 || len(w) > 0 && w[0] < r[0]:
				app, w = w[0], w[1:]
			case len(w) == 0 || r[0] < w[0]:
				app, r = r[0], r[1:]
			default:
				app, w, r = w[0], w[1:], r[1:]
			}
			tally[int(app)+1][kind]++
		}
	}
	return tally
}

// appFiles counts the FPP and shared files among those an app touched and
// classifies its dominant process/data relationship.
func appFiles(t *[numDeps]int) (fpp, shared int, kind ProcDepKind) {
	fpp = t[depFPP]
	most, kind := fpp, DepFilePerProcess
	if t[depSingleWriter] > most {
		most, kind = t[depSingleWriter], DepSingleWriter
	}
	if t[depSharedRead] > most {
		most, kind = t[depSharedRead], DepSharedRead
	}
	if t[depPipeline] > most {
		kind = DepPipeline
	}
	return fpp, t[depSingleWriter] + t[depSharedRead] + t[depPipeline], kind
}

func (a *analysis) workflow(apps []AppEntity) WorkflowEntity {
	dPct, mPct := pcts(a.primData, a.primMeta)
	var fpp, shared int
	gpus := 0
	if a.gpuUsed {
		gpus = a.tr.Meta.GPUsPerNode
	}
	crossRAW := false
	for i := range a.files {
		if a.files[i].ranks == 1 {
			fpp++
		} else {
			shared++
		}
		crossRAW = crossRAW || a.files[i].crossRAW
	}
	return WorkflowEntity{
		CPUCoresUsedPerNode: a.ranksPerNode(),
		GPUsUsedPerNode:     gpus,
		NumApps:             len(apps),
		AppDeps:             a.appDeps(),
		FPPFiles:            fpp,
		SharedFiles:         shared,
		IOBytes:             a.acc.readBytes + a.acc.writeBytes,
		ReadBytes:           a.acc.readBytes,
		WriteBytes:          a.acc.writeBytes,
		DataOpsPct:          dPct,
		MetaOpsPct:          mPct,
		CrossNodeRAW:        crossRAW,
		IOTime:              a.ioTime,
		Runtime:             a.runtime,
	}
}

// appDeps derives the application-level data-dependency edges: consumer
// apps reading files that producer apps wrote.
func (a *analysis) appDeps() []AppDep {
	type edge struct {
		prod, cons int32
		bytes      int64
	}
	var edges []edge
	for i := range a.files {
		fs := &a.files[i]
		for _, prod := range fs.writerApps {
			for _, cons := range fs.readerApps {
				if prod != cons {
					edges = append(edges, edge{prod, cons, fs.bytesRead})
				}
			}
		}
	}
	slices.SortFunc(edges, func(x, y edge) int {
		if x.prod != y.prod {
			return cmp.Compare(x.prod, y.prod)
		}
		return cmp.Compare(x.cons, y.cons)
	})
	out := make([]AppDep, 0, len(edges))
	for i, e := range edges {
		if i == 0 || e.prod != edges[i-1].prod || e.cons != edges[i-1].cons {
			out = append(out, AppDep{Producer: a.tr.AppName(e.prod), Consumer: a.tr.AppName(e.cons)})
		}
		d := &out[len(out)-1]
		d.Bytes += e.bytes
		d.Files++
	}
	return out
}

// phaseLabel renders the paper's "Frequency" attribute: a handful of ops
// per rank prints as "N ops/rank"; dense bursts of small ops are
// "Iterative"; dense bursts of larger ops are "Bulk".
func phaseLabel(opsPerRank float64, granule int64) string {
	switch {
	case opsPerRank <= 1.5:
		return "1 op"
	case opsPerRank <= 16:
		return itoa(int(opsPerRank+0.5)) + " ops/rank"
	case granule > 0 && granule <= 16*1024:
		return "Iterative (" + sizeStr(granule) + ")"
	default:
		return "Bulk (" + sizeStr(granule) + ")"
	}
}

func (a *analysis) highLevel(dist stats.DistKind) HighLevelIOEntity {
	// Data representation: dominant dimensionality weighted by file I/O,
	// tallied over sorted dimensionalities so weight ties resolve to the
	// lower dimensionality regardless of map iteration order.
	dims := map[int]int64{}
	for i := range a.files {
		fa := &a.files[i]
		info := a.tr.Files[fa.id]
		if info.NDims > 0 {
			dims[info.NDims] += fa.bytesRead + fa.bytesWritten + 1
		}
	}
	dimOrder := make([]int, 0, len(dims))
	for d := range dims {
		dimOrder = append(dimOrder, d)
	}
	sort.Ints(dimOrder)
	bestDim, bestW := 0, int64(-1)
	for _, d := range dimOrder {
		if dims[d] > bestW {
			bestDim, bestW = d, dims[d]
		}
	}
	repr := "unknown"
	if bestDim > 0 {
		repr = itoa(bestDim) + "D"
	}
	return HighLevelIOEntity{
		DataRepr:      repr,
		Granularity:   a.primGran,
		AccessPattern: a.primPattern,
		DataDist:      dist,
	}
}

func (a *analysis) dataDist() stats.DistKind {
	var values []float64
	for _, s := range a.tr.Samples {
		values = append(values, s.Values...)
	}
	return stats.FitDistribution(values)
}

func (a *analysis) ranksPerNode() int {
	if a.tr.Meta.Nodes <= 0 {
		return 0
	}
	return a.tr.Meta.Ranks / a.tr.Meta.Nodes
}

// middleware reports the POSIX-visible rows: what reaches storage after
// middleware.
func (a *analysis) middleware() MiddlewareIOEntity {
	return MiddlewareIOEntity{
		ExtraIOCoresPerNode: max(0, a.tr.Meta.CoresPerNode-a.ranksPerNode()),
		Granularity:         a.posixGran,
		MemPerNodeGB:        a.tr.Meta.MemPerNodeGB,
		AccessPattern:       a.posixPattern,
	}
}

func (a *analysis) storageEntities() (NodeLocalEntity, SharedStorageEntity) {
	var nl NodeLocalEntity
	var sh SharedStorageEntity
	nl.Dir = a.tr.Meta.NodeLocalDir
	sh.Dir = a.tr.Meta.PFSDir
	if cfg := a.opt.Storage; cfg != nil {
		nl.ParallelOps = cfg.NodeLocalParallel
		nl.CapacityBytes = cfg.NodeLocalCapacity
		nl.MaxBWPerNode = cfg.NodeLocalBW
		sh.ParallelServers = cfg.PFSServers
		sh.CapacityBytes = cfg.PFSCapacity
		sh.MaxBW = cfg.PFSServerBW * int64(cfg.PFSServers)
	}
	return nl, sh
}

func (a *analysis) dataset(dist stats.DistKind) DatasetEntity {
	formats := map[string]int64{}
	var totalSize, io, dataFileSize, metaFileSize int64
	for i := range a.files {
		fa := &a.files[i]
		info := a.tr.Files[fa.id]
		formats[info.Format]++
		totalSize += info.Size
		io += fa.bytesRead + fa.bytesWritten
		if info.Size >= 1<<20 {
			dataFileSize = max(dataFileSize, info.Size)
		} else {
			metaFileSize = max(metaFileSize, info.Size)
		}
	}
	bestFmt, bestN := "", int64(-1)
	for f, n := range formats {
		if n > bestN || (n == bestN && f > bestFmt) {
			bestFmt, bestN = f, n
		}
	}
	dPct, mPct := pcts(a.primData, a.primMeta)
	return DatasetEntity{
		Format:       bestFmt,
		SizeBytes:    totalSize,
		NumFiles:     len(a.files),
		IOBytes:      io,
		IOTime:       a.ioTime,
		DataOpsPct:   dPct,
		MetaOpsPct:   mPct,
		DataFileSize: dataFileSize,
		MetaFileSize: metaFileSize,
		DataDist:     dist,
	}
}

// fileEntity reports the representative data file: the one with the
// highest I/O volume, volume ties breaking to the lowest file ID (the
// first such file recorded) so the pick is deterministic.
func (a *analysis) fileEntity() FileEntity {
	var best *fileSum
	for i := range a.files {
		fa := &a.files[i]
		if best == nil || fa.bytesRead+fa.bytesWritten > best.bytesRead+best.bytesWritten {
			best = fa
		}
	}
	if best == nil {
		return FileEntity{}
	}
	info := a.tr.Files[best.id]
	dPct, mPct := pcts(best.dataOps, best.metaOps)
	enc := ""
	if info.Format == "fits" {
		enc = "FITS"
	}
	return FileEntity{
		Path:       info.Path,
		Format:     info.Format,
		SizeBytes:  info.Size,
		IOBytes:    best.bytesRead + best.bytesWritten,
		IOTime:     best.ioDur,
		DataOpsPct: dPct,
		MetaOpsPct: mPct,
		Attrs: FileFormatAttrs{
			Chunked:   false,
			NDatasets: 1,
			NDims:     info.NDims,
			DataType:  info.DataType,
			Encoding:  enc,
		},
	}
}

// figure assembles the per-workload figure panels from the fused scan's
// accumulators (histograms, timelines, per-rank bandwidth, top flows).
func (a *analysis) figure() FigureData {
	fig := FigureData{
		ReadHist:  a.acc.readHist,
		WriteHist: a.acc.writeHist,
		ReadTL:    a.acc.readTL,
		WriteTL:   a.acc.writeTL,
	}

	// Per-rank achieved bandwidth (Figure 2c), ranks ascending.
	for si := range a.acc.perRank {
		acc := &a.acc.perRank[si]
		if !acc.hit {
			continue
		}
		rb := RankBandwidth{Rank: int32(si - 1)}
		if acc.rDur > 0 {
			rb.ReadBW = float64(acc.rBytes) / (float64(acc.rDur) / float64(time.Second))
		}
		if acc.wDur > 0 {
			rb.WriteBW = float64(acc.wBytes) / (float64(acc.wDur) / float64(time.Second))
		}
		fig.RankBW = append(fig.RankBW, rb)
	}

	// Dependency panel: highest-volume files.
	flows := make([]*fileSum, len(a.files))
	for i := range a.files {
		flows[i] = &a.files[i]
	}
	slices.SortFunc(flows, func(x, y *fileSum) int {
		if bx, by := x.bytesRead+x.bytesWritten, y.bytesRead+y.bytesWritten; bx != by {
			return cmp.Compare(by, bx)
		}
		return cmp.Compare(x.id, y.id)
	})
	if len(flows) > a.opt.TopFlows {
		flows = flows[:a.opt.TopFlows]
	}
	for _, fa := range flows {
		fig.TopFlows = append(fig.TopFlows, FileFlow{
			Path:         a.tr.Files[fa.id].Path,
			WriterRanks:  fa.writerRanks,
			ReaderRanks:  fa.readerRanks,
			BytesWritten: fa.bytesWritten,
			BytesRead:    fa.bytesRead,
			Opens:        fa.opens,
		})
	}
	return fig
}
