package core

import (
	"context"
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
	// them; acc is the workers' accumulators merged, files its touched files
	// in ascending id order.
	parts                     []chunkPart
	acc                       *pass2Acc
	files                     []*fileAgg
	primData, primMeta        int64
	ioTime                    time.Duration
	phases                    []IOPhaseEntity
	primGran, posixGran       Granularity
	primPattern, posixPattern string
}

type fileAgg struct {
	id           int32
	ranks        map[int32]bool
	writerRanks  map[int32]bool
	readerRanks  map[int32]bool
	writerNodes  map[int32]bool
	readerNodes  map[int32]bool
	writerApps   map[int32]bool
	readerApps   map[int32]bool
	bytesRead    int64
	bytesWritten int64
	opens        int64
	dataOps      int64
	metaOps      int64
	ioDur        time.Duration
}

func newFileAgg(id int32) *fileAgg {
	return &fileAgg{
		id:          id,
		ranks:       map[int32]bool{},
		writerRanks: map[int32]bool{},
		readerRanks: map[int32]bool{},
		writerNodes: map[int32]bool{},
		readerNodes: map[int32]bool{},
		writerApps:  map[int32]bool{},
		readerApps:  map[int32]bool{},
	}
}

func mergeSet(dst, src map[int32]bool) {
	for k := range src {
		dst[k] = true
	}
}

func (fa *fileAgg) merge(o *fileAgg) {
	mergeSet(fa.ranks, o.ranks)
	mergeSet(fa.writerRanks, o.writerRanks)
	mergeSet(fa.readerRanks, o.readerRanks)
	mergeSet(fa.writerNodes, o.writerNodes)
	mergeSet(fa.readerNodes, o.readerNodes)
	mergeSet(fa.writerApps, o.writerApps)
	mergeSet(fa.readerApps, o.readerApps)
	fa.bytesRead += o.bytesRead
	fa.bytesWritten += o.bytesWritten
	fa.opens += o.opens
	fa.dataOps += o.dataOps
	fa.metaOps += o.metaOps
	fa.ioDur += o.ioDur
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
	for si := range a.acc.apps {
		// An app is reported when it has primary rows; slots ascend, so the
		// entities come out in app id order.
		acc := &a.acc.apps[si]
		if acc.rows == 0 {
			continue
		}
		app := int32(si - 1)
		dPct, mPct := pcts(acc.data, acc.rows-acc.data)
		fpp, shared, dep := a.appFiles(app)
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

// appFiles counts the FPP and shared files among those the app touched and
// classifies its dominant process/data relationship.
func (a *analysis) appFiles(app int32) (fpp, shared int, kind ProcDepKind) {
	var singleWriter, sharedRead, pipeline int
	for _, fa := range a.files {
		if !fa.readerApps[app] && !fa.writerApps[app] {
			continue
		}
		switch {
		case len(fa.ranks) == 1:
			fpp++
		case len(fa.writerRanks) == 1:
			singleWriter++
		case len(fa.writerRanks) == 0 && len(fa.readerRanks) > 1:
			sharedRead++
		default:
			pipeline++
		}
	}
	most, kind := fpp, DepFilePerProcess
	if singleWriter > most {
		most, kind = singleWriter, DepSingleWriter
	}
	if sharedRead > most {
		most, kind = sharedRead, DepSharedRead
	}
	if pipeline > most {
		kind = DepPipeline
	}
	return fpp, singleWriter + sharedRead + pipeline, kind
}

func (a *analysis) workflow(apps []AppEntity) WorkflowEntity {
	dPct, mPct := pcts(a.primData, a.primMeta)
	var fpp, shared int
	gpus := 0
	if a.gpuUsed {
		gpus = a.tr.Meta.GPUsPerNode
	}
	crossRAW := false
	for _, fa := range a.files {
		if len(fa.ranks) == 1 {
			fpp++
		} else {
			shared++
		}
		if len(fa.writerNodes) == 0 {
			continue
		}
		for rn := range fa.readerNodes {
			if !fa.writerNodes[rn] || len(fa.writerNodes) > 1 {
				crossRAW = true
			}
		}
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
	type key struct{ prod, cons int32 }
	agg := map[key]*AppDep{}
	var order []key
	for _, fa := range a.files {
		for prod := range fa.writerApps {
			for cons := range fa.readerApps {
				if prod == cons {
					continue
				}
				k := key{prod, cons}
				d := agg[k]
				if d == nil {
					d = &AppDep{
						Producer: a.tr.AppName(prod),
						Consumer: a.tr.AppName(cons),
					}
					agg[k] = d
					order = append(order, k)
				}
				d.Bytes += fa.bytesRead
				d.Files++
			}
		}
	}
	sort.Slice(order, func(x, y int) bool {
		if order[x].prod != order[y].prod {
			return order[x].prod < order[y].prod
		}
		return order[x].cons < order[y].cons
	})
	out := make([]AppDep, 0, len(order))
	for _, k := range order {
		out = append(out, *agg[k])
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
	for _, fa := range a.files {
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
	for _, fa := range a.files {
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
	var best *fileAgg
	for _, fa := range a.files {
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
	flows := append([]*fileAgg(nil), a.files...)
	sort.Slice(flows, func(x, y int) bool {
		bx := flows[x].bytesRead + flows[x].bytesWritten
		by := flows[y].bytesRead + flows[y].bytesWritten
		if bx != by {
			return bx > by
		}
		return flows[x].id < flows[y].id
	})
	if len(flows) > a.opt.TopFlows {
		flows = flows[:a.opt.TopFlows]
	}
	for _, fa := range flows {
		fig.TopFlows = append(fig.TopFlows, FileFlow{
			Path:         a.tr.Files[fa.id].Path,
			WriterRanks:  len(fa.writerRanks),
			ReaderRanks:  len(fa.readerRanks),
			BytesWritten: fa.bytesWritten,
			BytesRead:    fa.bytesRead,
			Opens:        fa.opens,
		})
	}
	return fig
}
