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
	// (<= 0 means GOMAXPROCS, 1 runs fully sequential). Row subsets merge in
	// chunk order and every accumulator is an integer sum, a set union or a
	// minimum, so the characterization is bit-identical at any setting.
	Parallelism int
	// Filter restricts the characterization to the matching events. Analyze
	// applies it to the in-memory event log before columnarizing (the
	// reference semantics); the facade's file path pushes the same filter
	// down to the block index instead. AnalyzeTable assumes its table was
	// already built under the filter and does not re-apply it.
	Filter trace.Filter
	// Stats, when non-nil, receives per-stage wall-clock timings.
	Stats *Timings
}

// Timings records the wall-clock cost of each pipeline stage.
type Timings struct {
	// TraceMerge is the tracer's shard-merge time (filled by callers that
	// hold the tracer; the analyzer itself never sees it).
	TraceMerge time.Duration
	// Columnarize is the row-to-column transposition time.
	Columnarize time.Duration
	// Analyze is the fused characterization time.
	Analyze time.Duration
	// Scan counts what the scan plan did: blocks pruned via the footer
	// index, rows dropped by the residual filter, payload bytes decoded vs
	// available. Filled by the file scan path (or, for in-memory filtering,
	// the row counters only).
	Scan colstore.ScanCounters
}

// The analyzer's declared column sets — the projection half of its scan
// plan. Each fused pass Requires exactly the columns its kernels read, so a
// lazily planned table decodes nothing the analysis never touches.
const (
	// pass1Cols feeds primary-level resolution and the global scan facts.
	pass1Cols = trace.ColEnd | trace.ColOp | trace.ColApp | trace.ColRank |
		trace.ColLevel | trace.ColFile
	// pass2Cols feeds the fused characterization scan.
	pass2Cols = trace.ColLevel | trace.ColOp | trace.ColApp | trace.ColFile |
		trace.ColRank | trace.ColNode | trace.ColSize | trace.ColStart |
		trace.ColEnd
	// postCols covers the random-access post passes (phases, access
	// patterns, dominant sizes, interface resolution).
	postCols = trace.ColOp | trace.ColStart | trace.ColEnd | trace.ColSize |
		trace.ColRank | trace.ColFile | trace.ColOffset | trace.ColLib
)

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
	// An eagerly built table has every column materialized, so analysis
	// cannot hit a decode error; what remains is a trace whose events name
	// ids outside its own interned tables, which no Tracer produces. Callers
	// holding a trace of unknown provenance use AnalyzeContext.
	c, err := AnalyzeTable(tr, tb, opt)
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

// AnalyzeTable builds the characterization from a columnar table plus the
// trace header carrying its metadata and interning tables (hdr.Events is
// never touched, so traces streamed off disk need not materialize one).
// The table may be lazily planned (colstore.FromBlocksSpec): each pass
// Requires its declared column set, so decode errors deferred by the plan
// surface here. opt.Filter is NOT applied — the table is assumed to have
// been built under it.
func AnalyzeTable(hdr *trace.Trace, tb *colstore.Table, opt Options) (*Characterization, error) {
	return AnalyzeTableContext(context.Background(), hdr, tb, opt)
}

// AnalyzeTableContext is AnalyzeTable with cancellation: the chunk-parallel
// scan workers observe ctx per chunk, so a canceled or timed-out caller
// aborts the analysis mid-scan. The returned error is ctx.Err() when the
// abort was a cancellation.
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

	// Filled by the scan (analyzer_grouped.go). rows holds the per-chunk
	// row subsets; run() gathers the primary and POSIX ones into the views
	// the post passes consume. appRanks and perRank are indexed by id + 1;
	// files lists the touched files in ascending id order.
	runtime    time.Duration
	gpuUsed    bool
	appRanks   []int // ranks that emitted any event, per app
	rows       []chunkRows
	primaryV   *rowView
	posixV     *rowView
	files      []*fileAgg
	readBytes  int64
	writeBytes int64
	primData   int64
	primMeta   int64
	readHist   stats.SizeHistogram
	writeHist  stats.SizeHistogram
	readTL     *stats.Timeline
	writeTL    *stats.Timeline
	perRank    []rankAcc
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
	if err := a.fusedScan(); err != nil {
		return nil, err
	}
	// The post passes random-access small row subsets across many columns;
	// materialize their declared set up front rather than per accessor call.
	if err := a.tb.MaterializeContext(a.ctx, a.par, postCols); err != nil {
		return nil, err
	}
	if err := a.ctx.Err(); err != nil {
		return nil, err
	}
	a.primaryV = a.view(func(r *chunkRows) []rowRange { return r.primary }, primaryViewCols)
	a.posixV = a.view(func(r *chunkRows) []rowRange { return r.posix }, posixViewCols)

	c := &Characterization{Workload: a.tr.Meta.Workload}
	c.JobConfig = a.jobConfig()
	c.Apps = a.apps()
	c.Workflow = a.workflow(c.Apps)
	c.Phases = a.phases()
	c.HighLevel = a.highLevel()
	c.Middleware = a.middleware()
	c.NodeLocal, c.Shared = a.storageEntities()
	c.Dataset = a.dataset()
	c.File = a.fileEntity()
	c.Figure = a.figure()
	return c, nil
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

// opCounts tallies data and meta ops over a view range.
func opCounts(v *rowView, lo, hi int) (data, meta int64) {
	for _, b := range v.op[lo:hi] {
		if op := trace.Op(b); op.IsData() {
			data++
		} else if op.IsMeta() {
			meta++
		}
	}
	return
}

func pcts(data, meta int64) (float64, float64) {
	total := data + meta
	if total == 0 {
		return 0, 0
	}
	return float64(data) / float64(total), float64(meta) / float64(total)
}

// unionDuration merges [start,end) intervals of the view's rows and
// returns the total covered time — the workload's I/O wall-clock. Table
// order is Start-sorted for tracer-built traces, so the sort is detected
// away in one pass; the interval union is order-independent either way.
func unionDuration(v *rowView) time.Duration {
	if v.n == 0 {
		return 0
	}
	type iv struct{ s, e int64 }
	ivs := make([]iv, v.n)
	sorted := true
	for i := 0; i < v.n; i++ {
		ivs[i] = iv{v.start[i], v.end[i]}
		if i > 0 && ivs[i].s < ivs[i-1].s {
			sorted = false
		}
	}
	if !sorted {
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].s < ivs[y].s })
	}
	var total, curS, curE int64
	curS, curE = ivs[0].s, ivs[0].e
	for _, v := range ivs[1:] {
		if v.s > curE {
			total += curE - curS
			curS, curE = v.s, v.e
		} else if v.e > curE {
			curE = v.e
		}
	}
	total += curE - curS
	return time.Duration(total)
}

// dominantSize returns the most frequent exact transfer size among the
// view range's data rows (ties break toward the larger size). Matching
// rows arrive in equal-size runs (the tracer's transfer loops), so the
// walk batches each run into one map update — the per-row counts
// regrouped.
func dominantSize(v *rowView, lo, hi int, op trace.Op) int64 {
	counts := map[int64]int64{}
	for i := lo; i < hi; {
		if trace.Op(v.op[i]) != op || v.size[i] <= 0 {
			i++
			continue
		}
		sz := v.size[i]
		j := i + 1
		for j < hi && trace.Op(v.op[j]) == op && v.size[j] == sz {
			j++
		}
		counts[sz] += int64(j - i)
		i = j
	}
	var best int64
	var bestN int64 = -1
	for sz, n := range counts {
		if n > bestN || (n == bestN && sz > best) {
			best, bestN = sz, n
		}
	}
	if bestN <= 0 {
		return 0
	}
	return best
}

// interfaceName maps the dominant library of a view's rows to the table
// name. Libraries tally into a fixed array walked in ascending enum
// order, so a count tie deterministically picks the lower-level library.
func interfaceName(v *rowView) string {
	var counts [8]int64
	for _, lib := range v.lib {
		if int(lib) < len(counts) {
			counts[lib]++
		}
	}
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

// accessPattern classifies offsets per (file, rank) stream: sequential if
// at least 80% of consecutive data accesses are non-decreasing in offset.
// Rows of one stream arrive in runs, so the stream map is consulted only
// when the (file, rank) key changes and the offsets chain through a local
// in between — the comparison sequence of a per-row lookup, with non-data
// and file-less rows leaving the chain untouched.
func accessPattern(v *rowView) string {
	type key struct {
		f int32
		r int32
	}
	last := map[key]int64{}
	var seq, total int64
	var k key
	var prev int64
	var ok bool
	for i := 0; i < v.n; i++ {
		if i == 0 || v.file[i] != k.f || v.rank[i] != k.r {
			if ok {
				last[k] = prev
			}
			k = key{v.file[i], v.rank[i]}
			prev, ok = last[k]
		}
		if k.f < 0 || !trace.Op(v.op[i]).IsData() {
			continue
		}
		if ok {
			total++
			if v.off[i] >= prev {
				seq++
			}
		}
		prev, ok = v.off[i], true
	}
	if total == 0 || float64(seq)/float64(total) >= 0.8 {
		return "Seq"
	}
	return "Random"
}

func (a *analysis) apps() []AppEntity {
	var out []AppEntity
	for si := range a.appRanks {
		// An app is reported when it has primary rows; slots ascend, so the
		// entities come out in app id order.
		v := a.view(func(r *chunkRows) []rowRange { return r.byApp[si] }, appViewCols)
		if v.n == 0 {
			continue
		}
		app := int32(si - 1)
		data, meta := opCounts(v, 0, v.n)
		dPct, mPct := pcts(data, meta)
		var bytes int64
		var minS, maxE int64
		minS = 1<<63 - 1
		for i := 0; i < v.n; i++ {
			if trace.Op(v.op[i]).IsData() {
				bytes += v.size[i]
			}
			if v.start[i] < minS {
				minS = v.start[i]
			}
			if v.end[i] > maxE {
				maxE = v.end[i]
			}
		}
		fpp, shared := a.fileSplitForApp(app)
		out = append(out, AppEntity{
			Name: a.tr.AppName(app),
			// Processes counts every rank that emitted any event for the
			// app, including pure compute ranks (the paper's per-app process
			// count) — gathered in pass 1 rather than by rescanning here.
			Processes:   a.appRanks[si],
			ProcDep:     a.procDep(app),
			FPPFiles:    fpp,
			SharedFiles: shared,
			IOBytes:     bytes,
			DataOpsPct:  dPct,
			MetaOpsPct:  mPct,
			Interface:   interfaceName(v),
			Runtime:     time.Duration(maxE - minS),
		})
	}
	return out
}

// fileSplitForApp counts FPP vs shared files among files the app touched.
func (a *analysis) fileSplitForApp(app int32) (fpp, shared int) {
	for _, fa := range a.files {
		if !fa.readerApps[app] && !fa.writerApps[app] {
			continue
		}
		if len(fa.ranks) == 1 {
			fpp++
		} else {
			shared++
		}
	}
	return
}

// procDep classifies the dominant process/data relationship of an app.
func (a *analysis) procDep(app int32) ProcDepKind {
	var solo, singleWriter, sharedRead, pipeline int
	for _, fa := range a.files {
		if !fa.readerApps[app] && !fa.writerApps[app] {
			continue
		}
		switch {
		case len(fa.ranks) == 1:
			solo++
		case len(fa.writerRanks) == 1 && len(fa.ranks) > 1:
			singleWriter++
		case len(fa.writerRanks) == 0 && len(fa.readerRanks) > 1:
			sharedRead++
		default:
			pipeline++
		}
	}
	max, kind := solo, DepFilePerProcess
	if singleWriter > max {
		max, kind = singleWriter, DepSingleWriter
	}
	if sharedRead > max {
		max, kind = sharedRead, DepSharedRead
	}
	if pipeline > max {
		kind = DepPipeline
	}
	return kind
}

func (a *analysis) workflow(apps []AppEntity) WorkflowEntity {
	dPct, mPct := pcts(a.primData, a.primMeta)
	var fpp, shared int
	for _, fa := range a.files {
		if len(fa.ranks) == 1 {
			fpp++
		} else {
			shared++
		}
	}
	ranksPerNode := 0
	if a.tr.Meta.Nodes > 0 {
		ranksPerNode = a.tr.Meta.Ranks / a.tr.Meta.Nodes
	}
	gpus := 0
	if a.gpuUsed {
		gpus = a.tr.Meta.GPUsPerNode
	}
	crossRAW := false
	for _, fa := range a.files {
		if len(fa.writerNodes) == 0 || len(fa.readerNodes) == 0 {
			continue
		}
		for rn := range fa.readerNodes {
			if !fa.writerNodes[rn] || len(fa.writerNodes) > 1 {
				crossRAW = true
			}
		}
	}
	return WorkflowEntity{
		CPUCoresUsedPerNode: ranksPerNode,
		GPUsUsedPerNode:     gpus,
		NumApps:             len(apps),
		AppDeps:             a.appDeps(),
		FPPFiles:            fpp,
		SharedFiles:         shared,
		IOBytes:             a.readBytes + a.writeBytes,
		ReadBytes:           a.readBytes,
		WriteBytes:          a.writeBytes,
		DataOpsPct:          dPct,
		MetaOpsPct:          mPct,
		CrossNodeRAW:        crossRAW,
		IOTime:              unionDuration(a.primaryV),
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

// phases splits the primary I/O rows into activity bursts separated by
// more than the gap threshold, then characterizes each burst (Table V).
// Primary rows arrive in table order, which the tracer guarantees is
// (Start, Rank, End)-sorted; the stable sort below is a cheap guard for
// tables built from unsorted traces and cannot reorder sorted input.
func (a *analysis) phases() []IOPhaseEntity {
	v := a.primaryV
	if v.n == 0 {
		return nil
	}
	// Detect the sorted common case in one pass; only tables built from
	// unsorted traces pay the stable sort (as an index permutation over
	// the gathered view — the same order the row sort produced).
	sorted := true
	for i := 1; i < v.n; i++ {
		if v.start[i] < v.start[i-1] {
			sorted = false
			break
		}
	}
	if !sorted {
		idx := make([]int, v.n)
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(x, y int) bool { return v.start[idx[x]] < v.start[idx[y]] })
		v = permuteView(v, idx)
	}

	gap := int64(a.opt.PhaseGap)
	var phases []IOPhaseEntity
	lo := 0
	var curEnd int64
	for i := 0; i < v.n; i++ {
		if i > lo && v.start[i]-curEnd > gap {
			phases = append(phases, a.buildPhase(len(phases), v, lo, i))
			lo = i
		}
		if v.end[i] > curEnd {
			curEnd = v.end[i]
		}
	}
	phases = append(phases, a.buildPhase(len(phases), v, lo, v.n))
	return phases
}

func (a *analysis) buildPhase(idx int, v *rowView, lo, hi int) IOPhaseEntity {
	data, meta := opCounts(v, lo, hi)
	dPct, mPct := pcts(data, meta)
	var bytes int64
	ranks := map[int32]bool{}
	minS, maxE := v.start[lo], int64(0)
	for i := lo; i < hi; i++ {
		if trace.Op(v.op[i]).IsData() {
			bytes += v.size[i]
		}
		// Consecutive rows usually share a rank; the set only needs a map
		// write when the rank changes.
		if r := v.rank[i]; i == lo || r != v.rank[i-1] {
			ranks[r] = true
		}
		if v.start[i] < minS {
			minS = v.start[i]
		}
		if v.end[i] > maxE {
			maxE = v.end[i]
		}
	}
	opsPerRank := float64(hi-lo) / float64(len(ranks))
	granule := dominantSize(v, lo, hi, trace.OpRead)
	if g := dominantSize(v, lo, hi, trace.OpWrite); granule == 0 || (g != 0 && data > 0 && g > 0 && countOp(v, lo, hi, trace.OpWrite) > countOp(v, lo, hi, trace.OpRead)) {
		granule = g
	}
	return IOPhaseEntity{
		Index:      idx,
		Start:      time.Duration(minS),
		End:        time.Duration(maxE),
		IOBytes:    bytes,
		DataOpsPct: dPct,
		MetaOpsPct: mPct,
		OpsPerRank: opsPerRank,
		Granule:    granule,
		Frequency:  phaseLabel(opsPerRank, granule),
		Runtime:    time.Duration(maxE - minS),
	}
}

// countOp counts rows of one op over a view range.
func countOp(v *rowView, lo, hi int, op trace.Op) int64 {
	var n int64
	for i := lo; i < hi; i++ {
		if trace.Op(v.op[i]) == op {
			n++
		}
	}
	return n
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

func (a *analysis) highLevel() HighLevelIOEntity {
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
		DataRepr: repr,
		Granularity: Granularity{
			Read:  dominantSize(a.primaryV, 0, a.primaryV.n, trace.OpRead),
			Write: dominantSize(a.primaryV, 0, a.primaryV.n, trace.OpWrite),
		},
		AccessPattern: accessPattern(a.primaryV),
		DataDist:      a.dataDist(),
	}
}

func (a *analysis) dataDist() stats.DistKind {
	var values []float64
	for _, s := range a.tr.Samples {
		values = append(values, s.Values...)
	}
	return stats.FitDistribution(values)
}

func (a *analysis) middleware() MiddlewareIOEntity {
	// POSIX-visible rows (collected by the fused scan): what reaches
	// storage after middleware.
	ranksPerNode := 0
	if a.tr.Meta.Nodes > 0 {
		ranksPerNode = a.tr.Meta.Ranks / a.tr.Meta.Nodes
	}
	extra := a.tr.Meta.CoresPerNode - ranksPerNode
	if extra < 0 {
		extra = 0
	}
	return MiddlewareIOEntity{
		ExtraIOCoresPerNode: extra,
		Granularity: Granularity{
			Read:  dominantSize(a.posixV, 0, a.posixV.n, trace.OpRead),
			Write: dominantSize(a.posixV, 0, a.posixV.n, trace.OpWrite),
		},
		MemPerNodeGB:  a.tr.Meta.MemPerNodeGB,
		AccessPattern: accessPattern(a.posixV),
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

func (a *analysis) dataset() DatasetEntity {
	formats := map[string]int64{}
	var totalSize int64
	var dataFileSize, metaFileSize int64
	for _, fa := range a.files {
		info := a.tr.Files[fa.id]
		formats[info.Format]++
		totalSize += info.Size
		if info.Size >= 1<<20 {
			if info.Size > dataFileSize {
				dataFileSize = info.Size
			}
		} else if info.Size > metaFileSize {
			metaFileSize = info.Size
		}
	}
	bestFmt, bestN := "", int64(-1)
	for f, n := range formats {
		if n > bestN || (n == bestN && f > bestFmt) {
			bestFmt, bestN = f, n
		}
	}
	dPct, mPct := pcts(a.primData, a.primMeta)
	var io int64
	for _, fa := range a.files {
		io += fa.bytesRead + fa.bytesWritten
	}
	return DatasetEntity{
		Format:       bestFmt,
		SizeBytes:    totalSize,
		NumFiles:     len(a.files),
		IOBytes:      io,
		IOTime:       unionDuration(a.primaryV),
		DataOpsPct:   dPct,
		MetaOpsPct:   mPct,
		DataFileSize: dataFileSize,
		MetaFileSize: metaFileSize,
		DataDist:     a.dataDist(),
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
		ReadHist:  a.readHist,
		WriteHist: a.writeHist,
		ReadTL:    a.readTL,
		WriteTL:   a.writeTL,
	}

	// Per-rank achieved bandwidth (Figure 2c), ranks ascending.
	for si := range a.perRank {
		acc := &a.perRank[si]
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

// itoa forwards to util.go's formatter.
func itoa(n int) string { return intToString(n) }
