package core

import (
	"sort"
	"time"

	"vani/internal/stats"
	"vani/internal/trace"
)

// The reference analyzer. It characterizes a []trace.Event one event at a
// time with maps, the way the definitions in the paper's Section IV-B read:
// no chunks, no columns, no run summaries, no dense id spaces, no
// parallelism, no batching. It is deliberately slow and deliberately
// written from the definitions rather than from the production scan, so a
// bug the fast path could share with its own fallbacks has nowhere to hide
// here. It imports neither colstore nor parallel, and shares with the
// production analyzer only the entity types, the stats accumulators' plain
// per-row Add, and the label formatting helpers.

type oStream struct{ app, file int32 }

type oFile struct {
	id                       int32
	ranks                    map[int32]bool
	writerRanks, readerRanks map[int32]bool
	writerNodes, readerNodes map[int32]bool
	writerApps, readerApps   map[int32]bool
	bytesRead, bytesWritten  int64
	opens, dataOps, metaOps  int64
	ioDur                    time.Duration
}

func oracleAnalyze(tr *trace.Trace, opt Options) *Characterization {
	opt.fill()
	evs := trace.FilterEvents(tr.Events, opt.Filter)

	// Primary level per (app, file) stream: the lowest level value (the
	// highest abstraction) at which the app issued I/O on the file.
	level := map[oStream]trace.Level{}
	appRanks := map[int32]map[int32]bool{}
	var runtime time.Duration
	gpu := false
	for _, ev := range evs {
		if ev.End > runtime {
			runtime = ev.End
		}
		if ev.Op == trace.OpGPUCompute {
			gpu = true
		}
		if appRanks[ev.App] == nil {
			appRanks[ev.App] = map[int32]bool{}
		}
		appRanks[ev.App][ev.Rank] = true
		if !ev.Op.IsIO() {
			continue
		}
		k := oStream{ev.App, ev.File}
		if cur, ok := level[k]; !ok || ev.Level < cur {
			level[k] = ev.Level
		}
	}

	var primary, posix []trace.Event
	for _, ev := range evs {
		if !ev.Op.IsIO() {
			continue
		}
		if ev.Level == trace.LevelPosix {
			posix = append(posix, ev)
		}
		if ev.Level == level[oStream{ev.App, ev.File}] {
			primary = append(primary, ev)
		}
	}

	span := runtime
	if span <= 0 {
		span = time.Second
	}
	fig := FigureData{
		ReadTL:  stats.NewTimeline(span, opt.TimelineBins),
		WriteTL: stats.NewTimeline(span, opt.TimelineBins),
	}
	files := map[int32]*oFile{}
	type rankIO struct{ rBytes, wBytes, rDur, wDur int64 }
	perRank := map[int32]*rankIO{}
	var readBytes, writeBytes, nData, nMeta int64
	for _, ev := range primary {
		dur := ev.End - ev.Start
		if ev.Op.IsData() {
			nData++
		} else if ev.Op.IsMeta() {
			nMeta++
		}
		if perRank[ev.Rank] == nil {
			perRank[ev.Rank] = &rankIO{}
		}
		var f *oFile
		if ev.File >= 0 {
			f = files[ev.File]
			if f == nil {
				f = &oFile{
					id: ev.File, ranks: map[int32]bool{},
					writerRanks: map[int32]bool{}, readerRanks: map[int32]bool{},
					writerNodes: map[int32]bool{}, readerNodes: map[int32]bool{},
					writerApps: map[int32]bool{}, readerApps: map[int32]bool{},
				}
				files[ev.File] = f
			}
			f.ranks[ev.Rank] = true
			f.ioDur += dur
		}
		switch ev.Op {
		case trace.OpRead:
			readBytes += ev.Size
			fig.ReadHist.Add(ev.Size, dur)
			fig.ReadTL.Add(ev.Start, ev.End, ev.Size)
			perRank[ev.Rank].rBytes += ev.Size
			perRank[ev.Rank].rDur += int64(dur)
			if f != nil {
				f.bytesRead += ev.Size
				f.readerRanks[ev.Rank] = true
				f.readerNodes[ev.Node] = true
				f.readerApps[ev.App] = true
				f.dataOps++
			}
		case trace.OpWrite:
			writeBytes += ev.Size
			fig.WriteHist.Add(ev.Size, dur)
			fig.WriteTL.Add(ev.Start, ev.End, ev.Size)
			perRank[ev.Rank].wBytes += ev.Size
			perRank[ev.Rank].wDur += int64(dur)
			if f != nil {
				f.bytesWritten += ev.Size
				f.writerRanks[ev.Rank] = true
				f.writerNodes[ev.Node] = true
				f.writerApps[ev.App] = true
				f.dataOps++
			}
		default:
			if f != nil {
				f.metaOps++
				if ev.Op == trace.OpOpen {
					f.opens++
				}
			}
		}
	}
	fileIDs := make([]int32, 0, len(files))
	for id := range files {
		fileIDs = append(fileIDs, id)
	}
	sort.Slice(fileIDs, func(x, y int) bool { return fileIDs[x] < fileIDs[y] })

	c := &Characterization{Workload: tr.Meta.Workload}
	m := tr.Meta
	c.JobConfig = JobConfigEntity{
		Nodes: m.Nodes, CPUCoresPerNode: m.CoresPerNode, GPUsPerNode: m.GPUsPerNode,
		NodeLocalBBDir: m.NodeLocalDir, SharedBBDir: m.SharedBBDir, PFSDir: m.PFSDir,
		JobTime: m.JobTimeLimit,
	}

	// Applications, ascending id, those with primary rows only.
	appIDs := []int32{}
	seenApp := map[int32]bool{}
	for _, ev := range primary {
		if !seenApp[ev.App] {
			seenApp[ev.App] = true
			appIDs = append(appIDs, ev.App)
		}
	}
	sort.Slice(appIDs, func(x, y int) bool { return appIDs[x] < appIDs[y] })
	for _, app := range appIDs {
		var rows []trace.Event
		for _, ev := range primary {
			if ev.App == app {
				rows = append(rows, ev)
			}
		}
		data, meta := oCounts(rows)
		dPct, mPct := pcts(data, meta)
		var bytes int64
		minS, maxE := rows[0].Start, time.Duration(0)
		for _, ev := range rows {
			if ev.Op.IsData() {
				bytes += ev.Size
			}
			if ev.Start < minS {
				minS = ev.Start
			}
			if ev.End > maxE {
				maxE = ev.End
			}
		}
		var fpp, shared, solo, singleWriter, sharedRead, pipeline int
		for _, id := range fileIDs {
			f := files[id]
			if !f.readerApps[app] && !f.writerApps[app] {
				continue
			}
			if len(f.ranks) == 1 {
				fpp++
			} else {
				shared++
			}
			switch {
			case len(f.ranks) == 1:
				solo++
			case len(f.writerRanks) == 1:
				singleWriter++
			case len(f.writerRanks) == 0 && len(f.readerRanks) > 1:
				sharedRead++
			default:
				pipeline++
			}
		}
		best, dep := solo, DepFilePerProcess
		if singleWriter > best {
			best, dep = singleWriter, DepSingleWriter
		}
		if sharedRead > best {
			best, dep = sharedRead, DepSharedRead
		}
		if pipeline > best {
			dep = DepPipeline
		}
		c.Apps = append(c.Apps, AppEntity{
			Name: tr.AppName(app), Processes: len(appRanks[app]), ProcDep: dep,
			FPPFiles: fpp, SharedFiles: shared, IOBytes: bytes,
			DataOpsPct: dPct, MetaOpsPct: mPct,
			Interface: oInterface(rows), Runtime: maxE - minS,
		})
	}

	// Workflow.
	{
		dPct, mPct := pcts(nData, nMeta)
		var fpp, shared int
		crossRAW := false
		for _, id := range fileIDs {
			f := files[id]
			if len(f.ranks) == 1 {
				fpp++
			} else {
				shared++
			}
			if len(f.writerNodes) > 0 {
				for rn := range f.readerNodes {
					if !f.writerNodes[rn] || len(f.writerNodes) > 1 {
						crossRAW = true
					}
				}
			}
		}
		rpn := 0
		if m.Nodes > 0 {
			rpn = m.Ranks / m.Nodes
		}
		gpus := 0
		if gpu {
			gpus = m.GPUsPerNode
		}
		type edge struct{ prod, cons int32 }
		deps := map[edge]*AppDep{}
		var edges []edge
		for _, id := range fileIDs {
			f := files[id]
			for prod := range f.writerApps {
				for cons := range f.readerApps {
					if prod == cons {
						continue
					}
					e := edge{prod, cons}
					if deps[e] == nil {
						deps[e] = &AppDep{Producer: tr.AppName(prod), Consumer: tr.AppName(cons)}
						edges = append(edges, e)
					}
					deps[e].Bytes += f.bytesRead
					deps[e].Files++
				}
			}
		}
		sort.Slice(edges, func(x, y int) bool {
			if edges[x].prod != edges[y].prod {
				return edges[x].prod < edges[y].prod
			}
			return edges[x].cons < edges[y].cons
		})
		appDeps := make([]AppDep, 0, len(edges))
		for _, e := range edges {
			appDeps = append(appDeps, *deps[e])
		}
		c.Workflow = WorkflowEntity{
			CPUCoresUsedPerNode: rpn, GPUsUsedPerNode: gpus, NumApps: len(c.Apps),
			AppDeps: appDeps, FPPFiles: fpp, SharedFiles: shared,
			IOBytes: readBytes + writeBytes, ReadBytes: readBytes, WriteBytes: writeBytes,
			DataOpsPct: dPct, MetaOpsPct: mPct, CrossNodeRAW: crossRAW,
			IOTime: oUnion(primary), Runtime: runtime,
		}
	}

	c.Phases = oPhases(primary, opt.PhaseGap)

	// High-level and middleware I/O.
	var samples []float64
	for _, s := range tr.Samples {
		samples = append(samples, s.Values...)
	}
	dist := stats.FitDistribution(samples)
	dims := map[int]int64{}
	for _, id := range fileIDs {
		if nd := tr.Files[id].NDims; nd > 0 {
			dims[nd] += files[id].bytesRead + files[id].bytesWritten + 1
		}
	}
	// Dominant dimensionality by I/O weight, ties to the lower one.
	bestDim, bestW := 0, int64(-1)
	for d, w := range dims {
		if w > bestW || (w == bestW && d < bestDim) {
			bestDim, bestW = d, w
		}
	}
	repr := "unknown"
	if bestDim > 0 {
		repr = itoa(bestDim) + "D"
	}
	c.HighLevel = HighLevelIOEntity{
		DataRepr:      repr,
		Granularity:   Granularity{Read: oDominant(primary, trace.OpRead), Write: oDominant(primary, trace.OpWrite)},
		AccessPattern: oPattern(primary),
		DataDist:      dist,
	}
	rpn := 0
	if m.Nodes > 0 {
		rpn = m.Ranks / m.Nodes
	}
	extra := m.CoresPerNode - rpn
	if extra < 0 {
		extra = 0
	}
	c.Middleware = MiddlewareIOEntity{
		ExtraIOCoresPerNode: extra,
		Granularity:         Granularity{Read: oDominant(posix, trace.OpRead), Write: oDominant(posix, trace.OpWrite)},
		MemPerNodeGB:        m.MemPerNodeGB,
		AccessPattern:       oPattern(posix),
	}

	// Storage.
	c.NodeLocal.Dir, c.Shared.Dir = m.NodeLocalDir, m.PFSDir
	if cfg := opt.Storage; cfg != nil {
		c.NodeLocal.ParallelOps = cfg.NodeLocalParallel
		c.NodeLocal.CapacityBytes = cfg.NodeLocalCapacity
		c.NodeLocal.MaxBWPerNode = cfg.NodeLocalBW
		c.Shared.ParallelServers = cfg.PFSServers
		c.Shared.CapacityBytes = cfg.PFSCapacity
		c.Shared.MaxBW = cfg.PFSServerBW * int64(cfg.PFSServers)
	}

	// Dataset and representative file.
	{
		formats := map[string]int64{}
		var total, dataSize, metaSize, io int64
		for _, id := range fileIDs {
			info := tr.Files[id]
			formats[info.Format]++
			total += info.Size
			if info.Size >= 1<<20 {
				if info.Size > dataSize {
					dataSize = info.Size
				}
			} else if info.Size > metaSize {
				metaSize = info.Size
			}
			io += files[id].bytesRead + files[id].bytesWritten
		}
		bestFmt, bestN := "", int64(-1)
		for f, n := range formats {
			if n > bestN || (n == bestN && f > bestFmt) {
				bestFmt, bestN = f, n
			}
		}
		dPct, mPct := pcts(nData, nMeta)
		c.Dataset = DatasetEntity{
			Format: bestFmt, SizeBytes: total, NumFiles: len(files), IOBytes: io,
			IOTime: oUnion(primary), DataOpsPct: dPct, MetaOpsPct: mPct,
			DataFileSize: dataSize, MetaFileSize: metaSize, DataDist: dist,
		}
	}
	var rep *oFile
	for _, id := range fileIDs {
		if f := files[id]; rep == nil || f.bytesRead+f.bytesWritten > rep.bytesRead+rep.bytesWritten {
			rep = f
		}
	}
	if rep != nil {
		info := tr.Files[rep.id]
		dPct, mPct := pcts(rep.dataOps, rep.metaOps)
		enc := ""
		if info.Format == "fits" {
			enc = "FITS"
		}
		c.File = FileEntity{
			Path: info.Path, Format: info.Format, SizeBytes: info.Size,
			IOBytes: rep.bytesRead + rep.bytesWritten, IOTime: rep.ioDur,
			DataOpsPct: dPct, MetaOpsPct: mPct,
			Attrs: FileFormatAttrs{NDatasets: 1, NDims: info.NDims, DataType: info.DataType, Encoding: enc},
		}
	}

	// Figure panels.
	rankIDs := make([]int32, 0, len(perRank))
	for r := range perRank {
		rankIDs = append(rankIDs, r)
	}
	sort.Slice(rankIDs, func(x, y int) bool { return rankIDs[x] < rankIDs[y] })
	for _, r := range rankIDs {
		acc := perRank[r]
		rb := RankBandwidth{Rank: r}
		if acc.rDur > 0 {
			rb.ReadBW = float64(acc.rBytes) / (float64(acc.rDur) / float64(time.Second))
		}
		if acc.wDur > 0 {
			rb.WriteBW = float64(acc.wBytes) / (float64(acc.wDur) / float64(time.Second))
		}
		fig.RankBW = append(fig.RankBW, rb)
	}
	flows := append([]int32(nil), fileIDs...)
	sort.SliceStable(flows, func(x, y int) bool {
		fx, fy := files[flows[x]], files[flows[y]]
		return fx.bytesRead+fx.bytesWritten > fy.bytesRead+fy.bytesWritten
	})
	if len(flows) > opt.TopFlows {
		flows = flows[:opt.TopFlows]
	}
	for _, id := range flows {
		f := files[id]
		fig.TopFlows = append(fig.TopFlows, FileFlow{
			Path: tr.Files[id].Path, WriterRanks: len(f.writerRanks), ReaderRanks: len(f.readerRanks),
			BytesWritten: f.bytesWritten, BytesRead: f.bytesRead, Opens: f.opens,
		})
	}
	c.Figure = fig
	return c
}

func oCounts(rows []trace.Event) (data, meta int64) {
	for _, ev := range rows {
		if ev.Op.IsData() {
			data++
		} else if ev.Op.IsMeta() {
			meta++
		}
	}
	return
}

// oDominant is the most frequent exact positive transfer size among the
// rows of one op, ties to the larger size, 0 when there is none.
func oDominant(rows []trace.Event, op trace.Op) int64 {
	counts := map[int64]int64{}
	for _, ev := range rows {
		if ev.Op == op && ev.Size > 0 {
			counts[ev.Size]++
		}
	}
	var best, bestN int64
	for sz, n := range counts {
		if n > bestN || (n == bestN && sz > best) {
			best, bestN = sz, n
		}
	}
	return best
}

// oPattern: "Seq" when at least 80% of consecutive data accesses of each
// (file, rank) stream do not move backwards.
func oPattern(rows []trace.Event) string {
	type stream struct{ file, rank int32 }
	last := map[stream]int64{}
	var seq, total int64
	for _, ev := range rows {
		if !ev.Op.IsData() || ev.File < 0 {
			continue
		}
		k := stream{ev.File, ev.Rank}
		if prev, ok := last[k]; ok {
			total++
			if ev.Offset >= prev {
				seq++
			}
		}
		last[k] = ev.Offset
	}
	if total == 0 || float64(seq)/float64(total) >= 0.8 {
		return "Seq"
	}
	return "Random"
}

// oUnion is the total time covered by the rows' [start, end) intervals.
func oUnion(rows []trace.Event) time.Duration {
	if len(rows) == 0 {
		return 0
	}
	ivs := append([]trace.Event(nil), rows...)
	sort.Slice(ivs, func(x, y int) bool { return ivs[x].Start < ivs[y].Start })
	var total time.Duration
	curS, curE := ivs[0].Start, ivs[0].End
	for _, iv := range ivs[1:] {
		if iv.Start > curE {
			total += curE - curS
			curS, curE = iv.Start, iv.End
		} else if iv.End > curE {
			curE = iv.End
		}
	}
	return total + curE - curS
}

// oInterface names the library most of the rows went through; ties go to
// the lower-level library, LibNone never wins.
func oInterface(rows []trace.Event) string {
	counts := map[trace.Lib]int64{}
	for _, ev := range rows {
		counts[ev.Lib]++
	}
	best, bestN := trace.LibNone, int64(0)
	for lib := trace.LibNone + 1; lib < 8; lib++ {
		if counts[lib] > bestN {
			best, bestN = lib, counts[lib]
		}
	}
	switch {
	case bestN == 0:
		return "none"
	case best == trace.LibHDF5:
		return "HDF5 (MPI-IO)"
	}
	return best.String()
}

// oPhases: primary rows in start order (stable), split where the next row
// starts more than the gap after everything before it has ended.
func oPhases(primary []trace.Event, gap time.Duration) []IOPhaseEntity {
	if len(primary) == 0 {
		return nil
	}
	var phases []IOPhaseEntity
	rows := append([]trace.Event(nil), primary...)
	sort.SliceStable(rows, func(x, y int) bool { return rows[x].Start < rows[y].Start })
	lo := 0
	var curEnd time.Duration
	for i, ev := range rows {
		if i > lo && ev.Start-curEnd > gap {
			phases = append(phases, oPhase(len(phases), rows[lo:i]))
			lo = i
		}
		if ev.End > curEnd {
			curEnd = ev.End
		}
	}
	return append(phases, oPhase(len(phases), rows[lo:]))
}

func oPhase(idx int, rows []trace.Event) IOPhaseEntity {
	data, meta := oCounts(rows)
	dPct, mPct := pcts(data, meta)
	ranks := map[int32]bool{}
	var bytes, reads, writes int64
	minS, maxE := rows[0].Start, time.Duration(0)
	for _, ev := range rows {
		ranks[ev.Rank] = true
		if ev.Op.IsData() {
			bytes += ev.Size
		}
		switch ev.Op {
		case trace.OpRead:
			reads++
		case trace.OpWrite:
			writes++
		}
		if ev.Start < minS {
			minS = ev.Start
		}
		if ev.End > maxE {
			maxE = ev.End
		}
	}
	// The phase's granule is its dominant read size, unless there is none
	// or writes outnumber reads and have a dominant size of their own.
	granule := oDominant(rows, trace.OpRead)
	if g := oDominant(rows, trace.OpWrite); granule == 0 || (g > 0 && writes > reads) {
		granule = g
	}
	opsPerRank := float64(len(rows)) / float64(len(ranks))
	return IOPhaseEntity{
		Index: idx, Start: minS, End: maxE, IOBytes: bytes,
		DataOpsPct: dPct, MetaOpsPct: mPct, OpsPerRank: opsPerRank,
		Granule: granule, Frequency: phaseLabel(opsPerRank, granule), Runtime: maxE - minS,
	}
}
