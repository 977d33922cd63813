// Package trace implements a Recorder-like multilevel tracer for simulated
// HPC workloads.
//
// The paper uses Recorder 2.0 because it is the only tracing tool that
// captures multilevel I/O traces (high-level library, middleware, POSIX)
// together with CPU and GPU activity. This package reproduces that trace
// schema for the simulated stack: every interface layer emits an Event at
// its own level, and compute/GPU spans are recorded alongside, so the
// analyzer can perform the data-dependency and overlap analysis the paper
// describes. Tracing itself carries a configurable per-event virtual-time
// overhead, reproducing the paper's observation of ~8% runtime overhead.
package trace

import (
	"cmp"
	"slices"
	"sort"
	"time"

	"vani/internal/parallel"
)

// Level identifies the software layer that emitted an event, mirroring
// Recorder's multilevel capture.
type Level uint8

// Levels, from highest abstraction to lowest.
const (
	LevelApp        Level = iota // high-level I/O library (HDF5, npy)
	LevelMiddleware              // MPI-IO / STDIO middleware
	LevelPosix                   // kernel-facing POSIX calls
	LevelCompute                 // CPU or GPU computation spans
)

// String returns the Recorder-style name of the level.
func (l Level) String() string {
	switch l {
	case LevelApp:
		return "app"
	case LevelMiddleware:
		return "middleware"
	case LevelPosix:
		return "posix"
	case LevelCompute:
		return "compute"
	}
	return "unknown"
}

// Op is the traced operation kind.
type Op uint8

// Operations. Metadata operations are Open, Close, Stat, Seek, Sync, Mkdir
// and Readdir; data operations are Read and Write; Compute and GPUCompute
// are computation spans; Barrier marks MPI synchronization.
const (
	OpOpen Op = iota
	OpClose
	OpRead
	OpWrite
	OpSeek
	OpStat
	OpSync
	OpMkdir
	OpReaddir
	OpCompute
	OpGPUCompute
	OpBarrier
	numOps
)

var opNames = [...]string{
	"open", "close", "read", "write", "seek", "stat", "sync",
	"mkdir", "readdir", "compute", "gpu_compute", "barrier",
}

// String returns the lower-case operation name.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return "unknown"
}

// IsData reports whether the op moves file data (read or write).
func (o Op) IsData() bool { return o == OpRead || o == OpWrite }

// IsMeta reports whether the op is a filesystem metadata operation.
func (o Op) IsMeta() bool {
	switch o {
	case OpOpen, OpClose, OpSeek, OpStat, OpSync, OpMkdir, OpReaddir:
		return true
	}
	return false
}

// IsIO reports whether the op touches the storage system at all.
func (o Op) IsIO() bool { return o.IsData() || o.IsMeta() }

// Lib identifies the I/O library whose call produced an event, mirroring
// the function-name prefixes Recorder captures (fopen vs open vs
// MPI_File_open vs H5Fopen). The analyzer derives each application's
// "Interface" attribute (Tables I and IV) from it.
type Lib uint8

// Libraries.
const (
	LibNone Lib = iota // compute spans, barriers
	LibPosix
	LibStdio
	LibMPIIO
	LibHDF5
)

var libNames = [...]string{"", "POSIX", "STDIO", "MPI-IO", "HDF5"}

// String returns the interface name as the paper's tables print it.
func (l Lib) String() string {
	if int(l) < len(libNames) {
		return libNames[l]
	}
	return "unknown"
}

// Event is one traced operation. File, App and Target are interned: the
// integer IDs index the tables held by the Trace container.
type Event struct {
	Level  Level
	Op     Op
	Lib    Lib
	Rank   int32 // global rank of the issuing process
	Node   int32 // node the rank runs on
	App    int32 // index into Trace.Apps (the executable name)
	File   int32 // index into Trace.Files, or -1 for non-file events
	Offset int64 // file offset for data ops, else 0
	Size   int64 // bytes moved for data ops, else 0
	Start  time.Duration
	End    time.Duration
}

// Duration returns End - Start.
func (e Event) Duration() time.Duration { return e.End - e.Start }

// FileInfo describes one file observed in the trace.
type FileInfo struct {
	Path     string
	Size     int64  // final size after the run
	Target   string // storage target name the path routed to (e.g. "gpfs")
	Format   string // dataset format hint: "bin", "hdf5", "npy", "fits", "png"
	NDims    int    // dimensionality of the contained data, 0 if unknown
	DataType string // element type hint: "float", "int", ...
}

// Meta carries the job-level information the paper's JobUtility extracts:
// scheduler allocation, node shape, and mount points. It feeds the Job
// Configuration entity (Table II).
type Meta struct {
	Workload      string
	JobID         string
	Nodes         int
	CoresPerNode  int
	GPUsPerNode   int
	MemPerNodeGB  int
	Ranks         int
	NodeLocalDir  string // node-local burst buffer mount ("" if none)
	SharedBBDir   string // shared burst buffer mount ("" if none)
	PFSDir        string // parallel file system mount
	JobTimeLimit  time.Duration
	TraceOverhead time.Duration // total virtual time charged by the tracer
}

// DatasetSample carries a sample of data values from one of the workload's
// datasets. The paper's JobUtility inspects datasets offline; the analyzer
// fits a distribution to the values for the Data entity's "Data dist"
// attribute (Table VI).
type DatasetSample struct {
	Name   string
	Values []float64
}

// Trace is the complete output of one traced job: metadata plus the event
// log and interning tables.
type Trace struct {
	Meta    Meta
	Apps    []string
	Files   []FileInfo
	Samples []DatasetSample
	Events  []Event
}

// AppName resolves an app index, returning "?" for out-of-range values.
func (t *Trace) AppName(id int32) string {
	if id < 0 || int(id) >= len(t.Apps) {
		return "?"
	}
	return t.Apps[id]
}

// FilePath resolves a file index, returning "" for -1 or out-of-range.
func (t *Trace) FilePath(id int32) string {
	if id < 0 || int(id) >= len(t.Files) {
		return ""
	}
	return t.Files[id].Path
}

// JobRuntime returns the latest event end time, which for a complete trace
// is the job's virtual runtime.
func (t *Trace) JobRuntime() time.Duration {
	var max time.Duration
	for i := range t.Events {
		if t.Events[i].End > max {
			max = t.Events[i].End
		}
	}
	return max
}

// eventBefore is the canonical event ordering: (Start, Rank, End). It is a
// total order up to record sequence: events equal on all three keys keep
// their input order under the stable sort in SortByStart and under the
// shard merge in Finish, which both therefore produce the same byte-for-
// byte event stream for the same per-rank record sequences.
func eventBefore(a, b *Event) bool {
	if a.Start != b.Start {
		return a.Start < b.Start
	}
	if a.Rank != b.Rank {
		return a.Rank < b.Rank
	}
	return a.End < b.End
}

// SortByStart orders events by (Start, Rank, End), breaking remaining ties
// by input sequence (stable); analyzer passes assume this ordering.
func (t *Trace) SortByStart() {
	sort.SliceStable(t.Events, func(i, j int) bool {
		return eventBefore(&t.Events[i], &t.Events[j])
	})
}

// Tracer accumulates events during a simulation. The event log is sharded
// per rank: each rank appends to its own shard, so there is no global
// append point contended by every recorded event, and Finish can sort the
// shards in parallel before a deterministic k-way merge. The simulation
// kernel runs one process at a time, so the shards need no locking; a
// Tracer must not be shared across concurrently running engines.
type Tracer struct {
	enabled  bool
	overhead time.Duration // virtual time charged per recorded event

	meta    Meta
	apps    []string
	appIDs  map[string]int32
	files   []FileInfo
	fileIDs map[string]int32
	samples []DatasetSample

	shards    map[int32]*shard // per-rank event logs
	shardKeys []int32          // ranks in first-record order
	count     int

	totalOverhead time.Duration
	mergeTime     time.Duration // wall-clock of the last Finish merge
}

// shard is one rank's event log, in record order.
type shard struct {
	events []Event
}

// NewTracer returns an enabled tracer with no per-event overhead.
func NewTracer() *Tracer {
	return &Tracer{
		enabled: true,
		appIDs:  make(map[string]int32),
		fileIDs: make(map[string]int32),
		shards:  make(map[int32]*shard),
	}
}

// SetEnabled turns event capture on or off. Disabled tracers record nothing
// and charge no overhead, giving the baseline for the tracing-overhead
// experiment.
func (t *Tracer) SetEnabled(on bool) { t.enabled = on }

// Enabled reports whether capture is on.
func (t *Tracer) Enabled() bool { return t.enabled }

// SetOverhead sets the virtual time charged to the issuing process per
// recorded event. The Record return value carries the charge; interface
// layers add it to the op's elapsed time.
func (t *Tracer) SetOverhead(d time.Duration) { t.overhead = d }

// SetMeta installs job-level metadata (workload, allocation, mounts).
func (t *Tracer) SetMeta(m Meta) { t.meta = m }

// AppID interns an application name.
func (t *Tracer) AppID(name string) int32 {
	if id, ok := t.appIDs[name]; ok {
		return id
	}
	id := int32(len(t.apps))
	t.apps = append(t.apps, name)
	t.appIDs[name] = id
	return id
}

// FileID interns a file path, creating its FileInfo on first use.
func (t *Tracer) FileID(path string) int32 {
	if id, ok := t.fileIDs[path]; ok {
		return id
	}
	id := int32(len(t.files))
	t.files = append(t.files, FileInfo{Path: path})
	t.fileIDs[path] = id
	return id
}

// TouchFile stamps a file's storage target and, if the file has not been
// described yet, a default "bin" format. Unlike SetFileInfo it never
// clobbers richer metadata attached earlier by DescribeFile.
func (t *Tracer) TouchFile(id int32, target string) {
	if id < 0 || int(id) >= len(t.files) {
		return
	}
	f := &t.files[id]
	f.Target = target
	if f.Format == "" {
		f.Format = "bin"
	}
}

// SetFileInfo updates the descriptive fields for an interned file.
func (t *Tracer) SetFileInfo(id int32, info FileInfo) {
	if id < 0 || int(id) >= len(t.files) {
		return
	}
	info.Path = t.files[id].Path // path is fixed by interning
	t.files[id] = info
}

// ObserveFileSize raises the recorded size of a file to at least size.
func (t *Tracer) ObserveFileSize(id int32, size int64) {
	if id < 0 || int(id) >= len(t.files) {
		return
	}
	if size > t.files[id].Size {
		t.files[id].Size = size
	}
}

// AddSample attaches a dataset value sample for offline distribution
// fitting.
func (t *Tracer) AddSample(name string, values []float64) {
	t.samples = append(t.samples, DatasetSample{Name: name, Values: values})
}

// Record captures one event into the issuing rank's shard and returns the
// virtual-time overhead the caller must charge to the issuing process (zero
// when disabled).
func (t *Tracer) Record(ev Event) time.Duration {
	if !t.enabled {
		return 0
	}
	s := t.shards[ev.Rank]
	if s == nil {
		s = &shard{}
		t.shards[ev.Rank] = s
		t.shardKeys = append(t.shardKeys, ev.Rank)
	}
	s.events = append(s.events, ev)
	t.count++
	t.totalOverhead += t.overhead
	return t.overhead
}

// Len returns the number of captured events across all shards.
func (t *Tracer) Len() int { return t.count }

// Shards returns the number of per-rank event shards.
func (t *Tracer) Shards() int { return len(t.shards) }

// MergeTime returns the wall-clock time the last Finish spent sorting and
// merging the per-rank shards (the pipeline's trace-merge stage).
func (t *Tracer) MergeTime() time.Duration { return t.mergeTime }

// Finish seals the tracer and returns the completed Trace: each rank's
// shard is sorted independently (in parallel across shards), then a k-way
// merge by (Start, Rank, End) produces the global event order. The merge is
// deterministic — the output depends only on the per-rank record sequences,
// not on how ranks interleaved during the run or on scheduling of the sort
// workers. The tracer can keep recording afterwards; the returned Trace is
// a snapshot.
func (t *Tracer) Finish() *Trace {
	begin := time.Now()
	m := t.meta
	m.TraceOverhead = t.totalOverhead

	// Sort shard keys so the merge sees shards in rank order.
	keys := slices.Clone(t.shardKeys)
	slices.Sort(keys)

	// Per-shard stable sort by (Start, End); Rank is constant within a
	// shard, so this is the canonical order restricted to the shard. A rank
	// that issues one blocking call after another records in that order
	// already, and its shard is merged from where it lies (the merge only
	// reads it); only a shard that is out of order is copied and sorted.
	// Shards are independent, so they are checked and sorted in parallel.
	sorted := make([][]Event, len(keys))
	parallel.ForEach(0, len(keys), func(i int) {
		evs := t.shards[keys[i]].events
		if !slices.IsSortedFunc(evs, shardOrder) {
			evs = slices.Clone(evs)
			slices.SortStableFunc(evs, shardOrder)
		}
		sorted[i] = evs
	})

	tr := &Trace{
		Meta:    m,
		Apps:    append([]string(nil), t.apps...),
		Files:   append([]FileInfo(nil), t.files...),
		Samples: append([]DatasetSample(nil), t.samples...),
		Events:  mergeShards(sorted, t.count),
	}
	t.mergeTime = time.Since(begin)
	return tr
}

// shardOrder is eventBefore within one rank's shard: (Start, End).
func shardOrder(a, b Event) int {
	if c := cmp.Compare(a.Start, b.Start); c != 0 {
		return c
	}
	return cmp.Compare(a.End, b.End)
}

// mergeCursor is one shard's read position in the k-way merge, with the
// sort key of its head event cached beside it so a heap compare touches no
// event memory.
type mergeCursor struct {
	start time.Duration
	rank  int32
	rest  []Event // head event first
}

// before orders cursors by their head events. Each shard holds one rank, so
// heads of distinct shards never tie on Rank: (Start, Rank) already decides
// eventBefore, End is never reached, and the order is strict and total.
func (a *mergeCursor) before(b *mergeCursor) bool {
	return a.start < b.start || (a.start == b.start && a.rank < b.rank)
}

// mergeShards k-way merges per-rank, canonically sorted event logs into the
// global (Start, Rank, End) order. The cursor order is strict and total, so
// the merge result is a property of the shards alone — independent of shard
// arrival order and of how the heap below sifts.
func mergeShards(shards [][]Event, total int) []Event {
	out := make([]Event, 0, total)
	h := make([]mergeCursor, 0, len(shards))
	for _, evs := range shards {
		if len(evs) > 0 {
			h = append(h, mergeCursor{start: evs[0].Start, rank: evs[0].Rank, rest: evs})
		}
	}
	if len(h) == 1 {
		return append(out, h[0].rest...)
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	for len(h) > 0 {
		c := &h[0]
		out = append(out, c.rest[0])
		if c.rest = c.rest[1:]; len(c.rest) > 0 {
			c.start = c.rest[0].Start
		} else {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		siftDown(h, 0)
	}
	return out
}

// siftDown restores the min-heap below h[i] after its key grew.
func siftDown(h []mergeCursor, i int) {
	if i >= len(h) {
		return
	}
	x := h[i]
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if r := c + 1; r < len(h) && h[r].before(&h[c]) {
			c = r
		}
		if !h[c].before(&x) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = x
}
