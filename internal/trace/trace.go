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

import "time"

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

// Tracer accumulates events during a simulation. Every event goes onto the
// end of one append-only log (eventlog.go), whatever rank issued it, and
// Finish puts the log into the canonical (Start, Rank, End) order. The
// simulation kernel runs one process at a time, so the log needs no locking;
// a Tracer must not be shared across concurrently running engines.
type Tracer struct {
	enabled  bool
	overhead time.Duration // virtual time charged per recorded event

	meta    Meta
	apps    []string
	appIDs  map[string]int32
	files   []FileInfo
	fileIDs map[string]int32
	samples []DatasetSample

	log eventLog

	totalOverhead time.Duration
	mergeTime     time.Duration // wall-clock of the last Finish's ordering
}

// NewTracer returns an enabled tracer with no per-event overhead.
func NewTracer() *Tracer {
	return &Tracer{
		enabled: true,
		appIDs:  make(map[string]int32),
		fileIDs: make(map[string]int32),
	}
}

// SetEnabled turns event capture on or off. Disabled tracers record nothing
// and charge no overhead, giving the baseline for the tracing-overhead
// experiment.
func (t *Tracer) SetEnabled(on bool) { t.enabled = on }

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

// Record appends one event to the log and returns the virtual-time overhead
// the caller must charge to the issuing process (zero when disabled).
func (t *Tracer) Record(ev Event) time.Duration {
	if !t.enabled {
		return 0
	}
	t.log.append(ev)
	t.totalOverhead += t.overhead
	return t.overhead
}

// Len returns the number of events recorded since the last Finish.
func (t *Tracer) Len() int { return t.log.len() }

// MergeTime returns the wall-clock time the last Finish spent putting the
// log in order and gathering it into the Trace (the pipeline's trace-merge
// stage).
func (t *Tracer) MergeTime() time.Duration { return t.mergeTime }

// Finish returns the completed Trace: the log as a stable sort by (Start,
// Rank, End), so events equal on all three keep their record order. The
// order depends only on each rank's record sequence, not on how ranks
// interleaved during the run: (Start, Rank) decides between ranks. The
// events are sorted into an array a Trace.Release handed back when one
// holds them (eventArrays), else into a fresh one. Finish then hands the
// log's chunks back to the pool and empties it: Len is 0 afterwards and a
// later Finish returns only events recorded after this one. The returned
// Trace is a snapshot; nothing the tracer does later reaches it.
func (t *Tracer) Finish() *Trace {
	begin := time.Now()
	n := t.log.len()
	m := t.meta
	m.TraceOverhead = t.totalOverhead
	tr := &Trace{
		Meta:    m,
		Apps:    append([]string(nil), t.apps...),
		Files:   append([]FileInfo(nil), t.files...),
		Samples: append([]DatasetSample(nil), t.samples...),
		Events:  t.log.sorted(sortWorkers(n), sortTarget(n)),
	}
	t.log.release()
	t.mergeTime = time.Since(begin)
	return tr
}
