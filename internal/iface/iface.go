// Package iface implements the I/O interface layers of the simulated
// storage stack: POSIX, STDIO (client-buffered), MPI-IO (with collective
// synchronization overheads), and HDF5 (with dataset metadata
// amplification).
//
// Each layer emits trace events at its own level, mirroring Recorder's
// multilevel capture: an application-level HDF5 read produces a LevelApp
// event, the MPI-IO traffic underneath produces LevelMiddleware events, and
// the data actually moved produces LevelPosix events. The behavioral
// signatures the paper attributes to each interface are modeled explicitly:
// STDIO's buffer turns tiny application accesses into page-sized POSIX
// transfers, MPI-IO adds synchronization metadata per operation that grows
// with the communicator, and unchunked HDF5 multiplies metadata accesses
// per dataset read (the CosmoFlow bottleneck of Figure 3).
//
// Every call is in step form, for ranks that run as step programs on the
// simulator: a call sets an Op up without running anything, and each
// Op.Step runs it up to its next wait and returns the wake time (see
// op.go). A layer's call drives the layer below it within the same Op, so
// one Op holds a whole HDF5-over-MPI-IO-over-POSIX call.
package iface

import (
	"time"

	"vani/internal/sim"
	"vani/internal/storage"
	"vani/internal/trace"
)

// Options are the tunables of the interface layers. The zero value is not
// meaningful; start from Defaults.
type Options struct {
	StdioBufSize int64 // client buffer per STDIO stream

	// StdioPerOpCPU is the client-side CPU cost charged inside every
	// STDIO read/write, modeling libc and application-runtime overhead
	// around each access. It is what makes JAG's NumPy sample loader slow
	// despite tiny transfer sizes (Figure 4's 167-second first phase).
	StdioPerOpCPU time.Duration

	MPIIOSyncMetaPerOpen int  // extra metadata ops per MPI-IO open/close
	MPIIOSyncMetaPerData int  // extra metadata ops per MPI-IO data op
	MPIIOCommScaling     bool // scale open sync with log2(comm size)

	HDF5Chunked        bool // chunked datasets amortize metadata
	HDF5MetaPerAccess  int  // metadata ops per dataset access when unchunked
	HDF5SuperblockSize int64

	NetworkBW int64 // bytes/sec node injection bandwidth (shuffle costs)

	// Transparent compression middleware (the HCompress-style adaptive
	// compression of Section IV-D5). When enabled, data passes through a
	// CPU compression stage and moves CompressionRatio of its logical
	// bytes to storage. The paper warns the benefit depends on the data
	// distribution — the advisor only enables it when the dataset's
	// distribution is compressible.
	CompressionEnabled bool
	CompressionRatio   float64 // stored/logical bytes, e.g. 0.5
	CompressionCPUBW   int64   // bytes/sec through the (de)compressor
}

// Defaults returns the option set used throughout the reproduction,
// matching the paper's storage stack (no HDF5 chunking, ROMIO-style
// collective sync, 64KiB stdio buffers, EDR InfiniBand).
func Defaults() Options {
	return Options{
		StdioBufSize:         64 * storage.KiB,
		CompressionRatio:     0.5,
		CompressionCPUBW:     2 * storage.GiB,
		MPIIOSyncMetaPerOpen: 2,
		MPIIOSyncMetaPerData: 1,
		MPIIOCommScaling:     true,
		HDF5Chunked:          false,
		HDF5MetaPerAccess:    4,
		HDF5SuperblockSize:   2 * storage.KiB,
		NetworkBW:            12 * storage.GiB, // ~100Gb/s EDR
	}
}

// Client is the per-rank entry point to all interface layers.
type Client struct {
	e    *sim.Engine
	sys  *storage.System
	tr   *trace.Tracer
	opt  *Options
	rank int32
	node int32
	app  int32
}

// NewClient builds the interface client for one rank of one application.
// The client reads opt as it runs: a run's clients share one Options, which
// must not change while the run goes on.
func NewClient(sys *storage.System, tr *trace.Tracer, opt *Options, appName string, rank, node int) *Client {
	return &Client{
		e:    sys.Engine(),
		sys:  sys,
		tr:   tr,
		opt:  opt,
		rank: int32(rank),
		node: int32(node),
		app:  tr.AppID(appName),
	}
}

// Rank returns the client's global rank.
func (c *Client) Rank() int { return int(c.rank) }

// Node returns the node hosting the client's rank.
func (c *Client) Node() int { return int(c.node) }

// emit records an event ending now and returns the tracer overhead to
// charge for it; the caller sleeps that long when it is positive.
func (c *Client) emit(lv trace.Level, lib trace.Lib, op trace.Op, file int32, off, size int64, start time.Duration) time.Duration {
	ev := trace.Event{
		Level: lv, Op: op, Lib: lib, Rank: c.rank, Node: c.node, App: c.app,
		File: file, Offset: off, Size: size, Start: start, End: c.e.Now(),
	}
	return c.tr.Record(ev)
}

// fileID interns path and stamps its storage target without clobbering
// any dataset metadata attached by DescribeFile.
func (c *Client) fileID(path string) int32 {
	id := c.tr.FileID(path)
	c.tr.TouchFile(id, c.sys.Route(path).String())
	return id
}

// DescribeFile attaches dataset-format metadata (format, dimensionality,
// element type) to a path's trace record; workloads call it once per file
// kind so the Data entity tables can report format attributes.
func (c *Client) DescribeFile(path, format string, ndims int, dataType string) {
	id := c.tr.FileID(path)
	c.tr.SetFileInfo(id, trace.FileInfo{
		Target: c.sys.Route(path).String(), Format: format,
		NDims: ndims, DataType: dataType,
	})
}

// Compute sets o up to record a CPU computation span of duration d.
func (c *Client) Compute(o *Op, d time.Duration) {
	o.begin(c, nil, kCompute)
	o.off = int64(d)
}

// GPUCompute sets o up to record a GPU computation span of duration d.
func (c *Client) GPUCompute(o *Op, d time.Duration) {
	o.begin(c, nil, kGPU)
	o.off = int64(d)
}

// Barrier sets o up to wait on b as process p and record the
// synchronization span. Its Step returns sim.Parked while p waits.
func (c *Client) Barrier(o *Op, p *sim.Proc, b *sim.Barrier) {
	o.begin(c, nil, kBarrier)
	o.p, o.bar = p, b
}

// Layer is the interface a file was opened through.
type Layer uint8

// The interface layers.
const (
	Posix Layer = iota
	Stdio
	MPIIO
	HDF5
)

// String returns the layer's name in the spec grammar: posix, stdio, mpiio
// or hdf5.
func (l Layer) String() string {
	switch l {
	case Posix:
		return "posix"
	case Stdio:
		return "stdio"
	case MPIIO:
		return "mpiio"
	}
	return "hdf5"
}

// File is one file opened through one of the layers: a POSIX descriptor
// with its seek cursor, a STDIO stream with its buffer, or an MPI-IO or
// HDF5 handle on a communicator. It is a value its owner keeps and reuses:
// an open fills it in.
type File struct {
	c    *Client
	h    storage.File
	path string
	id   int32
	off  int64 // the POSIX cursor

	// A STDIO stream: the bytes buffered for writing, the file range
	// [bufStart, bufEnd) buffered for reading, the application-visible
	// cursor, and its mode ('r' or 'w').
	buffered         int64
	bufStart, bufEnd int64
	pos              int64
	mode             byte

	layer    Layer
	open     bool
	commSize int // MPI-IO and HDF5: the communicator
}

// Layer returns the interface the file was opened through.
func (f *File) Layer() Layer { return f.layer }

// Path returns the file's path.
func (f *File) Path() string { return f.path }

// Offset returns the POSIX cursor.
func (f *File) Offset() int64 { return f.off }

// Pos returns a STDIO stream's application-visible cursor.
func (f *File) Pos() int64 { return f.pos }

// Size reports the file's current size as its node sees it, and whether
// it exists.
func (f *File) Size() (int64, bool) { return f.h.Size() }

// storedExtent maps a logical extent to the stored extent and, when the
// compression middleware is on and has a finite rate, the CPU time its
// compressor takes (charge set).
func (c *Client) storedExtent(off, size int64) (sOff, sSize int64, cpu time.Duration, charge bool) {
	if !c.opt.CompressionEnabled {
		return off, size, 0, false
	}
	r := c.opt.CompressionRatio
	if r <= 0 || r > 1 {
		r = 1
	}
	if c.opt.CompressionCPUBW > 0 {
		cpu, charge = time.Duration(float64(size)/float64(c.opt.CompressionCPUBW)*float64(time.Second)), true
	}
	sSize = int64(float64(size) * r)
	if sSize < 1 {
		sSize = 1
	}
	return int64(float64(off) * r), sSize, cpu, charge
}
