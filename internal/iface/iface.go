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
package iface

import (
	"fmt"
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
	sys  *storage.System
	tr   *trace.Tracer
	opt  Options
	rank int32
	node int32
	app  int32
}

// NewClient builds the interface client for one rank of one application.
func NewClient(sys *storage.System, tr *trace.Tracer, opt Options, appName string, rank, node int) *Client {
	return &Client{
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

// emit records an event ending now and charges tracer overhead to p.
func (c *Client) emit(p *sim.Proc, lv trace.Level, lib trace.Lib, op trace.Op, file int32, off, size int64, start time.Duration) {
	ev := trace.Event{
		Level: lv, Op: op, Lib: lib, Rank: c.rank, Node: c.node, App: c.app,
		File: file, Offset: off, Size: size, Start: start, End: p.Now(),
	}
	if d := c.tr.Record(ev); d > 0 {
		p.Sleep(d)
	}
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

// Compute records a CPU computation span of duration d.
func (c *Client) Compute(p *sim.Proc, d time.Duration) {
	start := p.Now()
	p.Sleep(d)
	c.emit(p, trace.LevelCompute, trace.LibNone, trace.OpCompute, -1, 0, 0, start)
}

// GPUCompute records a GPU computation span of duration d.
func (c *Client) GPUCompute(p *sim.Proc, d time.Duration) {
	start := p.Now()
	p.Sleep(d)
	c.emit(p, trace.LevelCompute, trace.LibNone, trace.OpGPUCompute, -1, 0, 0, start)
}

// Barrier waits on b and records the synchronization span.
func (c *Client) Barrier(p *sim.Proc, b *sim.Barrier) {
	start := p.Now()
	b.Wait(p)
	c.emit(p, trace.LevelCompute, trace.LibNone, trace.OpBarrier, -1, 0, 0, start)
}

// ---------------------------------------------------------------------------
// POSIX layer

// PosixFile is an open POSIX file descriptor with a seek cursor.
type PosixFile struct {
	c    *Client
	h    *storage.File
	path string
	id   int32
	off  int64
	open bool
}

// PosixOpen opens (optionally creating) a file through the POSIX layer.
func (c *Client) PosixOpen(p *sim.Proc, path string, create bool) (*PosixFile, error) {
	id := c.fileID(path)
	start := p.Now()
	h, err := c.sys.Open(p, int(c.node), path, create)
	c.emit(p, trace.LevelPosix, trace.LibPosix, trace.OpOpen, id, 0, 0, start)
	if err != nil {
		return nil, err
	}
	// Record the size of pre-existing (read) files so dataset entities
	// see input data, not just what the job wrote.
	if sz, ok := h.Size(); ok {
		c.tr.ObserveFileSize(id, sz)
	}
	return &PosixFile{c: c, h: h, path: path, id: id, open: true}, nil
}

// PosixStat stats a path through the POSIX layer.
func (c *Client) PosixStat(p *sim.Proc, path string) (int64, error) {
	id := c.fileID(path)
	start := p.Now()
	sz, err := c.sys.Stat(p, int(c.node), path)
	c.emit(p, trace.LevelPosix, trace.LibPosix, trace.OpStat, id, 0, 0, start)
	return sz, err
}

// Path returns the file's path.
func (f *PosixFile) Path() string { return f.path }

// Offset returns the current cursor.
func (f *PosixFile) Offset() int64 { return f.off }

func (f *PosixFile) check() error {
	if !f.open {
		return fmt.Errorf("iface: %s used after close", f.path)
	}
	return nil
}

// Write writes size bytes at the cursor and advances it.
func (f *PosixFile) Write(p *sim.Proc, size int64) error {
	return f.WriteAt(p, f.off, size, true)
}

// WriteAt writes size bytes at off; advance moves the cursor past the
// write (pwrite semantics pass false). With compression middleware
// enabled, the logical bytes pass through the compressor's CPU stage and
// only the compressed bytes (at proportionally scaled offsets) reach
// storage; the traced event keeps the application's logical view.
func (f *PosixFile) WriteAt(p *sim.Proc, off, size int64, advance bool) error {
	if err := f.check(); err != nil {
		return err
	}
	start := p.Now()
	sOff, sSize := f.c.storedExtent(p, off, size)
	err := f.h.Write(p, sOff, sSize)
	f.c.emit(p, trace.LevelPosix, trace.LibPosix, trace.OpWrite, f.id, off, size, start)
	if err != nil {
		return err
	}
	if advance {
		f.off = off + size
	}
	f.c.tr.ObserveFileSize(f.id, off+size)
	return nil
}

// storedExtent maps a logical extent to the stored extent, charging the
// compressor's CPU time when compression is on.
func (c *Client) storedExtent(p *sim.Proc, off, size int64) (int64, int64) {
	if !c.opt.CompressionEnabled {
		return off, size
	}
	r := c.opt.CompressionRatio
	if r <= 0 || r > 1 {
		r = 1
	}
	if c.opt.CompressionCPUBW > 0 {
		p.Sleep(time.Duration(float64(size) / float64(c.opt.CompressionCPUBW) * float64(time.Second)))
	}
	sSize := int64(float64(size) * r)
	if sSize < 1 {
		sSize = 1
	}
	return int64(float64(off) * r), sSize
}

// Read reads size bytes at the cursor and advances it.
func (f *PosixFile) Read(p *sim.Proc, size int64) error {
	return f.ReadAt(p, f.off, size, true)
}

// ReadAt reads size bytes at off (decompressing when the compression
// middleware is on).
func (f *PosixFile) ReadAt(p *sim.Proc, off, size int64, advance bool) error {
	if err := f.check(); err != nil {
		return err
	}
	start := p.Now()
	sOff, sSize := f.c.storedExtent(p, off, size)
	err := f.h.Read(p, sOff, sSize)
	f.c.emit(p, trace.LevelPosix, trace.LibPosix, trace.OpRead, f.id, off, size, start)
	if err != nil {
		return err
	}
	if advance {
		f.off = off + size
	}
	return nil
}

// Seek moves the cursor, recording the (near-free) metadata op.
func (f *PosixFile) Seek(p *sim.Proc, off int64) error {
	if err := f.check(); err != nil {
		return err
	}
	start := p.Now()
	f.h.Seek(p)
	f.c.emit(p, trace.LevelPosix, trace.LibPosix, trace.OpSeek, f.id, off, 0, start)
	f.off = off
	return nil
}

// Sync flushes the file, waiting for write-back drain.
func (f *PosixFile) Sync(p *sim.Proc) error {
	if err := f.check(); err != nil {
		return err
	}
	start := p.Now()
	f.h.Sync(p)
	f.c.emit(p, trace.LevelPosix, trace.LibPosix, trace.OpSync, f.id, 0, 0, start)
	return nil
}

// Close closes the descriptor. Closing twice is an error.
func (f *PosixFile) Close(p *sim.Proc) error {
	if err := f.check(); err != nil {
		return err
	}
	start := p.Now()
	f.h.Close(p)
	f.c.emit(p, trace.LevelPosix, trace.LibPosix, trace.OpClose, f.id, 0, 0, start)
	f.open = false
	return nil
}
