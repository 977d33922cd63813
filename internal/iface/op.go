package iface

import (
	"fmt"
	"time"

	"vani/internal/sim"
	"vani/internal/storage"
	"vani/internal/trace"
)

// Op is one interface call in step form. A call on a Client or a File sets
// it up without running anything; each Step runs the call up to its next
// wait and returns the wake time — sim.Parked while a barrier holds it — or
// reports that the call has finished, and Err its error. Every stage runs
// exactly the state reads and writes the call makes between two waits, at
// the same simulated instant: a layer's metadata visits, its POSIX
// transfer, each trace event and the tracer's overhead after it are stages
// of their own. An Op is reused from call to call and allocates nothing.
type Op struct {
	c    *Client
	f    *File
	kind opKind
	err  error

	// The call's arguments: a transfer's extent, a seek's offset or a
	// span's duration (off).
	path   string
	create bool
	mode   byte
	id     int32 // the file PosixStat records
	comm   int
	off    int64
	size   int64
	p      *sim.Proc
	bar    *sim.Barrier

	// Each level's stage and the start of its span: app (HDF5), mw (MPI-IO,
	// STDIO) and px (POSIX, compute, barrier).
	app, mw, px level

	// The POSIX transfer in flight under a layer: its extent, direction and
	// whether it moves the cursor.
	pOff, pSize      int64
	pWrite, pAdvance bool

	// The metadata visits in flight: visit mi of mn, at level mlv.
	mi, mn int32
	mlv    trace.Level
	mlib   trace.Lib
	meta   level

	// A STDIO call: the bytes still to move, the size of the buffer fill in
	// flight and the file's size when the read began.
	rem, fill, fileSize int64

	st  storage.Op
	tmp storage.File // the file PosixStat stats
}

type level struct {
	stage uint8
	start time.Duration
}

type opKind uint8

const (
	kPosixOpen opKind = iota
	kStdioOpen
	kMPIOpen
	kH5Open
	kClose
	kRead
	kWrite
	kReadAt
	kWriteAt
	kSeek
	kSync
	kStat
	kCompute
	kGPU
	kBarrier
)

func (o *Op) begin(c *Client, f *File, k opKind) {
	*o = Op{c: c, f: f, kind: k}
}

// Err is the finished call's error.
func (o *Op) Err() error { return o.err }

// StatSize is the size a finished PosixStat found.
func (o *Op) StatSize() int64 { return o.st.Size() }

// PosixOpen sets o up to open (optionally creating) path through the POSIX
// layer into f.
func (c *Client) PosixOpen(o *Op, f *File, path string, create bool) {
	o.begin(c, f, kPosixOpen)
	o.path, o.create = path, create
}

// PosixStat sets o up to stat path through the POSIX layer.
func (c *Client) PosixStat(o *Op, path string) {
	o.begin(c, nil, kStat)
	o.path = path
}

// Close sets o up to close the file, flushing a STDIO stream's buffer and
// charging MPI-IO's collective sync. Closing twice is an error.
func (f *File) Close(o *Op) { o.begin(f.c, f, kClose) }

// Write sets o up to write size bytes at the cursor and advance it: a
// POSIX write, or an append through a STDIO stream's buffer.
func (f *File) Write(o *Op, size int64) {
	o.begin(f.c, f, kWrite)
	o.size = size
	if f.layer == Posix {
		o.posixAt(f.off, size, true, true)
	}
}

// Read sets o up to read size bytes at the cursor and advance it: a POSIX
// read, or a read served by a STDIO stream's buffer.
func (f *File) Read(o *Op, size int64) {
	o.begin(f.c, f, kRead)
	o.size = size
	if f.layer == Posix {
		o.posixAt(f.off, size, false, true)
	}
}

// WriteAt sets o up to write size bytes at off without moving the cursor:
// a POSIX pwrite, an MPI-IO write with its per-op sync metadata, or an
// HDF5 dataset write with its dataset metadata.
func (f *File) WriteAt(o *Op, off, size int64) {
	o.begin(f.c, f, kWriteAt)
	o.off, o.size = off, size
	o.posixAt(off, size, true, false)
}

// ReadAt is WriteAt's read.
func (f *File) ReadAt(o *Op, off, size int64) {
	o.begin(f.c, f, kReadAt)
	o.off, o.size = off, size
	o.posixAt(off, size, false, false)
}

// Seek sets o up to move the cursor to off, recording the (near-free)
// metadata op; a STDIO stream flushes its write buffer first and keeps its
// read buffer only if off is inside it.
func (f *File) Seek(o *Op, off int64) {
	o.begin(f.c, f, kSeek)
	o.off = off
}

// Sync sets o up to flush a POSIX file, waiting for write-back drain.
func (f *File) Sync(o *Op) { o.begin(f.c, f, kSync) }

// Step runs the call up to its next wait and returns the wake time with
// more set, or, with more false, reports that the call has finished.
func (o *Op) Step() (wake time.Duration, more bool) {
	switch o.kind {
	case kPosixOpen:
		return o.posixOpen(Posix)
	case kStdioOpen:
		return o.stdioOpen()
	case kMPIOpen:
		return o.mpiOpen(MPIIO)
	case kH5Open:
		return o.h5Open()
	case kStat:
		return o.posixStat()
	case kCompute, kGPU, kBarrier:
		return o.span()
	}
	f := o.f
	meta := o.kind == kClose || o.kind == kSeek || o.kind == kSync
	switch f.layer {
	case Posix:
		if meta {
			return o.posixMeta()
		}
		return o.posixData()
	case Stdio:
		switch o.kind {
		case kClose, kSeek:
			return o.stdioMeta()
		case kRead:
			return o.stdioRead()
		case kWrite:
			return o.stdioWrite()
		}
	default:
		switch {
		case o.kind == kClose && f.layer == MPIIO:
			return o.mpiClose()
		case o.kind == kClose:
			return o.h5Close()
		case meta || o.kind == kRead || o.kind == kWrite:
		case f.layer == MPIIO:
			return o.mpiData()
		default:
			return o.h5Data()
		}
	}
	return o.fail(fmt.Errorf("iface: %s on %s file", kindNames[o.kind], f.layer))
}

// kindNames names the file calls a layer may not support.
var kindNames = [...]string{kRead: "read", kWrite: "write", kReadAt: "positioned read",
	kWriteAt: "positioned write", kSeek: "seek", kSync: "sync"}

func (o *Op) now() time.Duration { return o.c.e.Now() }

// fail finishes the call with err.
func (o *Op) fail(err error) (time.Duration, bool) {
	o.err = err
	return 0, false
}

// span runs a compute or GPU span, or a barrier wait, and records it.
func (o *Op) span() (time.Duration, bool) {
	c := o.c
	switch o.px.stage {
	case 0:
		o.px.start, o.px.stage = o.now(), 1
		if o.kind != kBarrier {
			return o.now() + time.Duration(o.off), true
		}
		if !o.bar.Arrive(o.p) {
			return sim.Parked, true
		}
		fallthrough
	case 1:
		o.px.stage = 2
		op := trace.OpBarrier
		switch o.kind {
		case kCompute:
			op = trace.OpCompute
		case kGPU:
			op = trace.OpGPUCompute
		}
		if d := c.emit(trace.LevelCompute, trace.LibNone, op, -1, 0, 0, o.px.start); d > 0 {
			return o.now() + d, true
		}
	}
	return 0, false
}

// ---------------------------------------------------------------------------
// POSIX layer: every other layer's calls end in these.

func (f *File) check() error {
	if !f.open {
		return fmt.Errorf("iface: %s used after close", f.path)
	}
	return nil
}

// posixOpen opens o.path into o.f as a file of the given layer.
func (o *Op) posixOpen(l Layer) (time.Duration, bool) {
	c, f := o.c, o.f
	switch o.px.stage {
	case 0:
		id := c.fileID(o.path)
		*f = File{c: c, layer: l, h: c.sys.Lookup(int(c.node), o.path), path: o.path, id: id}
		o.px.start, o.px.stage = o.now(), 1
		o.st.Open(&f.h, o.create)
		fallthrough
	case 1:
		if t, more := o.st.Step(); more {
			return t, true
		}
		o.px.stage = 2
		if d := c.emit(trace.LevelPosix, trace.LibPosix, trace.OpOpen, f.id, 0, 0, o.px.start); d > 0 {
			return o.now() + d, true
		}
		fallthrough
	case 2:
		if err := o.st.Err(); err != nil {
			return o.fail(err)
		}
		// Record the size of pre-existing (read) files so dataset entities
		// see input data, not just what the job wrote.
		if sz, ok := f.h.Size(); ok {
			c.tr.ObserveFileSize(f.id, sz)
		}
		f.open = true
	}
	return 0, false
}

// posixStat stats o.path.
func (o *Op) posixStat() (time.Duration, bool) {
	c := o.c
	switch o.px.stage {
	case 0:
		o.id = c.fileID(o.path)
		o.px.start, o.px.stage = o.now(), 1
		o.tmp = c.sys.Lookup(int(c.node), o.path)
		o.st.Stat(&o.tmp)
		fallthrough
	case 1:
		if t, more := o.st.Step(); more {
			return t, true
		}
		o.px.stage = 2
		o.err = o.st.Err()
		if d := c.emit(trace.LevelPosix, trace.LibPosix, trace.OpStat, o.id, 0, 0, o.px.start); d > 0 {
			return o.now() + d, true
		}
	}
	return 0, false
}

// posixAt sets up the POSIX transfer a call makes at its bottom.
func (o *Op) posixAt(off, size int64, write, advance bool) {
	o.pOff, o.pSize, o.pWrite, o.pAdvance = off, size, write, advance
	o.px = level{}
}

// posixData runs the POSIX transfer set up by posixAt. With compression
// middleware enabled, the logical bytes pass through the compressor's CPU
// stage and only the compressed bytes (at proportionally scaled offsets)
// reach storage; the traced event keeps the application's logical view.
func (o *Op) posixData() (time.Duration, bool) {
	c, f := o.c, o.f
	switch o.px.stage {
	case 0:
		if err := f.check(); err != nil {
			return o.fail(err)
		}
		o.px.start, o.px.stage = o.now(), 1
		sOff, sSize, cpu, charge := c.storedExtent(o.pOff, o.pSize)
		if o.pWrite {
			o.st.Write(&f.h, sOff, sSize)
		} else {
			o.st.Read(&f.h, sOff, sSize)
		}
		if charge {
			return o.now() + cpu, true
		}
		fallthrough
	case 1:
		if t, more := o.st.Step(); more {
			return t, true
		}
		o.px.stage = 2
		op := trace.OpRead
		if o.pWrite {
			op = trace.OpWrite
		}
		if d := c.emit(trace.LevelPosix, trace.LibPosix, op, f.id, o.pOff, o.pSize, o.px.start); d > 0 {
			return o.now() + d, true
		}
		fallthrough
	case 2:
		if err := o.st.Err(); err != nil {
			return o.fail(err)
		}
		if o.pAdvance {
			f.off = o.pOff + o.pSize
		}
		if o.pWrite {
			c.tr.ObserveFileSize(f.id, o.pOff+o.pSize)
		}
	}
	return 0, false
}

// posixMeta runs the POSIX seek (to o.off), sync or close the op is: the
// storage call, its trace event, then what it changes — the cursor moves
// or the descriptor closes. Sync waits for write-back drain; a close of a
// closed descriptor is an error.
func (o *Op) posixMeta() (time.Duration, bool) {
	f := o.f
	op, off := trace.OpSync, int64(0)
	switch o.kind {
	case kSeek:
		op, off = trace.OpSeek, o.off
	case kClose:
		op = trace.OpClose
	}
	switch o.px.stage {
	case 0:
		if err := f.check(); err != nil {
			return o.fail(err)
		}
		o.px.start, o.px.stage = o.now(), 1
		switch op {
		case trace.OpSeek:
			o.st.Seek(&f.h)
		case trace.OpClose:
			o.st.Close(&f.h)
		default:
			o.st.Sync(&f.h)
		}
		fallthrough
	case 1:
		if t, more := o.st.Step(); more {
			return t, true
		}
		o.px.stage = 2
		if d := o.c.emit(trace.LevelPosix, trace.LibPosix, op, f.id, off, 0, o.px.start); d > 0 {
			return o.now() + d, true
		}
		fallthrough
	case 2:
		switch op {
		case trace.OpSeek:
			f.off = off
		case trace.OpClose:
			f.open = false
		}
	}
	return 0, false
}

// metaVisits sets up n metadata visits on the file, recorded at level lv.
func (o *Op) metaVisits(n int, lv trace.Level, lib trace.Lib) {
	o.mi, o.mn, o.mlv, o.mlib = 0, int32(n), lv, lib
	o.meta = level{}
}

// metaRun runs the visits metaVisits set up: each a stat — the closest
// primitive to a small metadata transaction, one metadata-server visit —
// and its trace event.
func (o *Op) metaRun() (time.Duration, bool) {
	f := o.f
	for {
		switch o.meta.stage {
		case 0:
			if o.mi >= o.mn {
				return 0, false
			}
			o.meta.start, o.meta.stage = o.now(), 1
			o.st.Stat(&f.h)
			fallthrough
		case 1:
			if t, more := o.st.Step(); more {
				return t, true
			}
			o.meta.stage = 2
			if d := o.c.emit(o.mlv, o.mlib, trace.OpStat, f.id, 0, 0, o.meta.start); d > 0 {
				return o.now() + d, true
			}
			fallthrough
		case 2:
			o.mi++
			o.meta.stage = 0
		}
	}
}
