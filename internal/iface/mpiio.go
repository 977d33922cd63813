package iface

import (
	"fmt"
	"math/bits"
	"time"

	"vani/internal/trace"
)

// An MPI-IO File is a handle opened through the MPI-IO middleware. On top
// of the POSIX data path, MPI-IO charges collective-synchronization
// metadata: every open/close and every data operation issues extra
// metadata ops against the (shared, contended) PFS metadata service,
// scaling with the communicator size. This is the mechanism behind
// CosmoFlow's 98% metadata-time figure: many small shared files each
// paying collective sync costs on GPFS (Figure 3, Section V-A).
//
// An HDF5 File sits on MPI-IO (the paper's CosmoFlow configuration) and
// adds dataset metadata traffic: with unchunked datasets ("the file is
// represented as one big chunk of 1D bytes"), every dataset access
// re-touches file metadata, multiplying metadata operations by
// HDF5MetaPerAccess; chunked layouts pay one.

// syncOps returns the number of extra metadata ops charged per open/close.
func (c *Client) syncOps(base, commSize int) int {
	n := base
	if c.opt.MPIIOCommScaling && commSize > 1 {
		n += bits.Len(uint(commSize - 1)) // + log2(commSize)
	}
	return n
}

// MPIOpen sets o up to open path into f through MPI-IO on a communicator of
// commSize ranks. Only the calling rank performs the POSIX open (ROMIO
// deferred-open style); the collective synchronization cost is charged
// explicitly.
func (c *Client) MPIOpen(o *Op, f *File, path string, create bool, commSize int) {
	o.begin(c, f, kMPIOpen)
	o.path, o.create, o.comm = path, create, commSize
}

// H5Open sets o up to open an HDF5 file into f: an MPI-IO open plus a
// superblock read.
func (c *Client) H5Open(o *Op, f *File, path string, create bool, commSize int) {
	o.begin(c, f, kH5Open)
	o.path, o.create, o.comm = path, create, commSize
}

// mpiOpen opens o.path as a file of the given layer: MPI-IO, or HDF5 on it.
func (o *Op) mpiOpen(l Layer) (time.Duration, bool) {
	c, f := o.c, o.f
	switch o.mw.stage {
	case 0:
		if o.comm <= 0 {
			return o.fail(fmt.Errorf("iface: MPI communicator size %d", o.comm))
		}
		o.mw.start, o.mw.stage = o.now(), 1
		fallthrough
	case 1:
		if t, more := o.posixOpen(l); more || o.err != nil {
			return t, more
		}
		f.commSize = o.comm
		o.metaVisits(c.syncOps(c.opt.MPIIOSyncMetaPerOpen, o.comm), trace.LevelMiddleware, trace.LibMPIIO)
		o.mw.stage = 2
		fallthrough
	case 2:
		if t, more := o.metaRun(); more {
			return t, true
		}
		o.mw.stage = 3
		if d := c.emit(trace.LevelMiddleware, trace.LibMPIIO, trace.OpOpen, f.id, 0, 0, o.mw.start); d > 0 {
			return o.now() + d, true
		}
	}
	return 0, false
}

// mpiData performs an independent-style transfer at an explicit offset,
// plus the per-op collective sync metadata.
func (o *Op) mpiData() (time.Duration, bool) {
	c, f := o.c, o.f
	switch o.mw.stage {
	case 0:
		o.mw.start, o.mw.stage = o.now(), 1
		o.metaVisits(c.opt.MPIIOSyncMetaPerData, trace.LevelMiddleware, trace.LibMPIIO)
		fallthrough
	case 1:
		if t, more := o.metaRun(); more {
			return t, true
		}
		o.mw.stage = 2
		fallthrough
	case 2:
		if t, more := o.posixData(); more || o.err != nil {
			return t, more
		}
		o.mw.stage = 3
		if d := c.emit(trace.LevelMiddleware, trace.LibMPIIO, o.dataOp(), f.id, o.off, o.size, o.mw.start); d > 0 {
			return o.now() + d, true
		}
	}
	return 0, false
}

// dataOp is the traced op of a transfer: read or write.
func (o *Op) dataOp() trace.Op {
	if o.pWrite {
		return trace.OpWrite
	}
	return trace.OpRead
}

// mpiClose closes the handle with collective sync.
func (o *Op) mpiClose() (time.Duration, bool) {
	c, f := o.c, o.f
	switch o.mw.stage {
	case 0:
		o.mw.start, o.mw.stage = o.now(), 1
		o.metaVisits(c.syncOps(c.opt.MPIIOSyncMetaPerOpen, f.commSize), trace.LevelMiddleware, trace.LibMPIIO)
		fallthrough
	case 1:
		if t, more := o.metaRun(); more {
			return t, true
		}
		o.mw.stage = 2
		fallthrough
	case 2:
		if t, more := o.posixMeta(); more || o.err != nil {
			return t, more
		}
		o.mw.stage = 3
		if d := c.emit(trace.LevelMiddleware, trace.LibMPIIO, trace.OpClose, f.id, 0, 0, o.mw.start); d > 0 {
			return o.now() + d, true
		}
	}
	return 0, false
}

func (o *Op) h5Open() (time.Duration, bool) {
	c, f := o.c, o.f
	switch o.app.stage {
	case 0:
		o.app.start, o.app.stage = o.now(), 1
		fallthrough
	case 1:
		if t, more := o.mpiOpen(HDF5); more || o.err != nil {
			return t, more
		}
		o.app.stage = 2
		if !o.create {
			// Superblock + object header read.
			o.posixAt(0, c.opt.HDF5SuperblockSize, false, false)
		}
		fallthrough
	case 2:
		if !o.create {
			if t, more := o.posixData(); more || o.err != nil {
				return t, more
			}
		}
		o.app.stage = 3
		if d := c.emit(trace.LevelApp, trace.LibHDF5, trace.OpOpen, f.id, 0, 0, o.app.start); d > 0 {
			return o.now() + d, true
		}
	}
	return 0, false
}

// h5Data transfers size bytes of a dataset at off, paying the dataset
// metadata lookups of its B-tree/heap at the app level, then the MPI-IO
// transfer.
func (o *Op) h5Data() (time.Duration, bool) {
	c, f := o.c, o.f
	switch o.app.stage {
	case 0:
		o.app.start, o.app.stage = o.now(), 1
		n := c.opt.HDF5MetaPerAccess
		if c.opt.HDF5Chunked {
			n = 1
		}
		o.metaVisits(n, trace.LevelApp, trace.LibHDF5)
		fallthrough
	case 1:
		if t, more := o.metaRun(); more {
			return t, true
		}
		o.app.stage = 2
		fallthrough
	case 2:
		if t, more := o.mpiData(); more || o.err != nil {
			return t, more
		}
		o.app.stage = 3
		if d := c.emit(trace.LevelApp, trace.LibHDF5, o.dataOp(), f.id, o.off, o.size, o.app.start); d > 0 {
			return o.now() + d, true
		}
	}
	return 0, false
}

func (o *Op) h5Close() (time.Duration, bool) {
	c, f := o.c, o.f
	switch o.app.stage {
	case 0:
		o.app.start, o.app.stage = o.now(), 1
		fallthrough
	case 1:
		if t, more := o.mpiClose(); more || o.err != nil {
			return t, more
		}
		o.app.stage = 2
		if d := c.emit(trace.LevelApp, trace.LibHDF5, trace.OpClose, f.id, 0, 0, o.app.start); d > 0 {
			return o.now() + d, true
		}
	}
	return 0, false
}
