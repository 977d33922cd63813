package iface

import (
	"fmt"
	"math/bits"

	"vani/internal/sim"
	"vani/internal/trace"
)

// MPIFile is a file handle opened through the MPI-IO middleware. On top of
// the POSIX data path, MPI-IO charges collective-synchronization metadata:
// every open/close and every data operation issues extra metadata ops
// against the (shared, contended) PFS metadata service, scaling with the
// communicator size. This is the mechanism behind CosmoFlow's 98%
// metadata-time figure: many small shared files each paying collective
// sync costs on GPFS (Figure 3, Section V-A).
type MPIFile struct {
	c        *Client
	f        *PosixFile
	commSize int
}

// syncOps returns the number of extra metadata ops charged per open/close.
func (c *Client) syncOps(base, commSize int) int {
	n := base
	if c.opt.MPIIOCommScaling && commSize > 1 {
		n += bits.Len(uint(commSize - 1)) // + log2(commSize)
	}
	return n
}

// chargeSyncMeta issues n metadata stats against the file's storage target,
// recording them at the middleware level.
func (c *Client) chargeSyncMeta(p *sim.Proc, f *PosixFile, n int) {
	for i := 0; i < n; i++ {
		start := p.Now()
		// Collective sync manifests as small metadata transactions; stat is
		// the closest primitive and costs one metadata-server visit.
		_, _ = f.h.Stat(p)
		c.emit(p, trace.LevelMiddleware, trace.LibMPIIO, trace.OpStat, f.id, 0, 0, start)
	}
}

// MPIOpen opens path through MPI-IO on a communicator of commSize ranks.
// Only the calling rank performs the POSIX open (ROMIO deferred-open
// style); the collective synchronization cost is charged explicitly.
func (c *Client) MPIOpen(p *sim.Proc, path string, create bool, commSize int) (*MPIFile, error) {
	if commSize <= 0 {
		return nil, fmt.Errorf("iface: MPI communicator size %d", commSize)
	}
	start := p.Now()
	f, err := c.PosixOpen(p, path, create)
	if err != nil {
		return nil, err
	}
	c.chargeSyncMeta(p, f, c.syncOps(c.opt.MPIIOSyncMetaPerOpen, commSize))
	c.emit(p, trace.LevelMiddleware, trace.LibMPIIO, trace.OpOpen, f.id, 0, 0, start)
	return &MPIFile{c: c, f: f, commSize: commSize}, nil
}

// Path returns the file path.
func (m *MPIFile) Path() string { return m.f.path }

// ReadAt performs an independent-style read at an explicit offset, plus the
// per-op collective sync metadata.
func (m *MPIFile) ReadAt(p *sim.Proc, off, size int64) error {
	start := p.Now()
	m.c.chargeSyncMeta(p, m.f, m.c.opt.MPIIOSyncMetaPerData)
	if err := m.f.ReadAt(p, off, size, false); err != nil {
		return err
	}
	m.c.emit(p, trace.LevelMiddleware, trace.LibMPIIO, trace.OpRead, m.f.id, off, size, start)
	return nil
}

// WriteAt performs a write at an explicit offset, plus the per-op
// collective sync metadata.
func (m *MPIFile) WriteAt(p *sim.Proc, off, size int64) error {
	start := p.Now()
	m.c.chargeSyncMeta(p, m.f, m.c.opt.MPIIOSyncMetaPerData)
	if err := m.f.WriteAt(p, off, size, false); err != nil {
		return err
	}
	m.c.emit(p, trace.LevelMiddleware, trace.LibMPIIO, trace.OpWrite, m.f.id, off, size, start)
	return nil
}

// Close closes the handle with collective sync.
func (m *MPIFile) Close(p *sim.Proc) error {
	start := p.Now()
	m.c.chargeSyncMeta(p, m.f, m.c.syncOps(m.c.opt.MPIIOSyncMetaPerOpen, m.commSize))
	if err := m.f.Close(p); err != nil {
		return err
	}
	m.c.emit(p, trace.LevelMiddleware, trace.LibMPIIO, trace.OpClose, m.f.id, 0, 0, start)
	return nil
}

// H5File is an HDF5 file handle. The HDF5 layer sits on MPI-IO (the
// paper's CosmoFlow configuration) and adds dataset metadata traffic: with
// unchunked datasets ("the file is represented as one big chunk of 1D
// bytes"), every dataset access re-touches file metadata, multiplying
// metadata operations by HDF5MetaPerAccess; chunked layouts pay one.
type H5File struct {
	c  *Client
	m  *MPIFile
	id int32
}

// H5Open opens an HDF5 file: an MPI-IO open plus a superblock read.
func (c *Client) H5Open(p *sim.Proc, path string, create bool, commSize int) (*H5File, error) {
	start := p.Now()
	m, err := c.MPIOpen(p, path, create, commSize)
	if err != nil {
		return nil, err
	}
	h := &H5File{c: c, m: m, id: m.f.id}
	if !create {
		// Superblock + object header read.
		if err := m.f.ReadAt(p, 0, c.opt.HDF5SuperblockSize, false); err != nil {
			return nil, err
		}
	}
	c.emit(p, trace.LevelApp, trace.LibHDF5, trace.OpOpen, h.id, 0, 0, start)
	return h, nil
}

// Path returns the file path.
func (h *H5File) Path() string { return h.m.f.path }

// datasetMeta charges the per-access metadata lookups of the dataset
// B-tree/heap, at the app level.
func (h *H5File) datasetMeta(p *sim.Proc) {
	n := h.c.opt.HDF5MetaPerAccess
	if h.c.opt.HDF5Chunked {
		n = 1
	}
	for i := 0; i < n; i++ {
		start := p.Now()
		_, _ = h.m.f.h.Stat(p)
		h.c.emit(p, trace.LevelApp, trace.LibHDF5, trace.OpStat, h.id, 0, 0, start)
	}
}

// DatasetRead reads size bytes of a dataset at off, paying dataset
// metadata then the MPI-IO read.
func (h *H5File) DatasetRead(p *sim.Proc, off, size int64) error {
	start := p.Now()
	h.datasetMeta(p)
	if err := h.m.ReadAt(p, off, size); err != nil {
		return err
	}
	h.c.emit(p, trace.LevelApp, trace.LibHDF5, trace.OpRead, h.id, off, size, start)
	return nil
}

// DatasetWrite writes size bytes of a dataset at off.
func (h *H5File) DatasetWrite(p *sim.Proc, off, size int64) error {
	start := p.Now()
	h.datasetMeta(p)
	if err := h.m.WriteAt(p, off, size); err != nil {
		return err
	}
	h.c.emit(p, trace.LevelApp, trace.LibHDF5, trace.OpWrite, h.id, off, size, start)
	return nil
}

// Close closes the HDF5 file.
func (h *H5File) Close(p *sim.Proc) error {
	start := p.Now()
	if err := h.m.Close(p); err != nil {
		return err
	}
	h.c.emit(p, trace.LevelApp, trace.LibHDF5, trace.OpClose, h.id, 0, 0, start)
	return nil
}
