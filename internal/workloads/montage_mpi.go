package workloads

import (
	"fmt"
	"time"

	"vani/internal/iface"
	"vani/internal/sim"
	"vani/internal/storage"
)

// MontageMPI models the MPI-parallel Montage mosaic workflow of Section
// IV-A5 / Figure 5 and the Section V-B case study:
//
//   - 32 node-parallel segments; within a node the workflow alternates
//     sequential (leader-only) and parallel stages, so the first rank of
//     every node performs ~40x the I/O of other ranks.
//   - Five applications over six logical stages: mProject (reads input
//     FITS with 64KB transfers, writes projected intermediates in <4KB
//     application writes via STDIO), mImgtbl (small tables), mAddMPI (the
//     only MPI-parallel job: 1280 processes reading intermediates and
//     writing the per-node mosaic), mShrink and mViewer (sequential).
//   - Intermediate files are produced and consumed node-locally; on GPFS
//     they pay small-transfer costs, which is 95% of the workflow's I/O
//     time. Spec.Optimized redirects them to /dev/shm (Figure 8: 3.9-8x).
type MontageMPI struct {
	FITSPerNode     int   // input images per node segment
	FITSSize        int64 //
	FITSReadGranule int64 // 64KB input transfers
	ProjPerNode     int   // projected intermediates per node
	ProjSize        int64 //
	SmallGranule    int64 // <4KB intermediate transfers
	ProjReadOverlap int   // times mAddMPI re-reads projected data
	MosaicPerNode   int64 // per-node mosaic bytes (written by all ranks)
	MosaicGranule   int64 //
	ShrunkPerNode   int64 // mShrink output
	ViewGranule     int64 // mViewer read granularity
	PNGPerNode      int64 // final image bytes per node
	GlobalHdrs      int   // cross-node shared header files
	ProjectCompute  time.Duration
	AddCompute      time.Duration
	ShrinkCompute   time.Duration
	ViewerCompute   time.Duration
}

// NewMontageMPI returns the paper-scale configuration (survey NGC 3372,
// 32 segments).
func NewMontageMPI() *MontageMPI {
	return &MontageMPI{
		FITSPerNode:     30,
		FITSSize:        12800 * storage.KiB, // 12.5MiB; 960 files = 12GB
		FITSReadGranule: 64 * storage.KiB,
		ProjPerNode:     16,
		ProjSize:        8 * storage.MiB, // 4GB projected intermediates
		SmallGranule:    4 * storage.KiB,
		ProjReadOverlap: 3,                 // mAddMPI reads overlap regions repeatedly
		MosaicPerNode:   640 * storage.MiB, // 20GB mosaic
		MosaicGranule:   32 * storage.KiB,
		ShrunkPerNode:   10 * storage.MiB,
		ViewGranule:     16 * storage.KiB,
		PNGPerNode:      5 * storage.MiB,
		GlobalHdrs:      16,
		ProjectCompute:  90 * time.Second,
		AddCompute:      60 * time.Second,
		ShrinkCompute:   10 * time.Second,
		ViewerCompute:   40 * time.Second,
	}
}

// Name implements Workload.
func (w *MontageMPI) Name() string { return "montage-mpi" }

// AppName implements Workload.
func (w *MontageMPI) AppName() string { return "mProject" }

// DefaultSpec implements Workload.
func (w *MontageMPI) DefaultSpec() Spec {
	s := DefaultSpec()
	s.TimeLimit = 2 * time.Hour
	s.Iface.StdioPerOpCPU = 5 * time.Microsecond // libc cost per tiny access
	return s
}

func (w *MontageMPI) fitsPath(node, i int) string {
	return fmt.Sprintf("/p/gpfs1/montage/input/seg%02d/img_%03d.fits", node, i)
}

// workDir returns the intermediate directory: GPFS in the baseline,
// node-local shared memory when optimized.
func (w *MontageMPI) workDir(env *Env, node int) string {
	if env.Spec.Optimized {
		return fmt.Sprintf("/dev/shm/montage/seg%02d", node)
	}
	return fmt.Sprintf("/p/gpfs1/montage/work/seg%02d", node)
}

func (w *MontageMPI) hdrPath(i int) string {
	return fmt.Sprintf("/p/gpfs1/montage/region_%02d.hdr", i)
}

// Setup stages the input FITS survey and region headers.
func (w *MontageMPI) Setup(env *Env) {
	nFits := scaleN(w.FITSPerNode, env.Spec.Scale, 1)
	for node := 0; node < env.Spec.Nodes; node++ {
		for i := 0; i < nFits; i++ {
			env.Sys.Materialize(0, w.fitsPath(node, i), w.FITSSize)
		}
	}
	for i := 0; i < w.GlobalHdrs; i++ {
		env.Sys.Materialize(0, w.hdrPath(i), 4*storage.KiB)
	}
	// Pre-create each node's mosaic so the parallel mAddMPI ranks can open
	// it regardless of wake order within the stage.
	for node := 0; node < env.Spec.Nodes; node++ {
		env.Sys.Materialize(node, w.workDir(env, node)+"/mosaic.fits", 0)
	}
	sample := make([]float64, 2000)
	rng := env.RNG.Fork()
	for i := range sample {
		sample[i] = rng.Uniform(0, 65535) // FITS pixel counts: uniform
	}
	env.Tr.AddSample("montage-pixels", sample)
}

// Spawn implements Workload.
func (w *MontageMPI) Spawn(env *Env) {
	spec := env.Spec
	nFits := scaleN(w.FITSPerNode, spec.Scale, 1)
	nProj := scaleN(w.ProjPerNode, spec.Scale, 1)
	mosaic := scaleBytes(w.MosaicPerNode, spec.Scale, w.MosaicGranule)
	shrunk := scaleBytes(w.ShrunkPerNode, spec.Scale, w.SmallGranule)
	png := scaleBytes(w.PNGPerNode, spec.Scale, 64*storage.KiB)
	ranks := env.Job.Ranks()

	// Stage gates: mAddMPI starts after every node finished projection and
	// tables; mShrink/mViewer after the global mosaic barrier.
	projDone := sim.NewBarrier(env.E, ranks)
	addDone := sim.NewBarrier(env.E, ranks)

	for rank := 0; rank < ranks; rank++ {
		rank := rank
		node := env.Job.NodeOf(rank)
		leader := env.Job.IsNodeLeader(rank)
		env.E.Spawn(fmt.Sprintf("montage-rank%d", rank), func(p *sim.Proc) {
			work := w.workDir(env, node)

			// Stages 1-2 (sequential, leader only): mProject and mImgtbl.
			if leader {
				w.runProject(env, p, rank, node, work, nFits, nProj)
				w.runImgtbl(env, p, rank, node, work, nProj)
			}
			env.Client("mProject", rank).Barrier(p, projDone)

			// Stage 3 (parallel): mAddMPI over every rank.
			w.runAddMPI(env, p, rank, node, work, nProj, mosaic)
			env.Client("mAddMPI", rank).Barrier(p, addDone)

			// Stages 4-6 (sequential, leader only): mShrink, mViewer.
			if leader {
				w.runShrink(env, p, rank, node, work, mosaic, shrunk)
				w.runViewer(env, p, rank, node, work, mosaic, shrunk, png)
			}
		})
	}
}

// runProject reads the node's FITS segment and writes projected
// intermediates with small STDIO writes.
func (w *MontageMPI) runProject(env *Env, p *sim.Proc, rank, node int, work string, nFits, nProj int) {
	cl := env.ClientAt("mProject", rank, node)
	// Read the shared region headers (cross-node shared small files).
	for i := 0; i < w.GlobalHdrs; i++ {
		f, err := cl.StdioOpen(p, w.hdrPath(i), 'r')
		if err != nil {
			panic(err)
		}
		if err := f.Read(p, 2*storage.KiB); err != nil {
			panic(err)
		}
		if err := f.Close(p); err != nil {
			panic(err)
		}
	}
	for i := 0; i < nFits; i++ {
		path := w.fitsPath(node, i)
		cl.DescribeFile(path, "fits", 2, "int")
		f, err := cl.StdioOpen(p, path, 'r')
		if err != nil {
			panic(err)
		}
		for off := int64(0); off < w.FITSSize; off += w.FITSReadGranule {
			n := w.FITSReadGranule
			if off+n > w.FITSSize {
				n = w.FITSSize - off
			}
			if err := f.Read(p, n); err != nil {
				panic(err)
			}
		}
		if err := f.Close(p); err != nil {
			panic(err)
		}
	}
	cl.Compute(p, w.ProjectCompute)
	for i := 0; i < nProj; i++ {
		path := fmt.Sprintf("%s/proj_%03d.fits", work, i)
		cl.DescribeFile(path, "bin", 3, "int")
		f, err := cl.StdioOpen(p, path, 'w')
		if err != nil {
			panic(err)
		}
		for off := int64(0); off < w.ProjSize; off += w.SmallGranule {
			if err := f.Write(p, w.SmallGranule); err != nil {
				panic(err)
			}
		}
		if err := f.Close(p); err != nil {
			panic(err)
		}
	}
}

// runImgtbl writes the node's image table and header.
func (w *MontageMPI) runImgtbl(env *Env, p *sim.Proc, rank, node int, work string, nProj int) {
	cl := env.ClientAt("mImgtbl", rank, node)
	for i := 0; i < nProj; i++ {
		if _, err := cl.PosixStat(p, fmt.Sprintf("%s/proj_%03d.fits", work, i)); err != nil {
			panic(err)
		}
	}
	for _, name := range []string{"images.tbl", "mosaic.hdr"} {
		f, err := cl.StdioOpen(p, work+"/"+name, 'w')
		if err != nil {
			panic(err)
		}
		if err := f.Write(p, 64*storage.KiB); err != nil {
			panic(err)
		}
		if err := f.Close(p); err != nil {
			panic(err)
		}
	}
}

// runAddMPI is the parallel coaddition: every rank reads its share of the
// node's projected intermediates (with overlap re-reads) and writes its
// slice of the node mosaic.
func (w *MontageMPI) runAddMPI(env *Env, p *sim.Proc, rank, node int, work string, nProj int, mosaic int64) {
	cl := env.ClientAt("mAddMPI", rank, node)
	rpn := env.Spec.RanksPerNode
	local := env.Job.LocalRank(rank)

	// Read the node's table once per rank (shared within the node).
	tbl, err := cl.StdioOpen(p, work+"/images.tbl", 'r')
	if err != nil {
		panic(err)
	}
	if err := tbl.Read(p, 4*storage.KiB); err != nil {
		panic(err)
	}
	if err := tbl.Close(p); err != nil {
		panic(err)
	}

	// Overlapped reads of the projected intermediates.
	share := w.ProjSize * int64(w.ProjReadOverlap) / int64(rpn)
	for i := local % nProj; i < nProj; i += rpn {
		path := fmt.Sprintf("%s/proj_%03d.fits", work, i)
		f, err := cl.StdioOpen(p, path, 'r')
		if err != nil {
			panic(err)
		}
		read := int64(0)
		for read < share {
			n := w.SmallGranule
			if f.Pos()+n > w.ProjSize {
				if err := f.Seek(p, 0); err != nil { // wrap: overlap re-read
					panic(err)
				}
			}
			if err := f.Read(p, n); err != nil {
				panic(err)
			}
			read += n
		}
		if err := f.Close(p); err != nil {
			panic(err)
		}
	}
	cl.Compute(p, w.AddCompute)

	// Write this rank's slice of the node mosaic.
	mosaicPath := work + "/mosaic.fits"
	f, err := cl.PosixOpen(p, mosaicPath, false)
	if err != nil {
		panic(err)
	}
	cl.DescribeFile(mosaicPath, "fits", 2, "int")
	slice := mosaic / int64(rpn)
	base := int64(local) * slice
	for off := int64(0); off < slice; off += w.MosaicGranule {
		n := w.MosaicGranule
		if off+n > slice {
			n = slice - off
		}
		if err := f.WriteAt(p, base+off, n, false); err != nil {
			panic(err)
		}
	}
	if err := f.Close(p); err != nil {
		panic(err)
	}
}

// sampleMosaic is the sparse sampling read of the node mosaic: one view
// granule out of every eight. The file holds what mAddMPI's ranks wrote —
// RanksPerNode equal slices, so up to RanksPerNode-1 bytes short of the
// nominal mosaic — and at small scales that is not a whole number of
// granules, so the last read is clamped to the file's end.
func (w *MontageMPI) sampleMosaic(env *Env, p *sim.Proc, f *iface.PosixFile, mosaic int64) {
	rpn := int64(env.Spec.RanksPerNode)
	size := mosaic / rpn * rpn
	for off := int64(0); off < mosaic/8 && off*8 < size; off += w.ViewGranule {
		n := w.ViewGranule
		if off*8+n > size {
			n = size - off*8
		}
		if err := f.ReadAt(p, off*8, n, false); err != nil {
			panic(err)
		}
	}
}

// runShrink downsamples the mosaic.
func (w *MontageMPI) runShrink(env *Env, p *sim.Proc, rank, node int, work string, mosaic, shrunk int64) {
	cl := env.ClientAt("mShrink", rank, node)
	f, err := cl.PosixOpen(p, work+"/mosaic.fits", false)
	if err != nil {
		panic(err)
	}
	w.sampleMosaic(env, p, f, mosaic)
	if err := f.Close(p); err != nil {
		panic(err)
	}
	cl.Compute(p, w.ShrinkCompute)
	out, err := cl.StdioOpen(p, work+"/shrunken.fits", 'w')
	if err != nil {
		panic(err)
	}
	for off := int64(0); off < shrunk; off += w.SmallGranule {
		if err := out.Write(p, w.SmallGranule); err != nil {
			panic(err)
		}
	}
	if err := out.Close(p); err != nil {
		panic(err)
	}
}

// runViewer renders the final PNG from the shrunken mosaic.
func (w *MontageMPI) runViewer(env *Env, p *sim.Proc, rank, node int, work string, mosaic, shrunk, png int64) {
	cl := env.ClientAt("mViewer", rank, node)
	f, err := cl.PosixOpen(p, work+"/shrunken.fits", false)
	if err != nil {
		panic(err)
	}
	for off := int64(0); off < shrunk; off += w.ViewGranule {
		n := w.ViewGranule
		if off+n > shrunk {
			n = shrunk - off
		}
		if err := f.ReadAt(p, off, n, false); err != nil {
			panic(err)
		}
	}
	if err := f.Close(p); err != nil {
		panic(err)
	}
	// Re-scan a slice of the mosaic for color mapping.
	m, err := cl.PosixOpen(p, work+"/mosaic.fits", false)
	if err != nil {
		panic(err)
	}
	w.sampleMosaic(env, p, m, mosaic)
	if err := m.Close(p); err != nil {
		panic(err)
	}
	cl.Compute(p, w.ViewerCompute)
	// The final PNG always lands on the PFS, even in the optimized run.
	out, err := cl.StdioOpen(p, fmt.Sprintf("/p/gpfs1/montage/mosaic_seg%02d.png", node), 'w')
	if err != nil {
		panic(err)
	}
	cl.DescribeFile(out.Path(), "png", 2, "int")
	for off := int64(0); off < png; off += 64 * storage.KiB {
		if err := out.Write(p, 64*storage.KiB); err != nil {
			panic(err)
		}
	}
	if err := out.Close(p); err != nil {
		panic(err)
	}
}
