package workloads

import (
	"fmt"
	"time"

	"vani/internal/iface"
	"vani/internal/sim"
	"vani/internal/storage"
	"vani/internal/workflow"
)

// MontagePegasus models the Pegasus-managed galactic-plane mosaic workflow
// of Section IV-A6 / Figure 6:
//
//   - Nine Montage kernels composed into a DAG, executed by a
//     pegasus-mpi-cluster-style scheduler over 1280 worker slots on 32
//     nodes; ~6000 task processes, the bulk of them mDiff.
//   - mDiff dominates I/O (~60% of the 139GB total), reading overlap
//     regions of projected images with 64KB transfers; intermediate and
//     table files are created and accessed with <4KB transfers.
//   - mViewer issues two large (>16MB) requests and produces the 1.5GB
//     mosaic images.
type MontagePegasus struct {
	ProjectTasks int   // mProject tasks (each consumes 2 FITS + headers)
	DiffTasks    int   // mDiff tasks (the 5209 of the paper)
	AddTasks     int   // mAdd tile tasks
	FITSSize     int64 //
	HdrsPerProj  int   // small header inputs read per mProject task
	ProjSize     int64 // projected image size
	DiffRead     int64 // bytes read from each of the 2 parents per mDiff
	DiffSize     int64 // diff file size (only boundary overlaps materialize)
	FitSize      int64 //
	CorrSize     int64 // corrected image size
	TileSize     int64 // mosaic tile size
	PNGBytes     int64 // mViewer output total

	BigGranule   int64 // 64KB transfers
	SmallGranule int64 // <4KB transfers

	ProjectCompute time.Duration
	DiffCompute    time.Duration
	FitCompute     time.Duration
	ConcatCompute  time.Duration
	BgModelCompute time.Duration
	BgCompute      time.Duration
	AddCompute     time.Duration
	ViewerCompute  time.Duration
}

// NewMontagePegasus returns the paper-scale configuration (10 degrees of
// galactic plane, 5x5 degree tiles with 1 degree overlap).
func NewMontagePegasus() *MontagePegasus {
	return &MontagePegasus{
		ProjectTasks: 480,
		DiffTasks:    5209,
		AddTasks:     16,
		FITSSize:     1536 * storage.KiB,
		HdrsPerProj:  8,
		ProjSize:     29 * storage.MiB,
		DiffRead:     8 * storage.MiB,
		DiffSize:     1 * storage.MiB,
		FitSize:      4 * storage.KiB,
		CorrSize:     15 * storage.MiB,
		TileSize:     120 * storage.MiB,
		PNGBytes:     1536 * storage.MiB,

		BigGranule:   64 * storage.KiB,
		SmallGranule: 4 * storage.KiB,

		ProjectCompute: 25 * time.Second,
		DiffCompute:    2 * time.Second,
		FitCompute:     time.Second,
		ConcatCompute:  60 * time.Second,
		BgModelCompute: 300 * time.Second,
		BgCompute:      150 * time.Second,
		AddCompute:     100 * time.Second,
		ViewerCompute:  100 * time.Second,
	}
}

// Name implements Workload.
func (w *MontagePegasus) Name() string { return "montage-pegasus" }

// AppName implements Workload.
func (w *MontagePegasus) AppName() string { return "mDiff" }

// DefaultSpec implements Workload: 12h limit (Table II).
func (w *MontagePegasus) DefaultSpec() Spec {
	s := DefaultSpec()
	s.TimeLimit = 12 * time.Hour
	s.Iface.StdioPerOpCPU = 5 * time.Microsecond // libc cost per tiny access
	return s
}

const pegBase = "/p/gpfs1/montage-pegasus"

func (w *MontagePegasus) fitsPath(i int) string {
	return fmt.Sprintf("%s/input/plane_%04d.fits", pegBase, i)
}

func (w *MontagePegasus) hdrPath(i int) string {
	return fmt.Sprintf("%s/input/hdr_%04d.hdr", pegBase, i)
}

func (w *MontagePegasus) projPath(i int) string {
	return fmt.Sprintf("%s/work/proj_%04d.fits", pegBase, i)
}

// Setup stages the survey inputs: FITS images and the small header/
// calibration files that make up the 4778 initial-input files.
func (w *MontagePegasus) Setup(env *Env) {
	nProj := ScaleN(w.ProjectTasks, env.Spec.Scale, 1)
	for i := 0; i < 2*nProj; i++ {
		env.Sys.Materialize(0, w.fitsPath(i), w.FITSSize)
	}
	for i := 0; i < nProj*w.HdrsPerProj; i++ {
		env.Sys.Materialize(0, w.hdrPath(i), 2*storage.KiB)
	}
	sample := make([]float64, 2000)
	rng := env.RNG.Fork()
	for i := range sample {
		sample[i] = rng.Uniform(0, 65535)
	}
	env.Tr.AddSample("montage-pegasus-pixels", sample)
}

// Spawn implements Workload: builds the nine-kernel DAG and hands it to
// the pegasus-mpi-cluster scheduler (1280 slots).
func (w *MontagePegasus) Spawn(env *Env) {
	spec := env.Spec
	nProj := ScaleN(w.ProjectTasks, spec.Scale, 1)
	nDiff := ScaleN(w.DiffTasks, spec.Scale, 1)
	nAdd := ScaleN(w.AddTasks, spec.Scale, 1)
	slots := env.Job.Ranks()
	d := workflow.NewDAG()

	// client builds a per-task interface client. Every task instance is its
	// own OS process under pegasus-mpi-cluster, so each gets a unique rank
	// (the paper counts 6039 spawned processes); placement follows the
	// worker slot the scheduler assigned.
	taskSeq := 0
	newRank := func() int { r := taskSeq; taskSeq++; return r }
	client := func(app string, rank, slot int) *iface.Client {
		return env.ClientAt(app, rank, slot/spec.RanksPerNode)
	}

	// mProject: read 2 FITS + headers, write one projected image (64KB).
	projNames := make([]string, nProj)
	for i := 0; i < nProj; i++ {
		i := i
		name := fmt.Sprintf("mProject_%04d", i)
		projNames[i] = name
		rank := newRank()
		d.MustAdd(&workflow.Task{
			Name: name, App: "mProject",
			Run: func(p *sim.Proc, slot int) {
				cl := client("mProject", rank, slot)
				for h := 0; h < w.HdrsPerProj; h++ {
					readWhole(cl, p, w.hdrPath(i*w.HdrsPerProj+h), 2*storage.KiB, 2*storage.KiB)
				}
				for f := 0; f < 2; f++ {
					path := w.fitsPath(2*i + f)
					cl.DescribeFile(path, "fits", 2, "int")
					readWhole(cl, p, path, w.FITSSize, w.BigGranule)
				}
				cl.Compute(p, w.ProjectCompute)
				cl.DescribeFile(w.projPath(i), "fits", 2, "int")
				writeWhole(cl, p, w.projPath(i), w.ProjSize, w.BigGranule)
			},
		})
	}

	// mImgTbl: stat every projected image, write the image table.
	imgTblRank := newRank()
	d.MustAdd(&workflow.Task{
		Name: "mImgTbl", App: "mImgTbl", Deps: projNames,
		Run: func(p *sim.Proc, slot int) {
			cl := client("mImgTbl", imgTblRank, slot)
			for i := 0; i < nProj; i++ {
				if _, err := cl.PosixStat(p, w.projPath(i)); err != nil {
					panic(err)
				}
			}
			writeWhole(cl, p, pegBase+"/work/pimages.tbl", 256*storage.KiB, w.SmallGranule)
		},
	})

	// mDiff: read the overlap region of two projected parents; only the
	// first nProj diffs (tile boundaries) materialize files.
	fitDeps := make([]string, 0, nProj)
	for j := 0; j < nDiff; j++ {
		j := j
		a := j % nProj
		b := (j + 1 + j/nProj) % nProj
		name := fmt.Sprintf("mDiff_%05d", j)
		writes := j < nProj
		diffRank := newRank()
		d.MustAdd(&workflow.Task{
			Name: name, App: "mDiff",
			Deps: []string{projNames[a], projNames[b]},
			Run: func(p *sim.Proc, slot int) {
				cl := client("mDiff", diffRank, slot)
				readPart(cl, p, w.projPath(a), w.DiffRead, w.BigGranule)
				readPart(cl, p, w.projPath(b), w.DiffRead, w.BigGranule)
				cl.Compute(p, w.DiffCompute)
				if writes {
					writeWhole(cl, p, fmt.Sprintf("%s/work/diff_%05d.fits", pegBase, j), w.DiffSize, w.SmallGranule)
				}
			},
		})
		if writes {
			fit := fmt.Sprintf("mFitplane_%05d", j)
			fitDeps = append(fitDeps, fit)
			fitRank := newRank()
			d.MustAdd(&workflow.Task{
				Name: fit, App: "mFitplane", Deps: []string{name},
				Run: func(p *sim.Proc, slot int) {
					cl := client("mFitplane", fitRank, slot)
					readWhole(cl, p, fmt.Sprintf("%s/work/diff_%05d.fits", pegBase, j), w.DiffSize, w.SmallGranule)
					cl.Compute(p, w.FitCompute)
					writeWhole(cl, p, fmt.Sprintf("%s/work/fit_%05d.tbl", pegBase, j), w.FitSize, w.SmallGranule)
				},
			})
		}
	}

	// mConcatFit: gather all fit tables into one.
	concatRank := newRank()
	d.MustAdd(&workflow.Task{
		Name: "mConcatFit", App: "mConcatFit", Deps: fitDeps,
		Run: func(p *sim.Proc, slot int) {
			cl := client("mConcatFit", concatRank, slot)
			for i := 0; i < len(fitDeps); i++ {
				readWhole(cl, p, fmt.Sprintf("%s/work/fit_%05d.tbl", pegBase, i), w.FitSize, w.SmallGranule)
			}
			cl.Compute(p, w.ConcatCompute)
			writeWhole(cl, p, pegBase+"/work/fits.tbl", 20*storage.MiB, w.BigGranule)
		},
	})

	// mBgModel: global background solution.
	bgModelRank := newRank()
	d.MustAdd(&workflow.Task{
		Name: "mBgModel", App: "mBgModel", Deps: []string{"mConcatFit", "mImgTbl"},
		Run: func(p *sim.Proc, slot int) {
			cl := client("mBgModel", bgModelRank, slot)
			readWhole(cl, p, pegBase+"/work/fits.tbl", 20*storage.MiB, w.BigGranule)
			cl.Compute(p, w.BgModelCompute)
			writeWhole(cl, p, pegBase+"/work/corrections.tbl", 2*storage.MiB, w.SmallGranule)
		},
	})

	// mBackground: apply corrections per projected image.
	bgNames := make([]string, nProj)
	for i := 0; i < nProj; i++ {
		i := i
		name := fmt.Sprintf("mBackground_%04d", i)
		bgNames[i] = name
		bgRank := newRank()
		d.MustAdd(&workflow.Task{
			Name: name, App: "mBackground",
			Deps: []string{projNames[i], "mBgModel"},
			Run: func(p *sim.Proc, slot int) {
				cl := client("mBackground", bgRank, slot)
				readPart(cl, p, w.projPath(i), w.CorrSize, w.BigGranule)
				readWhole(cl, p, pegBase+"/work/corrections.tbl", 2*storage.MiB, w.SmallGranule)
				cl.Compute(p, w.BgCompute)
				writeWhole(cl, p, fmt.Sprintf("%s/work/corr_%04d.fits", pegBase, i), w.CorrSize, w.BigGranule)
			},
		})
	}

	// mAdd: coadd corrected images into mosaic tiles.
	addNames := make([]string, nAdd)
	perTile := nProj / nAdd
	if perTile == 0 {
		perTile = 1
	}
	for t := 0; t < nAdd; t++ {
		t := t
		name := fmt.Sprintf("mAdd_%02d", t)
		addNames[t] = name
		deps := []string{}
		for i := t * perTile; i < (t+1)*perTile && i < nProj; i++ {
			deps = append(deps, bgNames[i])
		}
		if len(deps) == 0 {
			deps = append(deps, bgNames[nProj-1])
		}
		addRank := newRank()
		d.MustAdd(&workflow.Task{
			Name: name, App: "mAdd", Deps: deps,
			Run: func(p *sim.Proc, slot int) {
				cl := client("mAdd", addRank, slot)
				for i := t * perTile; i < (t+1)*perTile && i < nProj; i++ {
					readWhole(cl, p, fmt.Sprintf("%s/work/corr_%04d.fits", pegBase, i), w.CorrSize, w.BigGranule)
				}
				cl.Compute(p, w.AddCompute)
				writeWhole(cl, p, fmt.Sprintf("%s/work/tile_%02d.fits", pegBase, t), w.TileSize, storage.MiB)
			},
		})
	}

	// mViewer: two large (>16MB) reads over the tiles, then the mosaic
	// images (1.5GB) written large.
	viewerRank := newRank()
	d.MustAdd(&workflow.Task{
		Name: "mViewer", App: "mViewer", Deps: addNames,
		Run: func(p *sim.Proc, slot int) {
			cl := client("mViewer", viewerRank, slot)
			tile0 := fmt.Sprintf("%s/work/tile_%02d.fits", pegBase, 0)
			f, err := cl.PosixOpen(p, tile0, false)
			if err != nil {
				panic(err)
			}
			big := ScaleBytes(64*storage.MiB, spec.Scale, 16*storage.MiB+1)
			if sz, _ := env.Sys.FileSize(slot/spec.RanksPerNode, tile0); big > sz {
				big = sz
			}
			for r := 0; r < 2; r++ { // the paper's two >16MB requests
				if err := f.ReadAt(p, 0, big, false); err != nil {
					panic(err)
				}
			}
			if err := f.Close(p); err != nil {
				panic(err)
			}
			cl.Compute(p, w.ViewerCompute)
			out := pegBase + "/mosaic_images.png"
			cl.DescribeFile(out, "png", 2, "int")
			writeWhole(cl, p, out, ScaleBytes(w.PNGBytes, spec.Scale, storage.MiB), storage.MiB)
		},
	})

	if _, err := workflow.Execute(env.E, d, slots); err != nil {
		panic(err)
	}
}

// readWhole opens, fully reads, and closes a file through STDIO.
func readWhole(cl *iface.Client, p *sim.Proc, path string, size, granule int64) {
	f, err := cl.StdioOpen(p, path, 'r')
	if err != nil {
		panic(err)
	}
	for off := int64(0); off < size; off += granule {
		n := granule
		if off+n > size {
			n = size - off
		}
		if err := f.Read(p, n); err != nil {
			panic(err)
		}
	}
	if err := f.Close(p); err != nil {
		panic(err)
	}
}

// readPart reads the first part bytes of a file through STDIO.
func readPart(cl *iface.Client, p *sim.Proc, path string, part, granule int64) {
	readWhole(cl, p, path, part, granule)
}

// writeWhole creates and writes a file through STDIO.
func writeWhole(cl *iface.Client, p *sim.Proc, path string, size, granule int64) {
	f, err := cl.StdioOpen(p, path, 'w')
	if err != nil {
		panic(err)
	}
	for off := int64(0); off < size; off += granule {
		n := granule
		if off+n > size {
			n = size - off
		}
		if err := f.Write(p, n); err != nil {
			panic(err)
		}
	}
	if err := f.Close(p); err != nil {
		panic(err)
	}
}
