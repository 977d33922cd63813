package spec

import (
	"context"
	"fmt"
	"math"
	"time"

	"vani/internal/cluster"
	"vani/internal/iface"
	"vani/internal/sim"
	"vani/internal/storage"
	"vani/internal/trace"
	"vani/internal/workloads"
)

// Workload is a compiled document, runnable on the simulator: every run
// interprets the document afresh, issuing the interface calls its run
// program (or a task's body) names, in order. It is a value; copies run the
// same document.
type Workload struct {
	doc *Doc
}

// Compile makes the validated doc a Workload that interprets it.
func (d *Doc) Compile() Workload { return Workload{doc: d} }

// failure is a runtime failure of the interpreted program — a modeled
// operation that failed, an expression that cannot evaluate — on its way up
// the interpreter's stack. catch, deferred wherever the simulation enters
// the interpreter, makes it the engine's error, which ends the run; any
// other panic keeps going — a bug, or the engine unwinding a parked rank of
// a stopped run, which must reach the engine to end the rank.
type failure struct{ err error }

func catch(e *sim.Engine) {
	switch r := recover().(type) {
	case nil:
	case failure:
		e.Fail(r.err)
	default:
		panic(r)
	}
}

// Name returns the document's name ("cm1", "hacc", ...).
func (w Workload) Name() string { return w.doc.Name }

// DefaultSpec returns the shared default overlaid with the doc's defaults
// block.
func (w Workload) DefaultSpec() workloads.Spec {
	s := workloads.DefaultSpec()
	d := &w.doc.Defaults
	if d.Nodes > 0 {
		s.Nodes = d.Nodes
	}
	if d.RanksPerNode > 0 {
		s.RanksPerNode = d.RanksPerNode
	}
	if d.TimeLimit > 0 {
		s.TimeLimit = d.TimeLimit
	}
	if d.StdioPerOpCPU > 0 {
		s.Iface.StdioPerOpCPU = d.StdioPerOpCPU
	}
	return s
}

// Run simulates the workload under sp to completion and returns the trace
// and runtime.
func (w Workload) Run(sp workloads.Spec) (*workloads.Result, error) {
	return w.RunContext(context.Background(), sp)
}

// RunContext is Run stopped by ctx: once ctx is done, staging stops at its
// next file, the simulation within a few thousand events or loop
// iterations, every rank unwinds, and the error wraps ctx.Err().
func (w Workload) RunContext(ctx context.Context, sp workloads.Spec) (*workloads.Result, error) {
	if sp.Scale <= 0 || sp.Scale > 1 {
		return nil, fmt.Errorf("workloads: scale %v out of (0, 1]", sp.Scale)
	}
	job, err := cluster.NewJob(w.Name()+"-job", sp.Machine, sp.Nodes, sp.RanksPerNode, sp.TimeLimit)
	if err != nil {
		return nil, err
	}
	e := sim.NewEngine()
	rng := sim.NewRNG(sp.Seed)
	sys := storage.New(e, sp.Storage, sp.Nodes, rng.Fork())
	tr := trace.NewTracer()
	tr.SetEnabled(sp.TraceEnabled)
	tr.SetOverhead(sp.TraceOverhead)
	tr.SetMeta(trace.Meta{
		Workload:     w.Name(),
		JobID:        job.ID,
		Nodes:        sp.Nodes,
		CoresPerNode: sp.Machine.CoresPerNode,
		GPUsPerNode:  sp.Machine.GPUsPerNode,
		MemPerNodeGB: sp.Machine.MemPerNodeGB,
		Ranks:        job.Ranks(),
		NodeLocalDir: sp.Machine.NodeLocalDir,
		SharedBBDir:  sp.Machine.SharedBBDir,
		PFSDir:       sp.Machine.PFSDir,
		JobTimeLimit: sp.TimeLimit,
	})
	v := &env{ctx: ctx, done: ctx.Done(), doc: w.doc, e: e, job: job, sys: sys, tr: tr, rng: rng, spec: sp}
	v.start()
	runtime := e.RunContext(ctx)
	if err := e.Err(); err != nil {
		return nil, fmt.Errorf("workloads: %s: %w", w.Name(), err)
	}
	merged := tr.Finish()
	return &workloads.Result{
		Trace:      merged,
		Runtime:    runtime,
		Sys:        sys,
		Job:        job,
		Spec:       sp,
		TraceMerge: tr.MergeTime(),

		KernelEvents:       e.EventsExecuted,
		KernelSwitches:     e.Switches,
		KernelInPlaceWakes: e.InPlaceWakes,
	}, nil
}

// env is one run: the document and the simulation environment — engine,
// job, storage, tracer, RNG — its setup and ranks act on.
type env struct {
	ctx  context.Context
	done <-chan struct{} // ctx.Done(): nil for a context that is never done
	doc  *Doc
	e    *sim.Engine
	job  cluster.Job
	sys  *storage.System
	tr   *trace.Tracer
	rng  *sim.RNG
	spec workloads.Spec
}

// start runs everything before the engine: it evaluates the params, stages
// the setup and spawns the ranks (or tasks). A failure fails the engine, as
// a rank's does, so the run stops at once and takes every spawned rank
// down with it.
func (v *env) start() {
	defer catch(v.e)
	params := v.params()
	v.setup(params)
	if v.doc.stages != nil {
		v.spawnTasks(params)
	} else {
		v.spawnRanks(params)
	}
}

// params evaluates the doc's params under the run's spec: value params
// first — a scaled one is its value times Scale, rounded down, but at least
// one unit (1 for a count) — then expr params over them.
func (v *env) params() map[string]int64 {
	d := v.doc
	vals := make(map[string]int64, len(d.ordered))
	lookup := func(id string) (int64, bool) {
		if n, ok := v.topology(id); ok {
			return n, true
		}
		n, ok := vals[id]
		return n, ok
	}
	for _, p := range d.ordered {
		n := p.value
		switch {
		case p.kind == paramExpr:
			var err error
			if n, err = p.e.eval(lookup); err != nil {
				panic(failure{fmt.Errorf("spec %s: param %s: %v", d.Name, p.name, err)})
			}
		case p.scaled:
			n = max(int64(float64(n)*v.spec.Scale), p.unit)
		}
		vals[p.name] = n
	}
	return vals
}

// setup materializes staged datasets and attaches value-distribution
// samples, in document order.
func (v *env) setup(params map[string]int64) {
	paths := renderer{doc: v.doc, spec: &v.spec}
	for _, st := range v.doc.setup {
		if st.sample != "" {
			v.setupSample(st)
			continue
		}
		v.setupFiles(st, params, &paths)
	}
}

func (v *env) setupSample(st *setupStep) {
	sample := make([]float64, st.sampleN)
	rng := v.rng.Fork()
	for i := range sample {
		switch st.dist {
		case "normal":
			sample[i] = rng.Normal(st.a, st.b)
		case "gamma":
			sample[i] = rng.Gamma(st.a, st.b)
		case "uniform":
			sample[i] = rng.Uniform(st.a, st.b)
		}
	}
	v.tr.AddSample(st.sample, sample)
}

// canceled fails the run once its context is done. The engine polls the
// context between events; staging, which runs before the engine, and a
// rank's loops, which may run long without an event, call this themselves.
func (v *env) canceled() {
	if v.done == nil {
		return
	}
	select {
	case <-v.done:
		panic(failure{v.ctx.Err()})
	default:
	}
}

// pollIters is how many loop iterations a rank runs between two looks at
// the run's context.
const pollIters = 1024

// setupFiles stages one files step, looking at the run's context before
// every file.
func (v *env) setupFiles(st *setupStep, params map[string]int64, paths *renderer) {
	var node, idx int64
	lookup := func(id string) (int64, bool) {
		switch id {
		case "i":
			return idx, true
		case "node":
			return node, true
		}
		if n, ok := v.topology(id); ok {
			return n, true
		}
		n, ok := params[id]
		return n, ok
	}
	evalOne := func(e *expr, def int64) int64 {
		if e == nil {
			return def
		}
		n, err := e.eval(lookup)
		if err != nil {
			panic(failure{fmt.Errorf("spec %s: setup: %v", v.doc.Name, err)})
		}
		return n
	}
	stage := func() {
		count := evalOne(st.count, 1)
		for idx = 0; idx < count; idx++ {
			v.canceled()
			path := paths.render(st.path, lookup)
			size := evalOne(st.size, 0)
			target := 0
			if st.onNode {
				target = int(node)
			}
			v.sys.Materialize(target, path, size)
		}
	}
	if st.perNode {
		for node = 0; node < int64(v.spec.Nodes); node++ {
			stage()
		}
	} else {
		stage()
	}
}

// spawnRanks starts one proc per rank interpreting the run program.
func (v *env) spawnRanks(params map[string]int64) {
	ranks := v.job.Ranks()
	bars := make(map[string]*sim.Barrier, len(v.doc.barriers))
	for _, name := range v.doc.barriers {
		bars[name] = sim.NewBarrier(v.e, ranks)
	}
	for rank := 0; rank < ranks; rank++ {
		st := v.newState(params, rank)
		st.bars = bars
		st.place(v.doc.App, v.job.NodeOf(rank), v.job.LocalRank(rank))
		v.e.Spawn(fmt.Sprintf("%s-rank%d", v.doc.Name, rank), func(p *sim.Proc) {
			defer catch(v.e)
			st.p = p
			st.exec(v.doc.run, v.doc.App)
		})
	}
}

// newState is the interpreter state of one rank or task, not yet placed.
func (v *env) newState(params map[string]int64, rank int) *rankState {
	st := &rankState{
		env:    v,
		params: params,
		vars:   map[string]int64{},
		rank:   rank,
		paths:  renderer{doc: v.doc, spec: &v.spec},
	}
	if v.doc.usesRand {
		st.rng = v.rng.Fork()
	}
	st.look = st.lookup
	return st
}

// place puts the state on a node and makes the client of its app.
func (st *rankState) place(app string, node, local int) {
	st.app, st.node, st.local, st.leader = app, node, local, local == 0
	st.cl = st.newClient(app)
}

func (st *rankState) newClient(app string) *iface.Client {
	v := st.env
	return iface.NewClient(v.sys, v.tr, v.spec.Iface, app, st.rank, st.node)
}

// topology resolves the builtins every expression may read: the job's
// shape and whether the run is optimized.
func (v *env) topology(id string) (int64, bool) {
	switch id {
	case "ranks":
		return int64(v.job.Ranks()), true
	case "rpn":
		return int64(v.spec.RanksPerNode), true
	case "nodes":
		return int64(v.spec.Nodes), true
	case "optimized":
		return b2i(v.spec.Optimized), true
	}
	return 0, false
}

// rankState is one rank's (or task's) interpreter state.
type rankState struct {
	env    *env
	p      *sim.Proc
	params map[string]int64
	vars   map[string]int64
	bars   map[string]*sim.Barrier

	rank, node, local int
	leader            bool
	iters             int64 // loop iterations run, for pollIters

	app     string // the app cl runs as: the document's, or a task's stage
	cl      *iface.Client
	clients map[string]*iface.Client // other apps, made on first use
	rng     *sim.RNG                 // nil unless a let draws from it
	paths   renderer

	// files is the stack of open files, innermost last: open pushes, close
	// pops, and every other file op acts on the innermost. A popped slot is
	// reused by the next open.
	files []handle

	// look is lookup bound once: a method value built per expression is an
	// allocation per expression.
	look func(string) (int64, bool)
}

// maxOpen bounds the files a rank may hold open at once.
const maxOpen = 8

// handle is one open file, across whichever interface opened it.
type handle struct {
	layer string
	path  string
	posix *iface.PosixFile
	stdio *iface.StdioFile
	mpi   *iface.MPIFile
	h5    *iface.H5File
}

// lookup resolves an identifier. Builtins first: the parser lets no param,
// loop variable or let shadow one, and `leader` and `rank` are read by every
// rank at every step.
func (st *rankState) lookup(id string) (int64, bool) {
	switch id {
	case "rank":
		return int64(st.rank), true
	case "node":
		return int64(st.node), true
	case "local":
		return int64(st.local), true
	case "leader":
		return b2i(st.leader), true
	case "ranks":
		return int64(st.env.job.Ranks()), true
	case "rpn":
		return int64(st.env.spec.RanksPerNode), true
	case "nodes":
		return int64(st.env.spec.Nodes), true
	case "optimized":
		return b2i(st.env.spec.Optimized), true
	}
	if v, ok := st.vars[id]; ok {
		return v, ok
	}
	v, ok := st.params[id]
	return v, ok
}

func (st *rankState) eval(e *expr) int64 {
	v, err := e.eval(st.look)
	if err != nil {
		panic(failure{fmt.Errorf("spec %s: rank %d: %v", st.env.doc.Name, st.rank, err)})
	}
	return v
}

func (st *rankState) evalOr(e *expr, def int64) int64 {
	if e == nil {
		return def
	}
	return st.eval(e)
}

func (st *rankState) client(app string) *iface.Client {
	if app == st.app {
		return st.cl
	}
	if cl, ok := st.clients[app]; ok {
		return cl
	}
	if st.clients == nil {
		st.clients = map[string]*iface.Client{}
	}
	cl := st.newClient(app)
	st.clients[app] = cl
	return cl
}

func (st *rankState) path(t *pathT) string {
	return st.paths.render(t, st.look)
}

// cur is the innermost open file; what names the op that needs one.
func (st *rankState) cur(what string) *handle {
	if len(st.files) == 0 {
		st.fail("%s without an open file", what)
	}
	return &st.files[len(st.files)-1]
}

func (st *rankState) fail(format string, args ...interface{}) {
	panic(failure{fmt.Errorf("spec %s: rank %d: %s", st.env.doc.Name, st.rank, fmt.Sprintf(format, args...))})
}

func (st *rankState) check(err error) {
	if err != nil {
		panic(failure{err})
	}
}

func (st *rankState) exec(ops []*op, app string) {
	for _, o := range ops {
		switch o.kind {
		case opGroup:
			if o.when != nil && st.eval(o.when) == 0 {
				continue
			}
			a := app
			if o.app != "" {
				a = o.app
			}
			st.exec(o.body, a)
		case opLoop:
			from := st.evalOr(o.from, 0)
			until := st.eval(o.until)
			step := st.evalOr(o.step, 1)
			if step <= 0 {
				st.fail("loop %s: step %d not positive", o.loopVar, step)
			}
			for v := from; v < until; v += step {
				st.vars[o.loopVar] = v
				st.exec(o.body, app)
				if st.iters++; st.iters%pollIters == 0 {
					st.env.canceled()
				}
			}
		case opLet:
			v := st.eval(o.letExpr)
			if o.letRand {
				if v <= 0 {
					st.fail("let %s: rand bound %d not positive", o.letName, v)
				}
				v = st.rng.Int63n(v)
			}
			st.vars[o.letName] = v
		case opDescribe:
			st.client(app).DescribeFile(st.path(o.path), o.format, o.ndims, o.dtype)
		case opOpen:
			st.open(o, app)
		case opRead, opWrite:
			st.readWrite(o)
		case opPRead:
			st.pread(o)
		case opPWrite:
			st.pwrite(o)
		case opReadWrap:
			st.readWrap(o)
		case opClose:
			h := st.cur("close")
			switch h.layer {
			case "posix":
				st.check(h.posix.Close(st.p))
			case "stdio":
				st.check(h.stdio.Close(st.p))
			case "mpiio":
				st.check(h.mpi.Close(st.p))
			case "hdf5":
				st.check(h.h5.Close(st.p))
			}
			*h = handle{}
			st.files = st.files[:len(st.files)-1]
		case opSeek:
			h := st.cur("seek")
			switch h.layer {
			case "posix":
				st.check(h.posix.Seek(st.p, st.eval(o.at)))
			case "stdio":
				st.check(h.stdio.Seek(st.p, st.eval(o.at)))
			default:
				st.fail("seek on %s file", h.layer)
			}
		case opSync:
			h := st.cur("sync")
			if h.layer != "posix" {
				st.fail("sync on %s file", h.layer)
			}
			st.check(h.posix.Sync(st.p))
		case opStat:
			_, err := st.client(app).PosixStat(st.p, st.path(o.path))
			st.check(err)
		case opBarrier:
			st.client(app).Barrier(st.p, st.bars[o.name])
		case opCompute:
			st.client(app).Compute(st.p, time.Duration(st.eval(o.dur)))
		case opGPU:
			st.client(app).GPUCompute(st.p, time.Duration(st.eval(o.dur)))
		}
	}
}

func (st *rankState) open(o *op, app string) {
	if len(st.files) == maxOpen {
		st.fail("open %s: %d files already open", o.path.src, maxOpen)
	}
	cl := st.client(app)
	h := handle{layer: o.layer, path: st.path(o.path)}
	var err error
	switch o.layer {
	case "posix":
		h.posix, err = cl.PosixOpen(st.p, h.path, o.create)
	case "stdio":
		h.stdio, err = cl.StdioOpen(st.p, h.path, o.mode)
	case "mpiio":
		h.mpi, err = cl.MPIOpen(st.p, h.path, o.create, int(st.eval(o.comm)))
	case "hdf5":
		h.h5, err = cl.H5Open(st.p, h.path, o.create, int(st.eval(o.comm)))
	}
	st.check(err)
	st.files = append(st.files, h)
}

// readWrite runs a sequential read/write of total bytes in granule-sized
// operations (one operation when granule is omitted), clamping the tail
// when clamp is set.
func (st *rankState) readWrite(o *op) {
	h := st.cur("read/write")
	total := st.eval(o.total)
	granule := st.evalOr(o.granule, total)
	if granule <= 0 {
		st.fail("granule %d not positive", granule)
	}
	for off := int64(0); off < total; off += granule {
		n := granule
		if o.clamp && off+n > total {
			n = total - off
		}
		var err error
		switch h.layer {
		case "posix":
			if o.kind == opRead {
				err = h.posix.Read(st.p, n)
			} else {
				err = h.posix.Write(st.p, n)
			}
		case "stdio":
			if o.kind == opRead {
				err = h.stdio.Read(st.p, n)
			} else {
				err = h.stdio.Write(st.p, n)
			}
		case "mpiio":
			if o.kind == opRead {
				err = h.mpi.ReadAt(st.p, off, n)
			} else {
				err = h.mpi.WriteAt(st.p, off, n)
			}
		case "hdf5":
			if o.kind == opRead {
				err = h.h5.DatasetRead(st.p, off, n)
			} else {
				err = h.h5.DatasetWrite(st.p, off, n)
			}
		}
		st.check(err)
	}
}

// pread runs positioned reads at base + off*stride for off in granule
// steps below total — strided sparse scans when stride > 1 — each preceded
// by a seek with seek set (HACC's restart pattern). With size, the file's
// length, reads stop there and the last one is clamped to it.
func (st *rankState) pread(o *op) {
	h := st.cur("pread")
	switch {
	case h.layer == "mpiio" && o.seek:
		st.fail("pread seek on mpiio file")
	case h.layer != "posix" && h.layer != "mpiio":
		st.fail("pread on %s file", h.layer)
	}
	base := st.evalOr(o.at, 0)
	total := st.eval(o.total)
	granule := st.evalOr(o.granule, total)
	if granule <= 0 {
		st.fail("granule %d not positive", granule)
	}
	size := st.evalOr(o.size, math.MaxInt64)
	for off := int64(0); off < total; off += granule {
		n := granule
		if o.clamp && off+n > total {
			n = total - off
		}
		pos := base + off*o.stride
		if pos >= size {
			break
		}
		if n > size-pos {
			n = size - pos
		}
		if h.layer == "mpiio" {
			st.check(h.mpi.ReadAt(st.p, pos, n))
			continue
		}
		if o.seek {
			st.check(h.posix.Seek(st.p, pos))
		}
		st.check(h.posix.ReadAt(st.p, pos, n, false))
	}
}

// pwrite runs positioned writes at base+off, optionally preceded by a
// seek per operation (CM1's append pattern), where base is the at
// expression or — with append — the file's current size. An MPI-IO file
// takes neither seek nor append: its writes are WriteAt at base+off.
func (st *rankState) pwrite(o *op) {
	h := st.cur("pwrite")
	switch {
	case h.layer == "mpiio" && o.seek:
		st.fail("pwrite seek on mpiio file")
	case h.layer == "mpiio" && o.appendBase:
		st.fail("pwrite append on mpiio file")
	case h.layer != "posix" && h.layer != "mpiio":
		st.fail("pwrite on %s file", h.layer)
	}
	var base int64
	if o.appendBase {
		base, _ = st.env.sys.FileSize(0, h.path)
	} else {
		base = st.evalOr(o.at, 0)
	}
	total := st.eval(o.total)
	granule := st.evalOr(o.granule, total)
	if granule <= 0 {
		st.fail("granule %d not positive", granule)
	}
	for off := int64(0); off < total; off += granule {
		n := granule
		if o.clamp && off+n > total {
			n = total - off
		}
		if h.layer == "mpiio" {
			st.check(h.mpi.WriteAt(st.p, base+off, n))
			continue
		}
		if o.seek {
			st.check(h.posix.Seek(st.p, base+off))
		}
		st.check(h.posix.WriteAt(st.p, base+off, n, false))
	}
}

// readWrap reads total bytes in granule steps from a stdio file of the
// given size, seeking back to the start whenever the next operation would
// run past the end — Montage's overlap re-read pattern.
func (st *rankState) readWrap(o *op) {
	h := st.cur("readwrap")
	if h.layer != "stdio" {
		st.fail("readwrap on %s file", h.layer)
	}
	total := st.eval(o.total)
	granule := st.eval(o.granule)
	size := st.eval(o.size)
	if granule <= 0 {
		st.fail("granule %d not positive", granule)
	}
	f := h.stdio
	for read := int64(0); read < total; read += granule {
		if f.Pos()+granule > size {
			st.check(f.Seek(st.p, 0))
		}
		st.check(f.Read(st.p, granule))
	}
}
