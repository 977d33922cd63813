package spec

import (
	"fmt"
	"math"
	"time"

	"vani/internal/iface"
	"vani/internal/sim"
	"vani/internal/workloads"
)

// Compile wraps the validated doc as a workloads.Workload that interprets
// it.
func (d *Doc) Compile() workloads.Workload { return &compiled{doc: d} }

type compiled struct {
	doc *Doc
}

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

// Name implements workloads.Workload.
func (c *compiled) Name() string { return c.doc.Name }

// AppName implements workloads.Workload.
func (c *compiled) AppName() string { return c.doc.App }

// DefaultSpec implements workloads.Workload: the shared default overlaid
// with the doc's defaults block.
func (c *compiled) DefaultSpec() workloads.Spec {
	s := workloads.DefaultSpec()
	if c.doc.Defaults.Nodes > 0 {
		s.Nodes = c.doc.Defaults.Nodes
	}
	if c.doc.Defaults.RanksPerNode > 0 {
		s.RanksPerNode = c.doc.Defaults.RanksPerNode
	}
	if c.doc.Defaults.TimeLimit > 0 {
		s.TimeLimit = c.doc.Defaults.TimeLimit
	}
	if c.doc.Defaults.StdioPerOpCPU > 0 {
		s.Iface.StdioPerOpCPU = c.doc.Defaults.StdioPerOpCPU
	}
	return s
}

// paramsFor evaluates the doc's params under a concrete run spec: value
// params scaled by the harness's rules (workloads.ScaleN, ScaleBytes),
// then expr params over them.
func (c *compiled) paramsFor(env *workloads.Env) map[string]int64 {
	vals := make(map[string]int64, len(c.doc.ordered))
	lookup := func(id string) (int64, bool) {
		if v, ok := topology(env, id); ok {
			return v, true
		}
		v, ok := vals[id]
		return v, ok
	}
	for _, p := range c.doc.ordered {
		switch p.kind {
		case paramCount:
			if p.scaled {
				vals[p.name] = int64(workloads.ScaleN(int(p.value), env.Spec.Scale, 1))
			} else {
				vals[p.name] = p.value
			}
		case paramBytes:
			if p.scaled {
				vals[p.name] = workloads.ScaleBytes(p.value, env.Spec.Scale, p.unit)
			} else {
				vals[p.name] = p.value
			}
		case paramTime:
			vals[p.name] = p.value
		case paramExpr:
			v, err := p.e.eval(lookup)
			if err != nil {
				panic(failure{fmt.Errorf("spec %s: param %s: %v", c.doc.Name, p.name, err)})
			}
			vals[p.name] = v
		}
	}
	return vals
}

// Setup implements workloads.Workload: materializes staged datasets and
// attaches value-distribution samples, in document order.
func (c *compiled) Setup(env *workloads.Env) {
	defer catch(env.E)
	params := c.paramsFor(env)
	paths := renderer{c: c, spec: &env.Spec}
	for _, st := range c.doc.setup {
		if st.sample != "" {
			c.setupSample(env, st)
			continue
		}
		c.setupFiles(env, st, params, &paths)
	}
}

func (c *compiled) setupSample(env *workloads.Env, st *setupStep) {
	sample := make([]float64, st.sampleN)
	rng := env.RNG.Fork()
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
	env.Tr.AddSample(st.sample, sample)
}

func (c *compiled) setupFiles(env *workloads.Env, st *setupStep, params map[string]int64, paths *renderer) {
	var node, idx int64
	lookup := func(id string) (int64, bool) {
		switch id {
		case "i":
			return idx, true
		case "node":
			return node, true
		}
		if v, ok := topology(env, id); ok {
			return v, true
		}
		v, ok := params[id]
		return v, ok
	}
	evalOne := func(e *expr, def int64) int64 {
		if e == nil {
			return def
		}
		v, err := e.eval(lookup)
		if err != nil {
			panic(failure{fmt.Errorf("spec %s: setup: %v", c.doc.Name, err)})
		}
		return v
	}
	stage := func() {
		count := evalOne(st.count, 1)
		for idx = 0; idx < count; idx++ {
			path := paths.render(st.path, lookup)
			size := evalOne(st.size, 0)
			target := 0
			if st.onNode {
				target = int(node)
			}
			env.Sys.Materialize(target, path, size)
		}
	}
	if st.perNode {
		for node = 0; node < int64(env.Spec.Nodes); node++ {
			stage()
		}
	} else {
		stage()
	}
}

// Spawn implements workloads.Workload: one proc per rank interpreting the
// run program, or, for a tasks document, one per task (tasks.go).
func (c *compiled) Spawn(env *workloads.Env) {
	defer catch(env.E)
	params := c.paramsFor(env)
	if c.doc.stages != nil {
		c.spawnTasks(env, params)
		return
	}
	ranks := env.Job.Ranks()
	bars := make(map[string]*sim.Barrier, len(c.doc.barriers))
	for _, name := range c.doc.barriers {
		bars[name] = sim.NewBarrier(env.E, ranks)
	}
	for rank := 0; rank < ranks; rank++ {
		st := c.newState(env, params, rank)
		st.bars = bars
		st.place(c.doc.App, env.Job.NodeOf(rank), env.Job.LocalRank(rank))
		env.E.Spawn(fmt.Sprintf("%s-rank%d", c.doc.Name, rank), func(p *sim.Proc) {
			defer catch(env.E)
			st.p = p
			st.exec(c.doc.run, c.doc.App)
		})
	}
}

// newState is the interpreter state of one rank or task, not yet placed.
func (c *compiled) newState(env *workloads.Env, params map[string]int64, rank int) *rankState {
	st := &rankState{
		c:      c,
		env:    env,
		params: params,
		vars:   map[string]int64{},
		rank:   rank,
		paths:  renderer{c: c, spec: &env.Spec},
	}
	if c.doc.usesRand {
		st.rng = env.RNG.Fork()
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
	return iface.NewClient(st.env.Sys, st.env.Tr, st.env.Spec.Iface, app, st.rank, st.node)
}

// topology resolves the builtins every expression may read: the job's
// shape and whether the run is optimized.
func topology(env *workloads.Env, id string) (int64, bool) {
	switch id {
	case "ranks":
		return int64(env.Job.Ranks()), true
	case "rpn":
		return int64(env.Spec.RanksPerNode), true
	case "nodes":
		return int64(env.Spec.Nodes), true
	case "optimized":
		return b2i(env.Spec.Optimized), true
	}
	return 0, false
}

// rankState is one rank's (or task's) interpreter state.
type rankState struct {
	c      *compiled
	env    *workloads.Env
	p      *sim.Proc
	params map[string]int64
	vars   map[string]int64
	bars   map[string]*sim.Barrier

	rank, node, local int
	leader            bool

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
		return int64(st.env.Job.Ranks()), true
	case "rpn":
		return int64(st.env.Spec.RanksPerNode), true
	case "nodes":
		return int64(st.env.Spec.Nodes), true
	case "optimized":
		return b2i(st.env.Spec.Optimized), true
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
		panic(failure{fmt.Errorf("spec %s: rank %d: %v", st.c.doc.Name, st.rank, err)})
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
	panic(failure{fmt.Errorf("spec %s: rank %d: %s", st.c.doc.Name, st.rank, fmt.Sprintf(format, args...))})
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
// expression or — with append — the file's current size.
func (st *rankState) pwrite(o *op) {
	h := st.cur("pwrite")
	if h.layer != "posix" {
		st.fail("pwrite on %s file", h.layer)
	}
	var base int64
	if o.appendBase {
		base, _ = st.env.Sys.FileSize(0, h.path)
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
