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
// other panic is a bug and keeps going.
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
// params scaled by the Go generators' rules, then expr params over them.
func (c *compiled) paramsFor(env *workloads.Env) map[string]int64 {
	vals := make(map[string]int64, len(c.doc.ordered))
	lookup := func(id string) (int64, bool) {
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

// dirOf renders a dir's base path, picking the optimized variant when the
// run is optimized and the dir declares one.
func (c *compiled) dirOf(name string, lookup func(string) (int64, bool), optimized bool) (string, error) {
	dr, ok := c.doc.dirs[name]
	if !ok {
		return "", fmt.Errorf("unknown dir @%s", name)
	}
	t := dr.base
	if optimized && dr.optimized != nil {
		t = dr.optimized
	}
	return t.render(lookup, func(string) (string, error) {
		return "", fmt.Errorf("dir templates cannot reference dirs")
	})
}

func (c *compiled) renderPath(t *pathT, lookup func(string) (int64, bool), optimized bool) string {
	s, err := t.render(lookup, func(n string) (string, error) {
		return c.dirOf(n, lookup, optimized)
	})
	if err != nil {
		panic(failure{fmt.Errorf("spec %s: %v", c.doc.Name, err)})
	}
	return s
}

// Setup implements workloads.Workload: materializes staged datasets and
// attaches value-distribution samples, in document order.
func (c *compiled) Setup(env *workloads.Env) {
	defer catch(env.E)
	params := c.paramsFor(env)
	for _, st := range c.doc.setup {
		if st.sample != "" {
			c.setupSample(env, st)
			continue
		}
		c.setupFiles(env, st, params)
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

func (c *compiled) setupFiles(env *workloads.Env, st *setupStep, params map[string]int64) {
	var node, idx int64
	lookup := func(id string) (int64, bool) {
		switch id {
		case "i":
			return idx, true
		case "node":
			return node, true
		case "ranks":
			return int64(env.Job.Ranks()), true
		case "rpn":
			return int64(env.Spec.RanksPerNode), true
		case "nodes":
			return int64(env.Spec.Nodes), true
		case "optimized":
			return b2i(env.Spec.Optimized), true
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
			path := c.renderPath(st.path, lookup, env.Spec.Optimized)
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
// run program.
func (c *compiled) Spawn(env *workloads.Env) {
	defer catch(env.E)
	params := c.paramsFor(env)
	ranks := env.Job.Ranks()
	bars := make(map[string]*sim.Barrier, len(c.doc.barriers))
	for _, name := range c.doc.barriers {
		bars[name] = sim.NewBarrier(env.E, ranks)
	}
	for rank := 0; rank < ranks; rank++ {
		rank := rank
		cl := env.Client(c.doc.App, rank)
		st := &rankState{
			c:       c,
			env:     env,
			params:  params,
			vars:    map[string]int64{},
			bars:    bars,
			rank:    rank,
			node:    env.Job.NodeOf(rank),
			local:   env.Job.LocalRank(rank),
			leader:  env.Job.IsNodeLeader(rank),
			clients: map[string]*iface.Client{c.doc.App: cl},
		}
		st.look = st.lookup
		env.E.Spawn(fmt.Sprintf("%s-rank%d", c.doc.Name, rank), func(p *sim.Proc) {
			defer catch(env.E)
			st.p = p
			st.exec(c.doc.run, c.doc.App)
		})
	}
}

// rankState is one rank's interpreter state.
type rankState struct {
	c      *compiled
	env    *workloads.Env
	p      *sim.Proc
	params map[string]int64
	vars   map[string]int64
	bars   map[string]*sim.Barrier

	rank, node, local int
	leader            bool

	clients map[string]*iface.Client
	cur     *handle

	// look is lookup bound once: a method value built per expression is an
	// allocation per expression.
	look func(string) (int64, bool)
}

// handle is the currently open file, across whichever interface opened it.
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
	if cl, ok := st.clients[app]; ok {
		return cl
	}
	cl := st.env.Client(app, st.rank)
	st.clients[app] = cl
	return cl
}

func (st *rankState) path(t *pathT) string {
	return st.c.renderPath(t, st.look, st.env.Spec.Optimized)
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
			st.vars[o.letName] = st.eval(o.letExpr)
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
			if st.cur == nil {
				st.fail("close without an open file")
			}
			switch st.cur.layer {
			case "posix":
				st.check(st.cur.posix.Close(st.p))
			case "stdio":
				st.check(st.cur.stdio.Close(st.p))
			case "mpiio":
				st.check(st.cur.mpi.Close(st.p))
			case "hdf5":
				st.check(st.cur.h5.Close(st.p))
			}
			st.cur = nil
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
	if st.cur != nil {
		st.fail("open %s while %s is open", o.path.src, st.cur.path)
	}
	cl := st.client(app)
	path := st.path(o.path)
	h := &handle{layer: o.layer, path: path}
	var err error
	switch o.layer {
	case "posix":
		h.posix, err = cl.PosixOpen(st.p, path, o.create)
	case "stdio":
		h.stdio, err = cl.StdioOpen(st.p, path, o.mode)
	case "mpiio":
		h.mpi, err = cl.MPIOpen(st.p, path, o.create, int(st.eval(o.comm)))
	case "hdf5":
		h.h5, err = cl.H5Open(st.p, path, o.create, int(st.eval(o.comm)))
	}
	st.check(err)
	st.cur = h
}

// readWrite runs a sequential read/write of total bytes in granule-sized
// operations (one operation when granule is omitted), clamping the tail
// when clamp is set.
func (st *rankState) readWrite(o *op) {
	if st.cur == nil {
		st.fail("read/write without an open file")
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
		var err error
		switch st.cur.layer {
		case "posix":
			if o.kind == opRead {
				err = st.cur.posix.Read(st.p, n)
			} else {
				err = st.cur.posix.Write(st.p, n)
			}
		case "stdio":
			if o.kind == opRead {
				err = st.cur.stdio.Read(st.p, n)
			} else {
				err = st.cur.stdio.Write(st.p, n)
			}
		case "mpiio":
			if o.kind == opRead {
				err = st.cur.mpi.ReadAt(st.p, off, n)
			} else {
				err = st.cur.mpi.WriteAt(st.p, off, n)
			}
		case "hdf5":
			if o.kind == opRead {
				err = st.cur.h5.DatasetRead(st.p, off, n)
			} else {
				err = st.cur.h5.DatasetWrite(st.p, off, n)
			}
		}
		st.check(err)
	}
}

// pread runs positioned reads at base + off*stride for off in granule
// steps below total — strided sparse scans when stride > 1. With size, the
// file's length, reads stop there and the last one is clamped to it.
func (st *rankState) pread(o *op) {
	if st.cur == nil {
		st.fail("pread without an open file")
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
		var err error
		switch st.cur.layer {
		case "posix":
			err = st.cur.posix.ReadAt(st.p, pos, n, false)
		case "mpiio":
			err = st.cur.mpi.ReadAt(st.p, pos, n)
		default:
			st.fail("pread on %s file", st.cur.layer)
		}
		st.check(err)
	}
}

// pwrite runs positioned writes at base+off, optionally preceded by a
// seek per operation (CM1's append pattern), where base is the at
// expression or — with append — the file's current size.
func (st *rankState) pwrite(o *op) {
	if st.cur == nil {
		st.fail("pwrite without an open file")
	}
	if st.cur.layer != "posix" {
		st.fail("pwrite on %s file", st.cur.layer)
	}
	var base int64
	if o.appendBase {
		base, _ = st.env.Sys.FileSize(0, st.cur.path)
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
			st.check(st.cur.posix.Seek(st.p, base+off))
		}
		st.check(st.cur.posix.WriteAt(st.p, base+off, n, false))
	}
}

// readWrap reads total bytes in granule steps from a stdio file of the
// given size, seeking back to the start whenever the next operation would
// run past the end — Montage's overlap re-read pattern.
func (st *rankState) readWrap(o *op) {
	if st.cur == nil {
		st.fail("readwrap without an open file")
	}
	if st.cur.layer != "stdio" {
		st.fail("readwrap on %s file", st.cur.layer)
	}
	total := st.eval(o.total)
	granule := st.eval(o.granule)
	size := st.eval(o.size)
	if granule <= 0 {
		st.fail("granule %d not positive", granule)
	}
	f := st.cur.stdio
	for read := int64(0); read < total; read += granule {
		if f.Pos()+granule > size {
			st.check(f.Seek(st.p, 0))
		}
		st.check(f.Read(st.p, granule))
	}
}
