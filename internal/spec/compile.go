package spec

import (
	"context"
	"fmt"

	"vani/internal/cluster"
	"vani/internal/iface"
	"vani/internal/sim"
	"vani/internal/storage"
	"vani/internal/trace"
	"vani/internal/workloads"
)

// Workload is a compiled document, runnable on the simulator: every run
// executes its program — each rank (or task) a step process running its
// instruction list over its own frame. It is a value; copies run the same
// document.
type Workload struct {
	doc  *Doc
	prog *program
}

// Compile makes the validated doc a Workload: it gives every param, let,
// loop variable and builtin a frame slot, folds constants and flattens the
// run program and the stage bodies into instruction lists. A param the doc
// Sets afterwards still reaches the workload's runs: params are evaluated
// when a run starts.
func (d *Doc) Compile() Workload { return Workload{doc: d, prog: d.compile()} }

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
// iterations, no rank is left running, and the error wraps ctx.Err().
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
	v := &env{ctx: ctx, done: ctx.Done(), doc: w.doc, prog: w.prog, e: e, job: job, sys: sys, tr: tr, rng: rng, spec: sp}
	if err := v.start(); err != nil {
		return nil, fmt.Errorf("workloads: %s: %w", w.Name(), err)
	}
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
	prog *program
	e    *sim.Engine
	job  cluster.Job
	sys  *storage.System
	tr   *trace.Tracer
	rng  *sim.RNG
	spec workloads.Spec
	bars []*sim.Barrier // by Doc.barriers index

	// base is the frame every rank, task and setup step starts from: the
	// topology builtins and the params, evaluated.
	base []int64
}

// start runs everything before the engine: it evaluates the params, stages
// the setup and spawns the ranks (or tasks). A failure is the run's, and
// comes before any rank is spawned.
func (v *env) start() error {
	if err := v.params(); err != nil {
		return err
	}
	if err := v.setup(); err != nil {
		return err
	}
	if v.doc.stages != nil {
		return v.spawnTasks()
	}
	v.spawnRanks()
	return nil
}

// newFrame is a frame holding base's values, nothing else set.
func (v *env) newFrame() frame {
	f := frame{v: make([]int64, v.prog.lay.n), set: make([]bool, v.prog.lay.n)}
	copy(f.v, v.base)
	return f
}

// params evaluates the doc's params under the run's spec into the base
// frame: value params first — a scaled one is its value times Scale,
// rounded down, but at least one unit (1 for a count) — then expr params
// over them.
func (v *env) params() error {
	d := v.doc
	v.base = make([]int64, nFixed+len(d.ordered))
	v.base[sRanks] = int64(v.job.Ranks())
	v.base[sRPN] = int64(v.spec.RanksPerNode)
	v.base[sNodes] = int64(v.spec.Nodes)
	v.base[sOptimized] = b2i(v.spec.Optimized)
	f := frame{v: v.base}
	for i, p := range d.ordered {
		n := p.value
		switch {
		case p.kind == paramExpr:
			var err error
			if n, err = v.prog.params[i].eval(&f); err != nil {
				return fmt.Errorf("spec %s: param %s: %v", d.Name, p.name, err)
			}
		case p.scaled:
			n = max(int64(float64(n)*v.spec.Scale), p.unit)
		}
		v.base[nFixed+i] = n
	}
	return nil
}

// setup materializes staged datasets and attaches value-distribution
// samples, in document order.
func (v *env) setup() error {
	paths := renderer{name: v.doc.Name, spec: &v.spec}
	f := v.newFrame()
	for i := range v.prog.setup {
		st := &v.prog.setup[i]
		if st.st.sample != "" {
			v.setupSample(st.st)
			continue
		}
		if err := v.setupFiles(st, &f, &paths); err != nil {
			return err
		}
	}
	return nil
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

// canceled is the run's context's error once it is done. The engine polls
// the context between events; staging, which runs before the engine, and a
// rank's loops, which may run long without an event, call this themselves.
func (v *env) canceled() error {
	if v.done == nil {
		return nil
	}
	select {
	case <-v.done:
		return v.ctx.Err()
	default:
		return nil
	}
}

// pollIters is how many loop iterations a rank runs between two looks at
// the run's context.
const pollIters = 1024

// setupFiles stages one files step, looking at the run's context before
// every file. Its expressions see the params, the topology builtins, the
// file index i and the node.
func (v *env) setupFiles(st *csetup, f *frame, paths *renderer) error {
	eval := func(x *cx, def int64) (int64, error) {
		if x == nil {
			return def, nil
		}
		n, err := x.eval(f)
		if err != nil {
			return 0, fmt.Errorf("spec %s: setup: %v", v.doc.Name, err)
		}
		return n, nil
	}
	i := v.prog.iSlot
	f.v[sNode], f.set[sNode], f.set[i] = 0, true, true
	stage := func() error {
		count, err := eval(st.count, 1)
		if err != nil {
			return err
		}
		for f.v[i] = 0; f.v[i] < count; f.v[i]++ {
			if err := v.canceled(); err != nil {
				return err
			}
			path, err := paths.render(st.path, f)
			if err != nil {
				return err
			}
			size, err := eval(st.size, 0)
			if err != nil {
				return err
			}
			target := 0
			if st.st.onNode {
				target = int(f.v[sNode])
			}
			v.sys.Materialize(target, path, size)
		}
		return nil
	}
	if !st.st.perNode {
		return stage()
	}
	for f.v[sNode] = 0; f.v[sNode] < int64(v.spec.Nodes); f.v[sNode]++ {
		if err := stage(); err != nil {
			return err
		}
	}
	return nil
}

// spawnRanks starts one step process per rank running the run program.
func (v *env) spawnRanks() {
	ranks := v.job.Ranks()
	v.bars = make([]*sim.Barrier, len(v.doc.barriers))
	for i := range v.bars {
		v.bars[i] = sim.NewBarrier(v.e, ranks)
	}
	for rank := 0; rank < ranks; rank++ {
		r := v.newRank(v.prog.run, rank)
		r.place(0, v.job.NodeOf(rank), v.job.LocalRank(rank))
		r.p = v.e.SpawnStep(fmt.Sprintf("%s-rank%d", v.doc.Name, rank), r.step)
	}
}

// newRank is the state of one rank or task running prog, not yet placed.
func (v *env) newRank(prog []inst, rank int) *rankState {
	r := &rankState{
		env:     v,
		prog:    prog,
		fr:      v.newFrame(),
		rank:    rank,
		clients: make([]*iface.Client, len(v.prog.apps)),
		paths:   renderer{name: v.doc.Name, spec: &v.spec},
	}
	r.fr.v[sRank], r.fr.set[sRank] = int64(rank), true
	if v.doc.usesRand {
		r.rng = v.rng.Fork()
	}
	return r
}
