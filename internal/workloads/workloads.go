// Package workloads holds the harness every exemplar workload runs in —
// Spec, Env, Run — and the scaling rules. The seven exemplars (CM1,
// HACC-I/O, CosmoFlow, JAG ICF, Montage-MPI, Montage-Pegasus and the IOR
// probe of Table IX) are golden specs (internal/spec), which also keeps the
// catalog of all seven by name.
//
// A workload scripts the I/O pattern the paper documents for the real
// application — file counts and sizes, transfer granularities, interfaces,
// rank roles, phase structure, and compute/IO overlap — against the
// simulated storage stack, producing the traces the analyzer characterizes.
// A Scale knob shrinks volumes and counts proportionally so tests and
// benchmarks stay fast; Scale = 1 is the paper's full configuration.
package workloads

import (
	"fmt"
	"time"

	"vani/internal/cluster"
	"vani/internal/iface"
	"vani/internal/sim"
	"vani/internal/storage"
	"vani/internal/trace"
)

// Spec configures one workload run.
type Spec struct {
	Nodes        int
	RanksPerNode int
	TimeLimit    time.Duration
	Scale        float64 // 1.0 = paper scale; smaller shrinks proportionally
	Seed         int64

	// Optimized applies the paper's case-study reconfiguration for
	// workloads that have one (CosmoFlow: preload dataset to /dev/shm;
	// Montage: keep intermediates in /dev/shm). Other workloads ignore it.
	Optimized bool

	// Tracing. TraceOverhead is the virtual time charged per recorded
	// event; the paper reports ~8% runtime overhead from Recorder.
	TraceEnabled  bool
	TraceOverhead time.Duration

	Machine cluster.Machine
	Storage storage.Config
	Iface   iface.Options
}

// DefaultSpec returns the common 32-node Lassen configuration.
func DefaultSpec() Spec {
	return Spec{
		Nodes:        32,
		RanksPerNode: 40,
		TimeLimit:    2 * time.Hour,
		Scale:        1.0,
		Seed:         1,
		TraceEnabled: true,
		Machine:      cluster.Lassen(),
		Storage:      storage.Lassen(),
		Iface:        iface.Defaults(),
	}
}

// Workload is one runnable workload: a compiled spec, or a custom Go
// implementation.
type Workload interface {
	// Name returns the registry name ("cm1", "hacc", ...).
	Name() string
	// AppName returns the primary executable name for Table I.
	AppName() string
	// DefaultSpec returns the paper's configuration for this workload.
	DefaultSpec() Spec
	// Setup materializes pre-existing input datasets.
	Setup(env *Env)
	// Spawn launches the workload's processes on the environment's engine.
	Spawn(env *Env)
}

// Env is the assembled simulation environment a workload runs in.
type Env struct {
	E    *sim.Engine
	Job  cluster.Job
	Sys  *storage.System
	Tr   *trace.Tracer
	RNG  *sim.RNG
	Spec Spec
}

// Client builds the per-rank interface client for an application name.
func (env *Env) Client(app string, rank int) *iface.Client {
	return iface.NewClient(env.Sys, env.Tr, env.Spec.Iface, app, rank, env.Job.NodeOf(rank))
}

// Result is the outcome of one simulated run.
type Result struct {
	Trace   *trace.Trace
	Runtime time.Duration
	Sys     *storage.System
	Job     cluster.Job
	Spec    Spec
	// TraceMerge is the wall-clock time the tracer's Finish spent sorting
	// its event log into the Trace (the pipeline's first stage timing).
	TraceMerge time.Duration
	// Kernel counts of the run (sim.Engine's counters): events executed,
	// hand-offs of control between processes among them, and
	// Sleep/SleepUntil calls served without touching the queue. All three
	// repeat exactly.
	KernelEvents, KernelSwitches, KernelInPlaceWakes int64
}

// Run assembles the environment, executes the workload to completion, and
// returns the trace and runtime.
func Run(w Workload, spec Spec) (*Result, error) {
	if spec.Scale <= 0 || spec.Scale > 1 {
		return nil, fmt.Errorf("workloads: scale %v out of (0, 1]", spec.Scale)
	}
	job, err := cluster.NewJob(w.Name()+"-job", spec.Machine, spec.Nodes, spec.RanksPerNode, spec.TimeLimit)
	if err != nil {
		return nil, err
	}
	e := sim.NewEngine()
	rng := sim.NewRNG(spec.Seed)
	sys := storage.New(e, spec.Storage, spec.Nodes, rng.Fork())
	tr := trace.NewTracer()
	tr.SetEnabled(spec.TraceEnabled)
	tr.SetOverhead(spec.TraceOverhead)
	tr.SetMeta(trace.Meta{
		Workload:     w.Name(),
		JobID:        job.ID,
		Nodes:        spec.Nodes,
		CoresPerNode: spec.Machine.CoresPerNode,
		GPUsPerNode:  spec.Machine.GPUsPerNode,
		MemPerNodeGB: spec.Machine.MemPerNodeGB,
		Ranks:        job.Ranks(),
		NodeLocalDir: spec.Machine.NodeLocalDir,
		SharedBBDir:  spec.Machine.SharedBBDir,
		PFSDir:       spec.Machine.PFSDir,
		JobTimeLimit: spec.TimeLimit,
	})
	env := &Env{E: e, Job: job, Sys: sys, Tr: tr, RNG: rng, Spec: spec}
	// A workload that cannot go on calls e.Fail: Run then stops at once and
	// takes every spawned rank down with it.
	w.Setup(env)
	if e.Err() == nil {
		w.Spawn(env)
	}
	runtime := e.Run()
	if err := e.Err(); err != nil {
		return nil, fmt.Errorf("workloads: %s: %w", w.Name(), err)
	}
	merged := tr.Finish()
	return &Result{
		Trace:      merged,
		Runtime:    runtime,
		Sys:        sys,
		Job:        job,
		Spec:       spec,
		TraceMerge: tr.MergeTime(),

		KernelEvents:       e.EventsExecuted,
		KernelSwitches:     e.Switches,
		KernelInPlaceWakes: e.InPlaceWakes,
	}, nil
}

// ScaleN scales an integer count, keeping at least min: the rule of a
// compiled spec's scaled count params.
func ScaleN(n int, s float64, min int) int {
	v := int(float64(n) * s)
	if v < min {
		return min
	}
	return v
}

// ScaleBytes scales a byte volume, keeping at least one unit.
func ScaleBytes(b int64, s float64, unit int64) int64 {
	v := int64(float64(b) * s)
	if v < unit {
		return unit
	}
	return v
}
