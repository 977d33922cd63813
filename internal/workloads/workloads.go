// Package workloads holds what a workload run takes and gives: the Spec it
// runs under (job shape, scale, seed, tracing, machine, storage and
// interface models), the Lassen DefaultSpec, and the Result — trace,
// runtime and kernel counts. Every workload is a document of internal/spec,
// which compiles it, runs it under a Spec and keeps the catalog of the
// seven exemplars (CM1, HACC-I/O, CosmoFlow, JAG ICF, Montage-MPI,
// Montage-Pegasus and the IOR probe of Table IX) by name.
//
// A Scale knob shrinks a document's scaled volumes and counts
// proportionally so tests and benchmarks stay fast; Scale = 1 is the
// paper's full configuration.
package workloads

import (
	"time"

	"vani/internal/cluster"
	"vani/internal/iface"
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
	// hand-offs of control between processes among them, and wake times
	// taken without touching the queue. All three repeat exactly.
	KernelEvents, KernelSwitches, KernelInPlaceWakes int64
}
