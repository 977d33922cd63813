// Package workflow implements a DAG workflow engine with a bounded worker
// pool, standing in for the Pegasus workflow manager and
// pegasus-mpi-cluster that drive the paper's Montage workflows.
//
// Tasks declare dependencies by name; a task becomes ready when all its
// dependencies complete, then waits for a worker slot (pegasus-mpi-cluster
// schedules kernels over a fixed pool of MPI processes). Ready tasks are
// dispatched FIFO, so execution is deterministic under the simulation
// kernel.
package workflow

import (
	"fmt"
	"time"

	"vani/internal/sim"
)

// Task is one node of the DAG.
type Task struct {
	Name string
	App  string   // executable name (mProject, mDiff, ...)
	Deps []string // names of tasks that must complete first

	// Run is the task body. It receives the slot index the scheduler
	// assigned, which callers map to a node.
	Run func(p *sim.Proc, slot int)

	// Filled in by the scheduler.
	Started  time.Duration
	Finished time.Duration
	Slot     int
}

// DAG is a set of named tasks with dependencies.
type DAG struct {
	tasks  []*Task
	byName map[string]*Task
}

// NewDAG returns an empty DAG.
func NewDAG() *DAG { return &DAG{byName: make(map[string]*Task)} }

// Add appends a task. Names must be unique.
func (d *DAG) Add(t *Task) error {
	if t.Name == "" {
		return fmt.Errorf("workflow: task with empty name")
	}
	if _, dup := d.byName[t.Name]; dup {
		return fmt.Errorf("workflow: duplicate task %q", t.Name)
	}
	if t.Run == nil {
		return fmt.Errorf("workflow: task %q has no body", t.Name)
	}
	d.tasks = append(d.tasks, t)
	d.byName[t.Name] = t
	return nil
}

// MustAdd is Add that panics on error, for statically built workflows.
func (d *DAG) MustAdd(t *Task) {
	if err := d.Add(t); err != nil {
		panic(err)
	}
}

// Task looks up a task by name.
func (d *DAG) Task(name string) *Task { return d.byName[name] }

// Validate checks that all dependencies exist and the graph is acyclic.
func (d *DAG) Validate() error {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[string]int, len(d.tasks))
	var visit func(t *Task) error
	visit = func(t *Task) error {
		switch color[t.Name] {
		case gray:
			return fmt.Errorf("workflow: cycle through %q", t.Name)
		case black:
			return nil
		}
		color[t.Name] = gray
		for _, dep := range t.Deps {
			dt, ok := d.byName[dep]
			if !ok {
				return fmt.Errorf("workflow: task %q depends on unknown %q", t.Name, dep)
			}
			if err := visit(dt); err != nil {
				return err
			}
		}
		color[t.Name] = black
		return nil
	}
	for _, t := range d.tasks {
		if err := visit(t); err != nil {
			return err
		}
	}
	return nil
}

// SlotPool is a FIFO pool of numbered worker slots.
type SlotPool struct {
	e    *sim.Engine
	free []int
	q    []slotWaiter
}

type slotWaiter struct {
	p    *sim.Proc
	slot *int
}

// NewSlotPool creates a pool with slots 0..n-1, handed out lowest-free
// first.
func NewSlotPool(e *sim.Engine, n int) *SlotPool {
	if n <= 0 {
		panic("workflow: slot pool must have at least one slot")
	}
	sp := &SlotPool{e: e, free: make([]int, n)}
	for i := range sp.free {
		sp.free[i] = i
	}
	return sp
}

// Acquire blocks until a slot is free and returns its index.
func (sp *SlotPool) Acquire(p *sim.Proc) int {
	if len(sp.free) > 0 {
		s := sp.free[0]
		sp.free = sp.free[1:]
		return s
	}
	var slot int
	sp.q = append(sp.q, slotWaiter{p: p, slot: &slot})
	p.Park()
	return slot
}

// Release returns a slot to the pool, handing it to the longest waiter if
// any.
func (sp *SlotPool) Release(slot int) {
	if len(sp.q) > 0 {
		w := sp.q[0]
		sp.q = sp.q[1:]
		*w.slot = slot
		sp.e.WakeNow(w.p)
		return
	}
	sp.free = append(sp.free, slot)
}

// Result reports one executed task.
type Result struct {
	Name     string
	App      string
	Slot     int
	Started  time.Duration
	Finished time.Duration
}

// Execute runs the DAG on the engine with a pool of the given number of
// worker slots, spawning the coordination processes. It returns immediately;
// results are valid after the engine runs. The returned WaitGroup completes
// when every task has finished, letting callers sequence follow-on work.
func Execute(e *sim.Engine, d *DAG, slots int) (*sim.WaitGroup, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	pool := NewSlotPool(e, slots)
	gates := make(map[string]*sim.Gate, len(d.tasks))
	for _, t := range d.tasks {
		gates[t.Name] = sim.NewGate(e)
	}
	wg := sim.NewWaitGroup(e)
	wg.Add(len(d.tasks))
	for _, t := range d.tasks {
		t := t
		e.Spawn("task:"+t.Name, func(p *sim.Proc) {
			for _, dep := range t.Deps {
				gates[dep].Wait(p)
			}
			slot := pool.Acquire(p)
			t.Slot = slot
			t.Started = p.Now()
			t.Run(p, slot)
			t.Finished = p.Now()
			pool.Release(slot)
			gates[t.Name].Open()
			wg.Done()
		})
	}
	return wg, nil
}
