// Package sim implements a deterministic discrete-event simulation kernel.
//
// The kernel drives every substrate in this repository: simulated MPI ranks,
// storage servers, burst buffers, and workflow schedulers are all expressed
// as processes and resources on a single virtual clock. Processes are
// ordinary Go functions executed on goroutines, but the engine runs exactly
// one process at a time and orders all events by (virtual time, insertion
// sequence), so simulations are fully deterministic and reproducible across
// runs regardless of goroutine scheduling.
//
// The design follows the classic process-interaction style of simulation
// kernels: a process calls blocking primitives (Sleep, Resource.Use,
// Barrier.Wait, Semaphore.Acquire) that park the goroutine and return
// control to the engine, which advances the clock to the next event.
package sim

import (
	"fmt"
	"runtime"
	"time"

	"vani/internal/heapx"
)

// Engine is a discrete-event simulator. The zero value is not usable; create
// one with NewEngine.
type Engine struct {
	now     time.Duration
	seq     int64
	queue   heapx.Heap[event]
	yield   chan struct{}
	running bool
	live    int // processes spawned and not yet finished
	procs   []*Proc
	err     error
	stopped bool // Run gave up; parked processes exit as they wake

	// Stats counters, useful for tests and for the kernel ablation benches.
	EventsExecuted int64
	ProcsSpawned   int64
}

// NewEngine returns an empty simulation with the clock at zero.
func NewEngine() *Engine {
	return &Engine{
		yield: make(chan struct{}),
		// Events order by (virtual time, insertion sequence) — a strict
		// total order, so pop order is deterministic. The queue is a
		// non-boxing generic heap: scheduling an event no longer allocates
		// the interface box container/heap required.
		queue: heapx.New(func(a, b event) bool {
			if a.t != b.t {
				return a.t < b.t
			}
			return a.seq < b.seq
		}),
	}
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

type event struct {
	t   time.Duration
	seq int64
	p   *Proc  // if non-nil, resume this process
	fn  func() // otherwise run this callback
}

func (e *Engine) schedule(t time.Duration, p *Proc, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling into the past: %v < %v", t, e.now))
	}
	e.seq++
	e.queue.Push(event{t: t, seq: e.seq, p: p, fn: fn})
}

// At schedules fn to run at absolute virtual time t. It may be called before
// Run or from inside a running process or callback.
func (e *Engine) At(t time.Duration, fn func()) { e.schedule(t, nil, fn) }

// After schedules fn to run d after the current virtual time.
func (e *Engine) After(d time.Duration, fn func()) { e.schedule(e.now+d, nil, fn) }

// Proc is a simulated process. All methods must be called from the process's
// own goroutine (i.e., from within the function passed to Spawn).
type Proc struct {
	e    *Engine
	id   int
	name string
	wake chan struct{}
	done bool

	// Slept accumulates the total virtual time this process spent blocked in
	// kernel primitives. Useful for utilization accounting.
	Slept time.Duration
}

// ID returns the process identifier, unique within its engine and assigned
// in Spawn order starting from zero.
func (p *Proc) ID() int { return p.id }

// Name returns the name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine this process runs on.
func (p *Proc) Engine() *Engine { return p.e }

// Now returns the current virtual time.
func (p *Proc) Now() time.Duration { return p.e.now }

// Spawn creates a process executing fn, starting at the current virtual
// time. The process runs when the engine reaches its first event; Spawn may
// be called before Run or from a running process.
func (e *Engine) Spawn(name string, fn func(*Proc)) *Proc {
	return e.SpawnAt(e.now, name, fn)
}

// SpawnAt is Spawn with an explicit start time (absolute virtual time, not a
// delay). It panics if t is in the past.
func (e *Engine) SpawnAt(t time.Duration, name string, fn func(*Proc)) *Proc {
	p := &Proc{e: e, id: len(e.procs), name: name, wake: make(chan struct{})}
	e.procs = append(e.procs, p)
	e.live++
	e.ProcsSpawned++
	go func() {
		// Deferred, so a process a stopped engine unwinds (park calls
		// Goexit) hands control back like one that returned.
		defer func() {
			p.done = true
			e.live--
			e.yield <- struct{}{}
		}()
		<-p.wake // wait for first resume
		if !e.stopped {
			fn(p)
		}
	}()
	e.schedule(t, p, nil)
	return p
}

// park blocks the calling process goroutine and returns control to the
// engine. The process must already have arranged for a future wake-up
// (a scheduled resume event or membership in a wait list).
func (p *Proc) park() {
	p.e.yield <- struct{}{}
	<-p.wake
	if p.e.stopped {
		runtime.Goexit()
	}
}

// resume hands control to process p and blocks the engine loop until p
// parks again or finishes.
func (e *Engine) resume(p *Proc) {
	p.wake <- struct{}{}
	<-e.yield
}

// wakeAt schedules p to be resumed at absolute time t.
func (e *Engine) wakeAt(t time.Duration, p *Proc) { e.schedule(t, p, nil) }

// Sleep suspends the process for virtual duration d. Negative durations are
// treated as zero (the process still yields, letting same-time events run in
// FIFO order).
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	p.Slept += d
	p.e.wakeAt(p.e.now+d, p)
	p.park()
}

// SleepUntil suspends the process until absolute virtual time t. If t is in
// the past it behaves like Sleep(0).
func (p *Proc) SleepUntil(t time.Duration) {
	if t < p.e.now {
		t = p.e.now
	}
	p.Slept += t - p.e.now
	p.e.wakeAt(t, p)
	p.park()
}

// Yield lets all other events scheduled for the current instant run before
// the process continues.
func (p *Proc) Yield() { p.Sleep(0) }

// Park blocks the process until another party wakes it with WakeNow. It is
// the building block for synchronization primitives implemented outside
// this package; a parked process with no scheduled wake-up deadlocks the
// simulation (Run fails).
func (p *Proc) Park() { p.park() }

// WakeNow schedules a parked process to resume at the current virtual time.
func (e *Engine) WakeNow(p *Proc) { e.wakeAt(e.now, p) }

// Run executes events until the queue is empty or a process calls Fail, and
// returns the virtual time reached. Processes still live when the queue
// drains are a deadlock (some process is parked with no pending wake-up),
// which Run records as the failure. After a failure no process is left
// behind: every parked goroutine is woken to exit, running its deferred
// calls (which must not block in kernel primitives). Check Err afterwards.
func (e *Engine) Run() time.Duration {
	if e.running {
		panic("sim: Run called re-entrantly")
	}
	e.running = true
	defer func() { e.running = false }()
	for e.queue.Len() > 0 && e.err == nil {
		ev := e.queue.Pop()
		e.now = ev.t
		e.EventsExecuted++
		if ev.p != nil {
			if ev.p.done {
				continue // stale wake-up for a finished process
			}
			e.resume(ev.p)
		} else {
			ev.fn()
		}
	}
	if e.err == nil && e.live > 0 {
		e.err = fmt.Errorf("sim: deadlock: %d process(es) parked with empty event queue", e.live)
	}
	if e.err != nil {
		e.stopped = true
		for _, p := range e.procs {
			if !p.done {
				e.resume(p)
			}
		}
	}
	return e.now
}

// RunUntil executes events with timestamps <= deadline and returns the
// virtual time reached. Unlike Run it tolerates parked processes remaining.
func (e *Engine) RunUntil(deadline time.Duration) time.Duration {
	if e.running {
		panic("sim: RunUntil called re-entrantly")
	}
	e.running = true
	defer func() { e.running = false }()
	for e.queue.Len() > 0 && e.queue.Peek().t <= deadline {
		ev := e.queue.Pop()
		e.now = ev.t
		e.EventsExecuted++
		if ev.p != nil {
			if ev.p.done {
				continue
			}
			e.resume(ev.p)
		} else {
			ev.fn()
		}
	}
	if e.now < deadline {
		e.now = deadline
	}
	return e.now
}

// Fail records a simulation-level error. The first error wins; later calls
// are no-ops. Processes call it instead of panicking when a modeled
// operation fails, then return; Run stops at the next event and the driver
// checks Err after it. The engine runs one process at a time, so no locking
// is needed.
func (e *Engine) Fail(err error) {
	if e.err == nil && err != nil {
		e.err = err
	}
}

// Err returns the first error recorded by Fail or by Run, or nil.
func (e *Engine) Err() error { return e.err }

// Pending reports the number of queued events.
func (e *Engine) Pending() int { return e.queue.Len() }

// Live reports the number of spawned processes that have not finished.
func (e *Engine) Live() int { return e.live }
