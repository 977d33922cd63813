// Package sim implements a deterministic discrete-event simulation kernel.
//
// The kernel drives every substrate in this repository: simulated MPI ranks,
// storage servers, burst buffers, and workflow schedulers are all expressed
// as processes and resources on a single virtual clock. Processes are
// ordinary Go functions, each run as a coroutine (iter.Pull), but the engine
// runs exactly one process at a time and orders all events by (virtual time,
// insertion sequence), so simulations are fully deterministic and
// reproducible across runs regardless of goroutine scheduling.
//
// The design follows the classic process-interaction style of simulation
// kernels: a process calls blocking primitives (Sleep, Resource.Use,
// Barrier.Wait, Semaphore.Acquire) that park it until the clock reaches its
// wake-up.
//
// There is no engine goroutine and no central loop. Whoever holds control
// runs the event loop: a process that parks (or finishes) pops the next
// event itself, runs At/After callbacks inline, and on reaching another
// process's wake-up names that process and yields. The goroutine inside
// Run/RunUntil is only a driver: it resumes whichever process it was handed
// and nothing else, so a simulated blocking call costs one coroutine switch
// out and one in — no trip through the Go scheduler — and none when the next
// event is the caller's own wake-up. The driver gets control back for good
// when the queue is empty, an error is recorded or the time bound is
// reached.
//
// A stopped engine (a Fail, a deadlock, a panic) unwinds every parked
// process by resuming it into a panic with an unexported value, so the
// process's deferred calls run and its coroutine ends. A deferred recover
// that swallows that value only ends the process sooner. A process that
// panics with anything else stops the run: Run records the panic as the
// run's error, unwinds every other process, and panics again with the
// original value on its caller's goroutine.
//
// Ownership rule: engine state (clock, queue, counters, every Resource,
// Barrier and wait list hanging off it) changes hands only by coroutine
// switch — the driver resuming a process, a process yielding back — and the
// race detector sees each switch as a happens-before edge, so every access
// is ordered and nothing needs a lock. A process that has yielded touches no
// engine state until it is resumed. At/After callbacks run on whichever
// process or driver holds control when their time comes: they must not
// block, and must not assume they run on the goroutine that called Run.
package sim

import (
	"context"
	"fmt"
	"iter"
	"math"
	"time"
)

// Engine is a discrete-event simulator. The zero value is not usable; create
// one with NewEngine.
type Engine struct {
	now     time.Duration
	seq     int64
	queue   []event       // binary min-heap by (t, seq); see push and pop
	bound   time.Duration // no event later than this runs: RunUntil's deadline
	next    *Proc         // whom a yielding or finishing process hands over to
	running bool
	live    int // processes spawned and not yet finished
	procs   []*Proc
	err     error
	stopped bool // Run gave up; parked processes unwind as they are resumed

	// ctx stops RunContext; done is its Done channel, nil for a context that
	// is never done (Run's), so the poll costs one nil check per event.
	ctx  context.Context
	done <-chan struct{}

	// Stats counters, useful for tests and for the kernel ablation benches.
	// Every one repeats exactly from run to run.
	EventsExecuted int64
	ProcsSpawned   int64
	// Switches counts hand-offs of control from one process (or the driver
	// inside Run) to another; InPlaceWakes counts the Sleep/SleepUntil calls
	// that returned without touching the queue (each is also one of
	// EventsExecuted).
	Switches     int64
	InPlaceWakes int64
}

// NewEngine returns an empty simulation with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

type event struct {
	t   time.Duration
	seq int64
	p   *Proc  // if non-nil, resume this process
	fn  func() // otherwise run this callback
}

// before is the queue's order: (virtual time, insertion sequence). No two
// events share a seq, so the order is strict and total and the pop sequence
// is a property of the pushed set, not of how the heap sifts.
func (a *event) before(b *event) bool {
	return a.t < b.t || (a.t == b.t && a.seq < b.seq)
}

func (e *Engine) schedule(t time.Duration, p *Proc, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling into the past: %v < %v", t, e.now))
	}
	e.seq++
	e.push(event{t: t, seq: e.seq, p: p, fn: fn})
}

// push and pop are the event queue: a binary heap kept here, not behind a
// generic, because a func- or method-valued compare does not inline and the
// queue is the kernel's hottest loop.
func (e *Engine) push(ev event) {
	q := append(e.queue, ev)
	j := len(q) - 1
	for j > 0 {
		i := (j - 1) / 2 // parent
		if !ev.before(&q[i]) {
			break
		}
		q[j] = q[i]
		j = i
	}
	q[j] = ev
	e.queue = q
}

func (e *Engine) pop() event {
	q := e.queue
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = event{} // release references for GC
	q = q[:n]
	e.queue = q
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q[r].before(&q[c]) {
			c = r
		}
		if !q[c].before(&last) {
			break
		}
		q[i] = q[c]
		i = c
	}
	q[i] = last
	return top
}

// At schedules fn to run at absolute virtual time t. It may be called before
// Run or from inside a running process or callback. fn runs on whichever
// process or driver holds control at t and must not block.
func (e *Engine) At(t time.Duration, fn func()) { e.schedule(t, nil, fn) }

// After schedules fn to run d after the current virtual time.
func (e *Engine) After(d time.Duration, fn func()) { e.schedule(e.now+d, nil, fn) }

// Proc is a simulated process. All methods must be called from the process
// itself (i.e., from within the function passed to Spawn).
type Proc struct {
	e      *Engine
	id     int
	name   string
	resume func() (struct{}, bool) // switch into the process until it yields or ends
	yield  func(struct{}) bool     // switch out of it, back to the driver
	done   bool

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
	p := &Proc{e: e, id: len(e.procs), name: name}
	e.procs = append(e.procs, p)
	e.live++
	e.ProcsSpawned++
	p.resume, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer p.exit()
		if !e.stopped {
			fn(p)
		}
	})
	e.schedule(t, p, nil)
	return p
}

// unwinding is what park panics with once the engine has stopped; exit
// recovers it. No other code can construct it, so a process's own recover
// cannot mistake it for a value it threw.
type unwinding struct{}

// exit ends the process, deferred around its function: it runs the event loop
// on the way out and names the process to hand over to, as park does. A
// process unwound by a stopped engine exits the same way. Any other panic
// goes on to the driver, which stops the run.
func (p *Proc) exit() {
	r := recover()
	e := p.e
	p.done = true
	e.live--
	if _, ok := r.(unwinding); r != nil && !ok {
		panic(r)
	}
	e.Switches++
	e.next = e.dispatch(nil)
}

// dispatch is the event loop, run by whichever process (or driver) holds
// control. It pops events in (t, seq) order, running callbacks inline, until
// one resumes a live process, and returns that process: self when the
// caller's own wake-up came first (no switch needed), another process the
// caller must hand over to, or nil when nothing more may run — the queue is
// empty, an error is recorded or the next event lies beyond the bound — and
// control stays with the driver inside Run.
func (e *Engine) dispatch(self *Proc) *Proc {
	for e.err == nil && len(e.queue) > 0 && e.queue[0].t <= e.bound {
		if e.done != nil && e.canceled() {
			break
		}
		ev := e.pop()
		e.now = ev.t
		e.EventsExecuted++
		switch {
		case ev.p == nil:
			ev.fn()
		case ev.p == self:
			return self
		case !ev.p.done: // else a stale wake-up for a finished process
			return ev.p
		}
	}
	return nil
}

// park blocks the calling process until its wake-up is the next event. The
// process must already have arranged for a future wake-up (a scheduled
// resume event or membership in a wait list). The caller runs the event
// loop itself; only if some other process comes first does it name that
// process and yield to the driver, which resumes it. On a stopped engine
// park does not return: it panics with unwinding, so the process's deferred
// calls run and exit ends it.
func (p *Proc) park() {
	e := p.e
	if !e.stopped {
		if next := e.dispatch(p); next != p {
			e.Switches++
			e.next = next
			p.yield(struct{}{})
		}
	}
	if e.stopped {
		panic(unwinding{})
	}
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
	p.SleepUntil(p.e.now + d)
}

// SleepUntil suspends the process until absolute virtual time t. If t is in
// the past it behaves like Sleep(0).
func (p *Proc) SleepUntil(t time.Duration) {
	e := p.e
	if t < e.now {
		t = e.now
	}
	p.Slept += t - e.now
	// In-place wake-up: if this process's wake-up would be the very next
	// event popped — nothing queued at or before t (an event at t itself was
	// scheduled earlier and goes first) — advance the clock and return
	// without pushing, popping or switching.
	if e.err == nil && t <= e.bound && (len(e.queue) == 0 || e.queue[0].t > t) &&
		(e.done == nil || !e.canceled()) {
		e.now = t
		e.EventsExecuted++
		e.InPlaceWakes++
		return
	}
	e.wakeAt(t, p)
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
// behind: every parked process is resumed to unwind, running its deferred
// calls (a kernel primitive called from one of them unwinds at once). Check
// Err afterwards. A panic in a process or callback is not a failure: it
// reaches Run's caller, after every other process has been unwound.
func (e *Engine) Run() time.Duration {
	e.run(math.MaxInt64)
	if e.err == nil && e.live > 0 {
		e.err = fmt.Errorf("sim: deadlock: %d process(es) parked with empty event queue", e.live)
	}
	e.unwind(nil)
	return e.now
}

// RunContext is Run stopped by ctx: every pollEvents events the engine
// checks ctx, and once it is done fails the run with ctx.Err(), which
// unwinds the processes as any failure does. A context that is never done
// costs nothing.
func (e *Engine) RunContext(ctx context.Context) time.Duration {
	e.ctx, e.done = ctx, ctx.Done()
	return e.Run()
}

// pollEvents is how many events run between two looks at RunContext's
// context.
const pollEvents = 1024

// canceled polls the run's context once every pollEvents events, failing
// the run when it is done.
func (e *Engine) canceled() bool {
	if e.EventsExecuted%pollEvents != 0 {
		return false
	}
	select {
	case <-e.done:
		e.Fail(e.ctx.Err())
		return true
	default:
		return false
	}
}

// RunUntil executes events with timestamps <= deadline and returns the
// virtual time reached: the deadline, unless a process called Fail, which
// stops it where Run would stop. Unlike Run it tolerates parked processes
// remaining.
func (e *Engine) RunUntil(deadline time.Duration) time.Duration {
	e.run(deadline)
	if e.err == nil && e.now < deadline {
		e.now = deadline
	}
	e.unwind(nil)
	return e.now
}

// run drives the event loop from the calling goroutine and returns when no
// event at or before bound is left, or an error is recorded. If a process or
// callback panics, run records the panic as the run's error and unwinds with
// it, so the panic goes on to Run's caller.
func (e *Engine) run(bound time.Duration) {
	if e.running {
		panic("sim: Run called re-entrantly")
	}
	e.running = true
	defer func() { e.running = false }()
	e.bound = bound
	if r := e.drive(nil); r != nil {
		e.Fail(fmt.Errorf("sim: panic: %v", r))
		e.unwind(r)
	}
}

// drive is the driver inside Run/RunUntil. It resumes p — when p is nil, the
// process the event loop reaches first — and then whichever process each
// yielding or finishing one hands over to, until one hands over to nobody.
// It returns the value a process, or a callback run inside one, panicked
// with.
func (e *Engine) drive(p *Proc) (panicked any) {
	defer func() { panicked = recover() }()
	if p == nil {
		p = e.dispatch(nil)
	}
	if p != nil {
		e.Switches++
	}
	for ; p != nil; p, e.next = e.next, nil {
		p.resume()
	}
	return nil
}

// unwind ends a failed run: every unfinished process is resumed in turn and
// unwinds (park panics with unwinding), handing straight back, since
// dispatch runs nothing once an error is recorded. It then panics with
// panicked, or else with the first panic a process raised while unwinding.
func (e *Engine) unwind(panicked any) {
	if e.err == nil {
		return
	}
	e.stopped = true
	for _, p := range e.procs {
		if !p.done {
			if r := e.drive(p); panicked == nil {
				panicked = r
			}
		}
	}
	if panicked != nil {
		panic(panicked)
	}
}

// Fail records a simulation-level error. The first error wins; later calls
// are no-ops. Processes call it instead of panicking when a modeled
// operation fails, then return; the run stops at the next event — the clock
// does not move again — and Run's caller checks Err after it. One process
// (or the driver) holds control at a time, so no locking is needed.
func (e *Engine) Fail(err error) {
	if e.err == nil && err != nil {
		e.err = err
	}
}

// Err returns the first error recorded by Fail or by Run, or nil.
func (e *Engine) Err() error { return e.err }

// Pending reports the number of queued events.
func (e *Engine) Pending() int { return len(e.queue) }

// Live reports the number of spawned processes that have not finished.
func (e *Engine) Live() int { return e.live }
