// Package sim implements a deterministic discrete-event simulation kernel.
//
// The kernel drives every substrate in this repository: simulated MPI ranks,
// storage servers, burst buffers, and workflow schedulers are all expressed
// as processes and resources on a single virtual clock. The engine runs
// exactly one process at a time and orders all events by (virtual time,
// insertion sequence), so simulations are fully deterministic and
// reproducible across runs regardless of goroutine scheduling.
//
// A process is a step process (SpawnStep): a resumable program the engine
// calls inline at every wake-up. The step runs up to the process's next
// blocking point and returns its next wake time — or that it parked on a
// wait list (Barrier.Arrive, Gate.Pass), or that it is done. It never
// blocks, so it needs no goroutine: a hand-off to it is a call.
//
// Run and RunUntil run the event loop on the caller's goroutine: they pop
// events in (t, seq) order, run After callbacks and call step processes,
// until the queue is empty, an error is recorded or the time bound is
// reached. A step that returns a wake time due before anything queued is
// called again in place, without touching the queue. A failed run (a Fail,
// a deadlock, a panic) marks every unfinished process finished; a panic in
// a step or callback then goes on to Run's caller with its own value.
package sim

import (
	"context"
	"fmt"
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
	running bool
	live    int // processes spawned and not yet finished
	procs   []*Proc
	err     error

	// ctx stops RunContext; done is its Done channel, nil for a context that
	// is never done (Run's), so the poll costs one nil check per event.
	ctx  context.Context
	done <-chan struct{}

	// Stats counters, useful for tests and for the kernel ablation benches.
	// Every one repeats exactly from run to run.
	EventsExecuted int64
	// Switches counts hand-offs of control from one party to another — the
	// event loop, or a step process, to a different step process (a call),
	// and the last process back to the loop when the run ends; InPlaceWakes
	// counts the step wake times taken without touching the queue (each is
	// also one of EventsExecuted).
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
	p   *Proc  // if non-nil, call this process's step
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

// After schedules fn to run d after the current virtual time. It may be
// called before Run or from inside a running step or callback. fn runs
// inside the event loop and must not block.
func (e *Engine) After(d time.Duration, fn func()) { e.schedule(e.now+d, nil, fn) }

// Proc is a simulated process: a step the engine calls at each wake-up.
type Proc struct {
	e    *Engine
	id   int
	name string
	step Step
	done bool
}

// ID returns the process identifier, unique within its engine and assigned
// in spawn order starting from zero.
func (p *Proc) ID() int { return p.id }

// Name returns the name given at SpawnStep.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine this process runs on.
func (p *Proc) Engine() *Engine { return p.e }

// Now returns the current virtual time.
func (p *Proc) Now() time.Duration { return p.e.now }

// Step is the body of a step process. The engine calls it at the process's
// start and at every wake-up after; it runs up to the process's next
// blocking point and returns an absolute wake time (one before now wakes
// now), Parked when it has put the process on a wait list (Barrier.Arrive,
// Gate.Pass, or one of its own that WakeNow serves), or Done. A non-nil
// error fails the run with it and ends the process.
type Step func(p *Proc) (wake time.Duration, err error)

// What a Step returns instead of a wake time.
const (
	Parked time.Duration = -1 // on a wait list; someone else schedules the wake-up
	Done   time.Duration = -2 // finished
)

// SpawnStep creates a step process running step, starting at the current
// virtual time. It may be called before Run or from a running step or
// callback.
func (e *Engine) SpawnStep(name string, step Step) *Proc {
	return e.SpawnStepAt(e.now, name, step)
}

// SpawnStepAt is SpawnStep with an explicit start time (absolute virtual
// time, not a delay). It panics if t is in the past.
func (e *Engine) SpawnStepAt(t time.Duration, name string, step Step) *Proc {
	p := &Proc{e: e, id: len(e.procs), name: name, step: step}
	e.procs = append(e.procs, p)
	e.live++
	e.schedule(t, p, nil)
	return p
}

// dispatch is the event loop. It pops events in (t, seq) order, running
// callbacks and calling step processes, until nothing more may run: the
// queue is empty, an error is recorded or the next event lies beyond the
// bound.
//
// dispatch counts Switches: one for every call into a process other than
// the one the loop last handed control to (the loop itself at the start),
// unless that one finished — it counted its own hand-off on the way out —
// and one for the hand-back to the loop at the end.
func (e *Engine) dispatch() {
	var holder *Proc
	owed := true
	for e.err == nil && len(e.queue) > 0 && e.queue[0].t <= e.bound {
		if e.done != nil && e.canceled() {
			break
		}
		ev := e.pop()
		e.now = ev.t
		e.EventsExecuted++
		p := ev.p
		switch {
		case p == nil:
			ev.fn()
			continue
		case p.done: // a stale wake-up for a finished process
			continue
		case p != holder && owed:
			e.Switches++
		}
		holder, owed = p, !e.runStep(p)
	}
	if owed && holder != nil {
		e.Switches++
	}
}

// runStep calls a step process until it blocks, and reports whether it
// finished. A wake-up that would be the very next event is taken in place
// and the step is called again at once.
func (e *Engine) runStep(p *Proc) (finished bool) {
	for {
		t, err := p.step(p)
		switch {
		case err != nil:
			e.Fail(err)
		case t == Parked:
			return false
		case t != Done:
			if t < e.now {
				t = e.now
			}
			if e.inPlace(t) {
				continue
			}
			e.wakeAt(t, p)
			return false
		}
		p.done = true
		e.live--
		e.Switches++
		return true
	}
}

// inPlace takes a wake-up at t in place when it would be the very next
// event popped — nothing queued at or before t (an event at t itself was
// scheduled earlier and goes first): it advances the clock and counts the
// event without pushing, popping or switching.
func (e *Engine) inPlace(t time.Duration) bool {
	if e.err == nil && t <= e.bound && (len(e.queue) == 0 || e.queue[0].t > t) &&
		(e.done == nil || !e.canceled()) {
		e.now = t
		e.EventsExecuted++
		e.InPlaceWakes++
		return true
	}
	return false
}

// wakeAt schedules p to be called at absolute time t.
func (e *Engine) wakeAt(t time.Duration, p *Proc) { e.schedule(t, p, nil) }

// WakeNow schedules a parked process to be called at the current virtual
// time.
func (e *Engine) WakeNow(p *Proc) { e.wakeAt(e.now, p) }

// Run executes events until the queue is empty or a process calls Fail, and
// returns the virtual time reached. Processes still live when the queue
// drains are a deadlock (some process is parked with no pending wake-up),
// which Run records as the failure. After a failure every unfinished
// process is marked finished and is never called again. Check Err
// afterwards. A panic in a step or callback is not a failure: it reaches
// Run's caller, with no process left live.
func (e *Engine) Run() time.Duration {
	e.run(math.MaxInt64)
	if e.err == nil && e.live > 0 {
		e.err = fmt.Errorf("sim: deadlock: %d process(es) parked with empty event queue", e.live)
	}
	e.unwind()
	return e.now
}

// RunContext is Run stopped by ctx: every pollEvents events the engine
// checks ctx, and once it is done fails the run with ctx.Err(), which
// finishes the processes as any failure does. A context that is never done
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
	e.unwind()
	return e.now
}

// run drives the event loop on the calling goroutine until no event at or
// before bound is left, or an error is recorded. If a step or callback
// panics, run records the panic as the run's error, finishes every process
// and panics again with the same value.
func (e *Engine) run(bound time.Duration) {
	if e.running {
		panic("sim: Run called re-entrantly")
	}
	e.running = true
	defer func() { e.running = false }()
	e.bound = bound
	defer func() {
		if r := recover(); r != nil {
			e.Fail(fmt.Errorf("sim: panic: %v", r))
			e.unwind()
			panic(r)
		}
	}()
	e.dispatch()
}

// unwind ends a failed run: every unfinished process is marked finished.
func (e *Engine) unwind() {
	if e.err == nil {
		return
	}
	for _, p := range e.procs {
		if !p.done {
			p.done = true
			e.live--
		}
	}
}

// Fail records a simulation-level error. The first error wins; later calls
// are no-ops. A step may return its error instead, which fails the run the
// same way. The run stops at the next event — the clock does not move
// again — and Run's caller checks Err after it.
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
