package sim

import (
	"fmt"
	"time"
)

// Resource models a single FCFS server: requests are serviced one at a time
// in arrival order, each occupying the server for its service demand.
// Contention therefore shows up as queueing delay, which is the mechanism
// behind the per-rank bandwidth variance the paper observes on GPFS during
// HACC checkpointing (Figure 2c).
type Resource struct {
	e    *Engine
	name string
	free time.Duration // absolute time the server next becomes idle

	// Counters for utilization accounting.
	Served   int64
	BusyTime time.Duration
	WaitTime time.Duration
}

// NewResource creates an FCFS resource on engine e.
func NewResource(e *Engine, name string) *Resource {
	return &Resource{e: e, name: name}
}

// Name returns the resource name.
func (r *Resource) Name() string { return r.name }

// Use blocks the process until the resource has serviced a request of the
// given demand, and returns the queueing delay and the total time spent
// (wait + service).
func (r *Resource) Use(p *Proc, service time.Duration) (wait, total time.Duration) {
	now := p.e.now
	wait, end := r.Book(service)
	p.SleepUntil(end)
	return wait, end - now
}

// Book is Use without the sleep: it queues a request of the given demand
// now, with the same counters, and returns its queueing delay and the time
// its service ends — the wake time a step process returns to wait it out.
func (r *Resource) Book(service time.Duration) (wait, end time.Duration) {
	if service < 0 {
		panic(fmt.Sprintf("sim: negative service demand %v on %s", service, r.name))
	}
	now := r.e.now
	start := now
	if r.free > start {
		start = r.free
	}
	end = start + service
	r.free = end
	r.Served++
	r.BusyTime += service
	wait = start - now
	r.WaitTime += wait
	return wait, end
}

// Reserve books service time without blocking the caller and returns the
// interval [start, end) the request occupies. It is used by asynchronous
// layers (e.g. write-back flushing) that account for server occupancy
// without a process waiting on completion.
func (r *Resource) Reserve(service time.Duration) (start, end time.Duration) {
	start = r.e.now
	if r.free > start {
		start = r.free
	}
	end = start + service
	r.free = end
	r.Served++
	r.BusyTime += service
	return start, end
}

// Utilization returns BusyTime divided by the elapsed virtual time, or zero
// at time zero.
func (r *Resource) Utilization() float64 {
	if r.e.now == 0 {
		return 0
	}
	return float64(r.BusyTime) / float64(r.e.now)
}

// Pool is a bank of identical FCFS servers (e.g. the I/O servers of a
// parallel file system, or the parallel channels of a node-local storage
// controller). Requests may be routed explicitly by index (striping) or to
// the earliest-free server.
type Pool struct {
	Servers []Resource
}

// NewPool creates n servers named "<name>[i]".
func NewPool(e *Engine, name string, n int) *Pool {
	if n <= 0 {
		panic("sim: pool must have at least one server")
	}
	p := &Pool{Servers: make([]Resource, n)}
	for i := range p.Servers {
		p.Servers[i] = Resource{e: e, name: fmt.Sprintf("%s[%d]", name, i)}
	}
	return p
}

// Len returns the number of servers.
func (pl *Pool) Len() int { return len(pl.Servers) }

// Use routes the request to server idx modulo pool size.
func (pl *Pool) Use(p *Proc, idx int, service time.Duration) (wait, total time.Duration) {
	return pl.server(idx).Use(p, service)
}

// Book is Use without the sleep, as Resource.Book is Resource.Use's.
func (pl *Pool) Book(idx int, service time.Duration) (wait, end time.Duration) {
	return pl.server(idx).Book(service)
}

// server is server idx modulo pool size.
func (pl *Pool) server(idx int) *Resource {
	n := len(pl.Servers)
	i := idx % n
	if i < 0 {
		i += n
	}
	return &pl.Servers[i]
}

// UseLeastLoaded routes the request to the server that frees up earliest,
// breaking ties by lowest index. This models load-balanced metadata server
// clusters. The scan stops at the first server already idle: no later one
// can free up strictly earlier than now.
func (pl *Pool) UseLeastLoaded(p *Proc, service time.Duration) (wait, total time.Duration) {
	now := p.e.now
	wait, end := pl.BookLeastLoaded(service)
	p.SleepUntil(end)
	return wait, end - now
}

// BookLeastLoaded is UseLeastLoaded without the sleep, as Book is Use's.
func (pl *Pool) BookLeastLoaded(service time.Duration) (wait, end time.Duration) {
	now := pl.Servers[0].e.now
	best, bestFree := 0, pl.Servers[0].free
	for i := 1; i < len(pl.Servers) && bestFree > now; i++ {
		if f := pl.Servers[i].free; f < bestFree {
			best, bestFree = i, f
		}
	}
	return pl.Servers[best].Book(service)
}

// Semaphore is a counting semaphore with a FIFO wait queue, used to model
// bounded parallelism such as the "# parallel ops" of a node-local storage
// controller (Table VIII).
type Semaphore struct {
	e     *Engine
	cap   int
	inUse int
	q     []*Proc

	// MaxInUse records the high-water mark of concurrent holders.
	MaxInUse int
}

// NewSemaphore creates a semaphore with the given capacity.
func NewSemaphore(e *Engine, capacity int) *Semaphore {
	if capacity <= 0 {
		panic("sim: semaphore capacity must be positive")
	}
	return &Semaphore{e: e, cap: capacity}
}

// InUse returns the number of current holders.
func (s *Semaphore) InUse() int { return s.inUse }

// Acquire blocks the process until a slot is available.
func (s *Semaphore) Acquire(p *Proc) {
	if !s.Take(p) {
		p.park()
	}
}

// Take is Acquire without the parking: it takes a free slot (true), or
// queues p for the next one released (false), and a step process then
// returns Parked; it holds the slot when it is woken.
func (s *Semaphore) Take(p *Proc) bool {
	if s.inUse < s.cap {
		s.inUse++
		if s.inUse > s.MaxInUse {
			s.MaxInUse = s.inUse
		}
		return true
	}
	s.q = append(s.q, p)
	return false
}

// Release frees a slot, waking the longest-waiting process if any. The
// woken process resumes at the current virtual time and inherits the slot.
func (s *Semaphore) Release() {
	if len(s.q) > 0 {
		next := s.q[0]
		s.q = s.q[1:]
		s.e.wakeAt(s.e.now, next)
		return
	}
	if s.inUse == 0 {
		panic("sim: semaphore release without acquire")
	}
	s.inUse--
}

// Barrier synchronizes n processes: each caller blocks until all n have
// arrived, then all are released at the same virtual instant. It is the
// MPI_Barrier analogue and is reusable across repeated synchronization
// rounds.
type Barrier struct {
	e       *Engine
	n       int
	arrived int
	waiters []*Proc

	// Rounds counts completed barrier episodes.
	Rounds int64
}

// NewBarrier creates a barrier for n participants.
func NewBarrier(e *Engine, n int) *Barrier {
	if n <= 0 {
		panic("sim: barrier size must be positive")
	}
	return &Barrier{e: e, n: n}
}

// N returns the participant count.
func (b *Barrier) N() int { return b.n }

// Wait blocks until all participants of the current round have arrived.
func (b *Barrier) Wait(p *Proc) {
	if !b.Arrive(p) {
		p.park()
	}
}

// Arrive is Wait without the parking: the last participant of a round
// releases the others and passes (true); any other is put on the wait
// list (false), and a step process then returns Parked.
func (b *Barrier) Arrive(p *Proc) bool {
	b.arrived++
	if b.arrived == b.n {
		for _, w := range b.waiters {
			b.e.wakeAt(b.e.now, w)
		}
		b.waiters = b.waiters[:0]
		b.arrived = 0
		b.Rounds++
		return true
	}
	b.waiters = append(b.waiters, p)
	return false
}

// Gate is a one-shot latch: processes that Wait before Open block; Open
// releases all of them and all later Waits pass through immediately. It is
// used for producer/consumer dependencies in workflow stages.
type Gate struct {
	e       *Engine
	open    bool
	waiters []*Proc
}

// NewGate creates a closed gate.
func NewGate(e *Engine) *Gate { return &Gate{e: e} }

// Opened reports whether the gate has been opened.
func (g *Gate) Opened() bool { return g.open }

// Wait blocks until the gate opens.
func (g *Gate) Wait(p *Proc) {
	if !g.Pass(p) {
		p.park()
	}
}

// Pass is Wait without the parking: it reports whether the gate is open,
// and if not puts p on the wait list, and a step process then returns
// Parked.
func (g *Gate) Pass(p *Proc) bool {
	if g.open {
		return true
	}
	g.waiters = append(g.waiters, p)
	return false
}

// Open releases all current and future waiters. Opening an open gate is a
// no-op.
func (g *Gate) Open() {
	if g.open {
		return
	}
	g.open = true
	for _, w := range g.waiters {
		g.e.wakeAt(g.e.now, w)
	}
	g.waiters = nil
}

// WaitGroup tracks completion of a set of processes in virtual time.
type WaitGroup struct {
	e       *Engine
	count   int
	waiters []*Proc
}

// NewWaitGroup returns an empty wait group.
func NewWaitGroup(e *Engine) *WaitGroup { return &WaitGroup{e: e} }

// Add increments the outstanding-work counter.
func (w *WaitGroup) Add(n int) {
	w.count += n
	if w.count < 0 {
		panic("sim: negative WaitGroup counter")
	}
}

// Done decrements the counter, releasing waiters when it reaches zero.
func (w *WaitGroup) Done() {
	w.count--
	if w.count < 0 {
		panic("sim: negative WaitGroup counter")
	}
	if w.count == 0 {
		for _, p := range w.waiters {
			w.e.wakeAt(w.e.now, p)
		}
		w.waiters = nil
	}
}

// Wait blocks the process until the counter is zero.
func (w *WaitGroup) Wait(p *Proc) {
	if w.count == 0 {
		return
	}
	w.waiters = append(w.waiters, p)
	p.park()
}
