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

// Book queues a request of the given demand now and returns its queueing
// delay and the time its service ends — the wake time a step process
// returns to wait it out.
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

// Book queues the request on server idx modulo pool size, as Resource.Book
// does.
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

// BookLeastLoaded queues the request on the server that frees up earliest,
// breaking ties by lowest index, as Resource.Book does. This models
// load-balanced metadata server clusters. The scan stops at the first
// server already idle: no later one can free up strictly earlier than now.
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

// Take takes a free slot (true), or queues p for the next one released
// (false), and a step process then returns Parked; it holds the slot when
// it is woken.
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

// Barrier synchronizes n processes: each waits until all n have arrived,
// then all are released at the same virtual instant. It is the
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

// Arrive enters p into the current round: the last participant of a round
// releases the others and passes (true); any other is put on the wait list
// (false), and a step process then returns Parked.
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

// Gate is a one-shot latch: processes that Pass before Open wait; Open
// releases all of them and all later Passes go through immediately. It is
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

// Pass reports whether the gate is open, and if not puts p on the wait
// list, and a step process then returns Parked.
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
