package spec

import (
	"fmt"

	"vani/internal/sim"
)

// A tasks document runs a DAG of stages over a pool of worker slots, the
// way pegasus-mpi-cluster runs a Pegasus workflow's kernels over a fixed
// set of MPI processes. It has a tasks block instead of a run program:
//
//	tasks:
//	  - stage: mDiff          # the stage's name, and the app its tasks run as
//	    count: diff_tasks     # instances (default 1)
//	    var: j                # the instance index, in scope below
//	    after:                # dependencies, waited on in this order:
//	      - stage: mImgTbl    # every instance of an earlier stage,
//	      - stage: mProject   # one instance,
//	        index: j % n
//	      - stage: mProject   # or the half-open range [from, until)
//	        from: j
//	        until: j + 2
//	    do: [...]             # the body: the run program's ops but barrier
//	    then:                 # follow-on stages: instance j runs right
//	      - stage: mFitplane  # after the parent's instance j, when its
//	        when: j < n       # when holds
//	        do: [...]
//
// An after entry may name only an earlier stage, so the graph is acyclic
// by construction.

// Bounds on a tasks document: stages and after entries when it is parsed,
// instances and dependency edges when a run resolves its counts.
const (
	maxStages    = 64
	maxAfter     = 64
	maxTasks     = 1 << 16
	maxTaskEdges = 1 << 20
)

// stage is one named stage of a tasks document.
type stage struct {
	name   string // also the app its tasks run as
	count  *expr  // nil = 1; a then-stage has its parent's count
	ivar   string // "" = no index variable; a then-stage has its parent's
	when   *expr  // then-stages only; nil = always
	after  []dep
	body   []*op
	then   []int // this stage's then-stages, as indexes into Doc.stages
	parent int   // the stage a then-stage follows; -1 for the others
}

// dep is one after entry: one instance of an earlier stage (index), the
// range [from, until) of them, or, with neither, every instance.
type dep struct {
	stage              int
	index, from, until *expr
}

// buildTasks parses the tasks block into Doc.stages, in document order
// with each stage's then-stages right after it.
func (d *Doc) buildTasks(v interface{}) error {
	l, err := asList(v, "tasks")
	if err != nil {
		return err
	}
	if len(l) == 0 {
		return fmt.Errorf("tasks: no stages")
	}
	tb := &taskBuilder{d: d, byName: map[string]int{}}
	for i, raw := range l {
		if _, err := tb.stage(raw, fmt.Sprintf("tasks[%d]", i), -1); err != nil {
			return err
		}
	}
	return nil
}

type taskBuilder struct {
	d      *Doc
	byName map[string]int
	nOps   int
}

func (tb *taskBuilder) stage(raw interface{}, w string, parent int) (int, error) {
	d := tb.d
	if len(d.stages) == maxStages {
		return 0, fmt.Errorf("%s: more than %d stages", w, maxStages)
	}
	m, err := asObj(raw, w)
	if err != nil {
		return 0, err
	}
	keys := []string{"stage", "count", "var", "after", "do", "then"}
	if parent >= 0 {
		keys = []string{"stage", "when", "do"}
	}
	if err := checkKeys(m, w, keys...); err != nil {
		return 0, err
	}
	s := &stage{parent: parent}
	if s.name, err = asString(m["stage"], w+".stage"); err != nil {
		return 0, err
	}
	if !appRe.MatchString(s.name) {
		return 0, fmt.Errorf("%s.stage: bad stage name %q", w, s.name)
	}
	if _, dup := tb.byName[s.name]; dup {
		return 0, fmt.Errorf("%s.stage: duplicate stage %q", w, s.name)
	}
	// count, after and when see the params, the topology builtins and the
	// index; the body sees the rank builtins too.
	scope := map[string]bool{"ranks": true, "rpn": true, "nodes": true, "optimized": true}
	for name := range d.params {
		scope[name] = true
	}
	rc := &runChecker{d: d, scope: scope}
	if parent >= 0 {
		s.ivar = d.stages[parent].ivar
	} else if raw, ok := m["var"]; ok {
		if s.ivar, err = asString(raw, w+".var"); err != nil {
			return 0, err
		}
		if !identRe.MatchString(s.ivar) {
			return 0, fmt.Errorf("%s.var: bad variable name %q", w, s.ivar)
		}
		if _, exists := d.params[s.ivar]; exists || runBuiltins[s.ivar] {
			return 0, fmt.Errorf("%s.var: %q shadows a param or builtin", w, s.ivar)
		}
	}
	if raw, ok := m["count"]; ok {
		if s.count, err = rc.exprVal(raw, w+".count"); err != nil {
			return 0, err
		}
	}
	if s.ivar != "" {
		scope[s.ivar] = true
	}
	if raw, ok := m["when"]; ok {
		if s.when, err = rc.exprVal(raw, w+".when"); err != nil {
			return 0, err
		}
	}
	if s.after, err = tb.after(m["after"], w+".after", rc); err != nil {
		return 0, err
	}
	body, err := asList(m["do"], w+".do")
	if err != nil {
		return 0, err
	}
	if len(body) == 0 {
		return 0, fmt.Errorf("%s.do: empty stage body", w)
	}
	for id := range runBuiltins {
		scope[id] = true
	}
	rc.inTask, rc.nOps = true, tb.nOps
	if s.body, err = rc.parseOps(body, w+".do", 0); err != nil {
		return 0, err
	}
	tb.nOps = rc.nOps
	idx := len(d.stages)
	d.stages = append(d.stages, s)
	tb.byName[s.name] = idx
	then, err := asList(m["then"], w+".then")
	if err != nil {
		return 0, err
	}
	for i, raw := range then {
		t, err := tb.stage(raw, fmt.Sprintf("%s.then[%d]", w, i), idx)
		if err != nil {
			return 0, err
		}
		s.then = append(s.then, t)
	}
	return idx, nil
}

func (tb *taskBuilder) after(v interface{}, w string, rc *runChecker) ([]dep, error) {
	l, err := asList(v, w)
	if err != nil {
		return nil, err
	}
	if len(l) > maxAfter {
		return nil, fmt.Errorf("%s: %d entries exceed the %d cap", w, len(l), maxAfter)
	}
	deps := make([]dep, 0, len(l))
	for i, raw := range l {
		we := fmt.Sprintf("%s[%d]", w, i)
		m, err := asObj(raw, we)
		if err != nil {
			return nil, err
		}
		if err := checkKeys(m, we, "stage", "index", "from", "until"); err != nil {
			return nil, err
		}
		name, err := asString(m["stage"], we+".stage")
		if err != nil {
			return nil, err
		}
		dp := dep{}
		var ok bool
		if dp.stage, ok = tb.byName[name]; !ok {
			return nil, fmt.Errorf("%s.stage: %q is not an earlier stage", we, name)
		}
		hasIndex, hasRange := m["index"] != nil, m["from"] != nil || m["until"] != nil
		switch {
		case hasIndex && hasRange:
			return nil, fmt.Errorf("%s: index excludes from/until", we)
		case hasIndex:
			if dp.index, err = rc.exprVal(m["index"], we+".index"); err != nil {
				return nil, err
			}
		case hasRange:
			if m["from"] == nil || m["until"] == nil {
				return nil, fmt.Errorf("%s: from and until go together", we)
			}
			if dp.from, err = rc.exprVal(m["from"], we+".from"); err != nil {
				return nil, err
			}
			if dp.until, err = rc.exprVal(m["until"], we+".until"); err != nil {
				return nil, err
			}
		}
		deps = append(deps, dp)
	}
	return deps, nil
}

// spawnTasks runs a tasks document: one step process per stage instance,
// spawned in document order with a then-stage's instance right after its
// parent instance. A task's rank is its place in that order. Its program
// waits on its after list's instances in order, takes a worker slot, runs
// its body on the slot's node (slot / rpn), hands the slot back and opens
// its own gate. Counts, whens and after entries are resolved before
// anything is spawned, so a bad one ends the run with nothing left parked.
func (v *env) spawnTasks() error {
	stages := v.prog.stages
	f := v.newFrame()
	var ivar int
	fail := func(format string, args ...interface{}) error {
		return fmt.Errorf("spec %s: %s", v.doc.Name, fmt.Sprintf(format, args...))
	}
	eval := func(x *cx, s *stage) (int64, error) {
		n, err := x.eval(&f)
		if err != nil {
			return 0, fail("stage %s: %v", s.name, err)
		}
		return n, nil
	}
	setJ := func(j int64) {
		if ivar >= 0 {
			f.v[ivar], f.set[ivar] = j, true
		}
	}

	// gates[s][j] opens when stage s's instance j is done; it is nil where
	// a then-stage's when kept the instance from running.
	type task struct {
		stage  int
		j      int64
		lo, hi int // its dependencies, edges[lo:hi]
	}
	gates := make([][]*sim.Gate, len(stages))
	var tasks []task
	var edges []*sim.Gate
	for si := range stages {
		cs := &stages[si]
		s := cs.s
		if s.parent >= 0 {
			continue // spawned with its parent
		}
		ivar = cs.ivar
		for i := range f.set {
			f.set[i] = false
		}
		n := int64(1)
		if cs.count != nil {
			var err error
			if n, err = eval(cs.count, s); err != nil {
				return err
			}
		}
		if n < 0 {
			return fail("stage %s: count %d negative", s.name, n)
		}
		if n > int64(maxTasks-len(tasks)) {
			return fail("stage %s: more than %d tasks", s.name, maxTasks)
		}
		gates[si] = make([]*sim.Gate, n)
		for _, ti := range s.then {
			gates[ti] = make([]*sim.Gate, n)
		}
		for j := int64(0); j < n; j++ {
			setJ(j)
			lo := len(edges)
			for _, d := range cs.after {
				gs, target := gates[d.stage], stages[d.stage].s.name
				from, until, whole := int64(0), int64(len(gs)), true
				var err error
				switch {
				case d.index != nil:
					if from, err = eval(d.index, s); err != nil {
						return err
					}
					until, whole = from+1, false
				case d.from != nil:
					if from, err = eval(d.from, s); err != nil {
						return err
					}
					if until, err = eval(d.until, s); err != nil {
						return err
					}
					whole = false
				}
				if from < 0 || from > until || until > int64(len(gs)) {
					return fail("stage %s[%d]: after %s[%d, %d) outside [0, %d)", s.name, j, target, from, until, len(gs))
				}
				if len(edges)+int(until-from) > maxTaskEdges {
					return fail("stage %s: more than %d dependencies", s.name, maxTaskEdges)
				}
				for k, g := range gs[from:until] {
					if g != nil {
						edges = append(edges, g)
					} else if !whole {
						return fail("stage %s[%d]: after %s[%d], which never runs: its when is false", s.name, j, target, from+int64(k))
					}
				}
			}
			gates[si][j] = sim.NewGate(v.e)
			tasks = append(tasks, task{si, j, lo, len(edges)})
			for _, ti := range s.then {
				if t := &stages[ti]; t.when != nil {
					w, err := eval(t.when, t.s)
					if err != nil {
						return err
					}
					if w == 0 {
						continue
					}
				}
				if len(tasks) == maxTasks {
					return fail("stage %s: more than %d tasks", stages[ti].s.name, maxTasks)
				}
				gates[ti][j] = sim.NewGate(v.e)
				edges = append(edges, gates[si][j])
				tasks = append(tasks, task{ti, j, len(edges) - 1, len(edges)})
			}
		}
	}

	pool := newSlotPool(v.e, v.job.Ranks())
	for rank, t := range tasks {
		cs := &stages[t.stage]
		r := v.newRank(cs.prog, rank)
		r.task = &taskState{deps: edges[t.lo:t.hi], done: gates[t.stage][t.j], pool: pool}
		if cs.ivar >= 0 {
			r.setVar(cs.ivar, t.j)
		}
		r.p = v.e.SpawnStep(cs.s.name, r.step)
	}
	return nil
}

// slotPool is the worker slots tasks run on: a slot is handed out first
// from the free list (0..n-1 at the start, released slots appended), then
// to waiters in arrival order.
type slotPool struct {
	e    *sim.Engine
	free []int
	q    []*rankState
}

func newSlotPool(e *sim.Engine, n int) *slotPool {
	sp := &slotPool{e: e, free: make([]int, n)}
	for i := range sp.free {
		sp.free[i] = i
	}
	return sp
}

// take gives r a free slot, or queues it for the next one released and
// reports false: r then parks, and holds its slot when it is woken.
func (sp *slotPool) take(r *rankState) bool {
	if len(sp.free) > 0 {
		r.task.slot = sp.free[0]
		sp.free = sp.free[1:]
		return true
	}
	sp.q = append(sp.q, r)
	return false
}

// release hands a slot to the longest waiter, or back to the free list.
func (sp *slotPool) release(slot int) {
	if len(sp.q) > 0 {
		w := sp.q[0]
		sp.q = sp.q[1:]
		w.task.slot = slot
		sp.e.WakeNow(w.p)
		return
	}
	sp.free = append(sp.free, slot)
}
