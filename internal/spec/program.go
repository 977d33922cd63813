package spec

import "vani/internal/iface"

// A compiled document is a program: every identifier an expression or path
// names is a slot of a per-rank []int64 frame, every run program and stage
// body is a flat instruction list with a program counter, and a rank (or
// task) runs as a step process that executes instructions until one issues
// an interface call or waits (exec.go).

// The frame's fixed slots: the builtins, then the counters of the leaf
// instruction in flight — the one op a rank runs at a time that issues
// interface calls. The params follow, then the variables (loop and let
// variables, a stage's index, setup's i), then three slots per loop for
// its counter, bound and step.
const (
	sRank = iota
	sNode
	sLocal
	sLeader
	sRanks
	sRPN
	sNodes
	sOptimized

	sTotal   // the op's total bytes
	sGranule // its granule
	sOff     // the granule offset reached
	sBase    // pread/pwrite: the base offset
	sLimit   // pread: the file size reads stop at
	sPos     // the position of the granule in flight
	sN       // its size
	sPhase   // which of an iteration's calls is in flight

	nFixed
)

// layout names the slots of a document's frames.
type layout struct {
	slots    map[string]int
	firstVar int
	n        int
}

// checked reports whether a slot may be read before it holds a value — a
// variable, or a builtin setup and task resolution do not have — so reading
// it checks the frame's set flags. Params and the topology builtins always
// hold one.
func (l *layout) checked(slot int) bool { return slot < sRanks || slot >= l.firstVar }

// variable gives a variable name a slot, once.
func (l *layout) variable(name string) int {
	if s, ok := l.slots[name]; ok {
		return s
	}
	l.slots[name] = l.n
	l.n++
	return l.n - 1
}

// program is a compiled document.
type program struct {
	lay    layout
	params []*cx // by d.ordered index; nil for a value param
	setup  []csetup
	run    []inst   // the run program, or
	stages []cstage // the tasks block's stages
	apps   []string // the apps clients run as; 0 is the document's
	iSlot  int      // setup's i
}

type csetup struct {
	st          *setupStep
	path        *cpath
	count, size *cx // count nil = 1
}

type cstage struct {
	s     *stage
	count *cx // nil = 1
	when  *cx // nil = always
	after []cdep
	ivar  int // the index variable's slot, -1 for none
	prog  []inst
}

type cdep struct {
	stage              int
	index, from, until *cx
}

// inst is one instruction.
type inst struct {
	kind  ikind
	o     *op // the op it runs: its flags and names
	a     *cx // when, loop from, let value, total, seek at, compute time
	b     *cx // loop until, granule, comm
	c     *cx // loop step, pread/readwrap size
	d     *cx // pread/pwrite at
	slot  int // a loop or let variable
	loop  int // a loop's counter slot; bound and step follow it
	jump  int // where a false when, an empty loop or a looping next goes
	path  *cpath
	app   int // index into program.apps
	layer iface.Layer
	bar   int // index into Doc.barriers
}

type ikind uint8

const (
	iWhen ikind = iota
	iLoop
	iNext
	iLet
	iDescribe
	iOpen
	iRW
	iPRead
	iPWrite
	iReadWrap
	iClose
	iSeek
	iSync
	iStat
	iBarrier
	iCompute
	iGPU
	iDeps     // a task waits for its after list's instances, in order
	iAcquire  // it takes a worker slot and is placed on the slot's node
	iRelease  // it hands the slot back
	iOpenGate // it opens its gate
	iEnd
)

// compiler builds a program.
type compiler struct {
	p    *program
	apps map[string]int
	dirs map[string]*cdir
	bars map[string]int
}

// compile compiles the document.
func (d *Doc) compile() *program {
	p := &program{}
	l := &p.lay
	l.slots = map[string]int{
		"rank": sRank, "node": sNode, "local": sLocal, "leader": sLeader,
		"ranks": sRanks, "rpn": sRPN, "nodes": sNodes, "optimized": sOptimized,
	}
	for i, pm := range d.ordered {
		l.slots[pm.name] = nFixed + i
	}
	l.firstVar = nFixed + len(d.ordered)
	l.n = l.firstVar
	p.iSlot = l.variable("i")
	varsOf(d.run, l)
	for _, s := range d.stages {
		if s.ivar != "" {
			l.variable(s.ivar)
		}
		varsOf(s.body, l)
	}

	c := &compiler{p: p, apps: map[string]int{}, dirs: map[string]*cdir{}, bars: map[string]int{}}
	c.app(d.App)
	for i, b := range d.barriers {
		c.bars[b] = i
	}
	for name, dr := range d.dirs {
		cd := &cdir{base: dr.base.compile(l, nil)}
		if dr.optimized != nil {
			cd.optimized = dr.optimized.compile(l, nil)
		}
		c.dirs[name] = cd
	}
	p.params = make([]*cx, len(d.ordered))
	for i, pm := range d.ordered {
		if pm.kind == paramExpr {
			p.params[i] = pm.e.compile(l)
		}
	}
	for _, st := range d.setup {
		cs := csetup{st: st}
		if st.sample == "" {
			cs.path = st.path.compile(l, c.dirs)
			cs.count, cs.size = c.expr(st.count), c.expr(st.size)
		}
		p.setup = append(p.setup, cs)
	}
	if d.stages == nil {
		p.run = c.ops(nil, d.run, 0)
		p.run = append(p.run, inst{kind: iEnd})
	}
	for _, s := range d.stages {
		cs := cstage{s: s, count: c.expr(s.count), when: c.expr(s.when), ivar: -1}
		if s.ivar != "" {
			cs.ivar = l.slots[s.ivar]
		}
		for _, dp := range s.after {
			cs.after = append(cs.after, cdep{stage: dp.stage, index: c.expr(dp.index), from: c.expr(dp.from), until: c.expr(dp.until)})
		}
		app := c.app(s.name)
		cs.prog = []inst{{kind: iDeps}, {kind: iAcquire, app: app}}
		cs.prog = c.ops(cs.prog, s.body, app)
		cs.prog = append(cs.prog, inst{kind: iRelease}, inst{kind: iOpenGate}, inst{kind: iEnd})
		p.stages = append(p.stages, cs)
	}
	return p
}

// varsOf gives the loop and let variables of ops slots.
func varsOf(ops []*op, l *layout) {
	for _, o := range ops {
		switch o.kind {
		case opLoop:
			l.variable(o.loopVar)
		case opLet:
			l.variable(o.letName)
		}
		varsOf(o.body, l)
	}
}

func (c *compiler) expr(e *expr) *cx {
	if e == nil {
		return nil
	}
	return e.compile(&c.p.lay)
}

// app is the index of an app in the program's table.
func (c *compiler) app(name string) int {
	if i, ok := c.apps[name]; ok {
		return i
	}
	c.apps[name] = len(c.p.apps)
	c.p.apps = append(c.p.apps, name)
	return len(c.p.apps) - 1
}

// lit is a compiled constant.
func lit(v int64) *cx { return &cx{root: &node{op: nLit, val: v}} }

// ops appends the instructions of ops, run as app, to prog.
func (c *compiler) ops(prog []inst, ops []*op, app int) []inst {
	l := &c.p.lay
	for _, o := range ops {
		in := inst{o: o, app: app}
		switch o.kind {
		case opGroup:
			a := app
			if o.app != "" {
				a = c.app(o.app)
			}
			if o.when == nil {
				prog = c.ops(prog, o.body, a)
				continue
			}
			at := len(prog)
			prog = append(prog, inst{kind: iWhen, o: o, a: c.expr(o.when)})
			prog = c.ops(prog, o.body, a)
			prog[at].jump = len(prog)
			continue
		case opLoop:
			in.kind, in.slot, in.loop = iLoop, l.slots[o.loopVar], l.n
			l.n += 3
			in.a, in.b, in.c = c.expr(o.from), c.expr(o.until), c.expr(o.step)
			if in.a == nil {
				in.a = lit(0)
			}
			if in.c == nil {
				in.c = lit(1)
			}
			at := len(prog)
			prog = append(prog, in)
			prog = c.ops(prog, o.body, app)
			prog = append(prog, inst{kind: iNext, o: o, slot: in.slot, loop: in.loop, jump: at + 1})
			prog[at].jump = len(prog)
			continue
		case opLet:
			in.kind, in.slot, in.a = iLet, l.slots[o.letName], c.expr(o.letExpr)
		case opDescribe:
			in.kind, in.path = iDescribe, o.path.compile(l, c.dirs)
		case opOpen:
			in.kind, in.path, in.b = iOpen, o.path.compile(l, c.dirs), c.expr(o.comm)
			switch o.layer {
			case "posix":
				in.layer = iface.Posix
			case "stdio":
				in.layer = iface.Stdio
			case "mpiio":
				in.layer = iface.MPIIO
			default:
				in.layer = iface.HDF5
			}
		case opRead, opWrite:
			in.kind, in.a, in.b = iRW, c.expr(o.total), c.expr(o.granule)
		case opPRead:
			in.kind, in.a, in.b, in.c, in.d = iPRead, c.expr(o.total), c.expr(o.granule), c.expr(o.size), c.expr(o.at)
		case opPWrite:
			in.kind, in.a, in.b, in.d = iPWrite, c.expr(o.total), c.expr(o.granule), c.expr(o.at)
		case opReadWrap:
			in.kind, in.a, in.b, in.c = iReadWrap, c.expr(o.total), c.expr(o.granule), c.expr(o.size)
		case opClose:
			in.kind = iClose
		case opSeek:
			in.kind, in.a = iSeek, c.expr(o.at)
		case opSync:
			in.kind = iSync
		case opStat:
			in.kind, in.path = iStat, o.path.compile(l, c.dirs)
		case opBarrier:
			in.kind, in.bar = iBarrier, c.bars[o.name]
		case opCompute:
			in.kind, in.a = iCompute, c.expr(o.dur)
		case opGPU:
			in.kind, in.a = iGPU, c.expr(o.dur)
		}
		prog = append(prog, in)
	}
	return prog
}
