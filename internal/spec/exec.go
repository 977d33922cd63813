package spec

import (
	"fmt"
	"math"
	"time"

	"vani/internal/iface"
	"vani/internal/sim"
)

// rankState is one rank (or task) running its instruction list as a step
// process: the engine calls step at every wake-up, and step executes
// instructions until one issues an interface call that waits, or the rank
// waits on a barrier, gate or worker slot, or ends.
type rankState struct {
	env  *env
	prog []inst
	p    *sim.Proc
	fr   frame
	pc   int
	busy bool     // op is in flight
	op   iface.Op // the interface call in flight
	rank int

	clients []*iface.Client // by app index, made on first use
	rng     *sim.RNG        // nil unless a let draws from it
	paths   renderer
	iters   int64 // loop iterations run, for pollIters

	// files is the stack of open files, innermost last: open pushes, close
	// pops, and every other file op acts on the innermost. A popped file's
	// room is reused by the next open.
	files []iface.File

	task *taskState // nil for a rank of a run program
}

// taskState is what a task has that a rank has not: the gates it waits on
// (deps[depAt:] still to pass), the gate it opens when done, and the worker
// slot it runs on.
type taskState struct {
	deps  []*sim.Gate
	depAt int
	done  *sim.Gate
	pool  *slotPool
	slot  int
}

// maxOpen bounds the files a rank may hold open at once.
const maxOpen = 8

// step is the rank's step: it runs the call in flight, then instructions,
// until the rank waits or ends.
func (r *rankState) step(p *sim.Proc) (time.Duration, error) {
	for {
		if r.busy {
			t, more := r.op.Step()
			if more {
				return t, nil
			}
			r.busy = false
			if err := r.op.Err(); err != nil {
				return 0, err
			}
		}
		t, err := r.exec()
		if err != nil || !r.busy {
			return t, err
		}
	}
}

// place puts the rank on a node as app, and makes the app's client.
func (r *rankState) place(app, node, local int) {
	r.fr.v[sNode], r.fr.v[sLocal], r.fr.v[sLeader] = int64(node), int64(local), b2i(local == 0)
	r.fr.set[sNode], r.fr.set[sLocal], r.fr.set[sLeader] = true, true, true
	r.clients[app] = r.newClient(app)
}

func (r *rankState) newClient(app int) *iface.Client {
	v := r.env
	return iface.NewClient(v.sys, v.tr, &v.spec.Iface, v.prog.apps[app], r.rank, int(r.fr.v[sNode]))
}

// client is the client of app, made on first use.
func (r *rankState) client(app int) *iface.Client {
	cl := r.clients[app]
	if cl == nil {
		cl = r.newClient(app)
		r.clients[app] = cl
	}
	return cl
}

func (r *rankState) errf(format string, args ...interface{}) error {
	return fmt.Errorf("spec %s: rank %d: %s", r.env.doc.Name, r.rank, fmt.Sprintf(format, args...))
}

func (r *rankState) eval(x *cx) (int64, error) {
	v, err := x.eval(&r.fr)
	if err != nil {
		return 0, fmt.Errorf("spec %s: rank %d: %v", r.env.doc.Name, r.rank, err)
	}
	return v, nil
}

func (r *rankState) evalOr(x *cx, def int64) (int64, error) {
	if x == nil {
		return def, nil
	}
	return r.eval(x)
}

// cur is the innermost open file; what names the op that needs one.
func (r *rankState) cur(what string) (*iface.File, error) {
	if len(r.files) == 0 {
		return nil, r.errf("%s without an open file", what)
	}
	return &r.files[len(r.files)-1], nil
}

// setVar stores a variable.
func (r *rankState) setVar(slot int, v int64) {
	r.fr.v[slot], r.fr.set[slot] = v, true
}

// exec runs instructions from pc until one issues an interface call (busy
// is then set, and the call is run before exec is called again), or the
// rank waits on a gate or a slot (sim.Parked), or ends (sim.Done). An
// instruction that issues calls keeps its progress in the frame — sPhase
// and the leaf counters — and is executed again after each call ends.
func (r *rankState) exec() (time.Duration, error) {
	fr := r.fr.v
	for {
		in := &r.prog[r.pc]
		switch in.kind {
		case iWhen:
			v, err := r.eval(in.a)
			if err != nil {
				return 0, err
			}
			if v == 0 {
				r.pc = in.jump
				continue
			}
		case iLoop:
			from, err := r.eval(in.a)
			if err != nil {
				return 0, err
			}
			until, err := r.eval(in.b)
			if err != nil {
				return 0, err
			}
			step, err := r.eval(in.c)
			if err != nil {
				return 0, err
			}
			if step <= 0 {
				return 0, r.errf("loop %s: step %d not positive", in.o.loopVar, step)
			}
			if from >= until {
				r.pc = in.jump
				continue
			}
			fr[in.loop], fr[in.loop+1], fr[in.loop+2] = from, until, step
			r.setVar(in.slot, from)
		case iNext:
			if r.iters++; r.iters%pollIters == 0 {
				if err := r.env.canceled(); err != nil {
					return 0, err
				}
			}
			v := fr[in.loop] + fr[in.loop+2]
			if v < fr[in.loop+1] {
				fr[in.loop] = v
				r.setVar(in.slot, v)
				r.pc = in.jump
				continue
			}
		case iLet:
			v, err := r.eval(in.a)
			if err != nil {
				return 0, err
			}
			if in.o.letRand {
				if v <= 0 {
					return 0, r.errf("let %s: rand bound %d not positive", in.o.letName, v)
				}
				v = r.rng.Int63n(v)
			}
			r.setVar(in.slot, v)
		case iDescribe:
			cl := r.client(in.app)
			path, err := r.paths.render(in.path, &r.fr)
			if err != nil {
				return 0, err
			}
			cl.DescribeFile(path, in.o.format, in.o.ndims, in.o.dtype)
		case iOpen, iClose, iSeek, iSync, iStat, iBarrier, iCompute, iGPU:
			if fr[sPhase] == 0 {
				if err := r.call(in); err != nil {
					return 0, err
				}
				fr[sPhase] = 1
				return 0, nil
			}
			fr[sPhase] = 0
			if in.kind == iClose {
				n := len(r.files) - 1
				r.files[n] = iface.File{}
				r.files = r.files[:n]
			}
		case iRW, iPRead, iPWrite, iReadWrap:
			if done, err := r.granules(in); err != nil || !done {
				return 0, err
			}
		case iDeps:
			t := r.task
			for t.depAt < len(t.deps) {
				g := t.deps[t.depAt]
				t.depAt++
				if !g.Pass(r.p) {
					return sim.Parked, nil
				}
			}
		case iAcquire:
			if fr[sPhase] == 0 && !r.task.pool.take(r) {
				fr[sPhase] = 1
				return sim.Parked, nil
			}
			fr[sPhase] = 0
			// The client is made on the slot: its node is the slot's, and
			// the tracer numbers apps in the order their first task runs.
			slot, rpn := r.task.slot, r.env.spec.RanksPerNode
			r.place(in.app, slot/rpn, slot%rpn)
		case iRelease:
			r.task.pool.release(r.task.slot)
		case iOpenGate:
			r.task.done.Open()
		case iEnd:
			return sim.Done, nil
		}
		r.pc++
	}
}

// call issues the one interface call of an open, close, seek, sync, stat,
// barrier, compute or GPU instruction.
func (r *rankState) call(in *inst) error {
	o := &r.op
	switch in.kind {
	case iOpen:
		if len(r.files) == maxOpen {
			return r.errf("open %s: %d files already open", in.o.path.src, maxOpen)
		}
		cl := r.client(in.app)
		path, err := r.paths.render(in.path, &r.fr)
		if err != nil {
			return err
		}
		r.files = append(r.files, iface.File{})
		f := &r.files[len(r.files)-1]
		switch in.layer {
		case iface.Posix:
			cl.PosixOpen(o, f, path, in.o.create)
		case iface.Stdio:
			cl.StdioOpen(o, f, path, in.o.mode)
		default:
			comm, err := r.eval(in.b)
			if err != nil {
				return err
			}
			if in.layer == iface.MPIIO {
				cl.MPIOpen(o, f, path, in.o.create, int(comm))
			} else {
				cl.H5Open(o, f, path, in.o.create, int(comm))
			}
		}
	case iClose:
		f, err := r.cur("close")
		if err != nil {
			return err
		}
		f.Close(o)
	case iSeek:
		f, err := r.cur("seek")
		if err != nil {
			return err
		}
		if l := f.Layer(); l != iface.Posix && l != iface.Stdio {
			return r.errf("seek on %s file", l)
		}
		at, err := r.eval(in.a)
		if err != nil {
			return err
		}
		f.Seek(o, at)
	case iSync:
		f, err := r.cur("sync")
		if err != nil {
			return err
		}
		if l := f.Layer(); l != iface.Posix {
			return r.errf("sync on %s file", l)
		}
		f.Sync(o)
	case iStat:
		cl := r.client(in.app)
		path, err := r.paths.render(in.path, &r.fr)
		if err != nil {
			return err
		}
		cl.PosixStat(o, path)
	case iBarrier:
		r.client(in.app).Barrier(o, r.p, r.env.bars[in.bar])
	case iCompute, iGPU:
		d, err := r.eval(in.a)
		if err != nil {
			return err
		}
		if in.kind == iCompute {
			r.client(in.app).Compute(o, time.Duration(d))
		} else {
			r.client(in.app).GPUCompute(o, time.Duration(d))
		}
	}
	r.busy = true
	return nil
}

// Phases of a granule instruction, in sPhase.
const (
	gStart  = iota // not started: evaluate and check the operands
	gSeeked        // the granule's seek is done: issue its transfer
	gDone          // the granule's transfer is done: issue the next, or finish
)

// granules runs a read/write, pread, pwrite or readwrap: total bytes in
// granule-sized transfers, one interface call (or a seek and a transfer)
// at a time. It reports done when the instruction has finished; otherwise
// it has issued a call.
func (r *rankState) granules(in *inst) (done bool, err error) {
	fr := r.fr.v
	o := in.o
	switch fr[sPhase] {
	case gStart:
		if err := r.granuleStart(in); err != nil {
			return false, err
		}
	case gSeeked:
		f := &r.files[len(r.files)-1]
		switch in.kind {
		case iPRead:
			f.ReadAt(&r.op, fr[sPos], fr[sN])
		case iPWrite:
			f.WriteAt(&r.op, fr[sPos], fr[sN])
		default:
			f.Read(&r.op, fr[sN])
		}
		fr[sPhase], r.busy = gDone, true
		return false, nil
	case gDone:
		fr[sOff] += fr[sGranule]
	}
	off, total, granule := fr[sOff], fr[sTotal], fr[sGranule]
	if off >= total {
		fr[sPhase] = gStart
		return true, nil
	}
	n := granule
	if o.clamp && off+n > total {
		n = total - off
	}
	f := &r.files[len(r.files)-1]
	fr[sPhase] = gDone
	switch in.kind {
	case iRW:
		switch l := f.Layer(); {
		case l == iface.Posix || l == iface.Stdio:
			if o.kind == opRead {
				f.Read(&r.op, n)
			} else {
				f.Write(&r.op, n)
			}
		case o.kind == opRead:
			f.ReadAt(&r.op, off, n)
		default:
			f.WriteAt(&r.op, off, n)
		}
	case iPRead, iPWrite:
		pos := fr[sBase] + off
		if in.kind == iPRead {
			pos = fr[sBase] + off*o.stride
			if pos >= fr[sLimit] {
				fr[sPhase] = gStart
				return true, nil
			}
			n = min(n, fr[sLimit]-pos)
		}
		fr[sPos], fr[sN] = pos, n
		switch {
		case o.seek:
			f.Seek(&r.op, pos)
			fr[sPhase] = gSeeked
		case in.kind == iPRead:
			f.ReadAt(&r.op, pos, n)
		default:
			f.WriteAt(&r.op, pos, n)
		}
	case iReadWrap:
		fr[sN] = granule
		if f.Pos()+granule > fr[sLimit] {
			f.Seek(&r.op, 0)
			fr[sPhase] = gSeeked
		} else {
			f.Read(&r.op, granule)
		}
	}
	r.busy = true
	return false, nil
}

// granuleOp names a granule instruction's op in errors.
func granuleOp(k ikind) string {
	switch k {
	case iRW:
		return "read/write"
	case iPRead:
		return "pread"
	case iPWrite:
		return "pwrite"
	}
	return "readwrap"
}

// granuleStart evaluates and checks a granule instruction's operands into
// the leaf counters.
func (r *rankState) granuleStart(in *inst) error {
	fr := r.fr.v
	o := in.o
	what := granuleOp(in.kind)
	f, err := r.cur(what)
	if err != nil {
		return err
	}
	l := f.Layer()
	switch in.kind {
	case iPRead, iPWrite:
		switch {
		case l == iface.MPIIO && o.seek:
			return r.errf("%s seek on mpiio file", what)
		case in.kind == iPWrite && l == iface.MPIIO && o.appendBase:
			return r.errf("pwrite append on mpiio file")
		case l != iface.Posix && l != iface.MPIIO:
			return r.errf("%s on %s file", what, l)
		}
	case iReadWrap:
		if l != iface.Stdio {
			return r.errf("readwrap on %s file", l)
		}
	}
	var base int64
	if o.appendBase {
		// The file's size as its own node sees it: a node-local file's
		// size is its node's.
		base, _ = f.Size()
	} else if base, err = r.evalOr(in.d, 0); err != nil {
		return err
	}
	total, err := r.eval(in.a)
	if err != nil {
		return err
	}
	granule := total // readwrap's is required
	if in.b != nil {
		if granule, err = r.eval(in.b); err != nil {
			return err
		}
	}
	limit, err := r.evalOr(in.c, math.MaxInt64)
	if err != nil {
		return err
	}
	if granule <= 0 {
		return r.errf("granule %d not positive", granule)
	}
	fr[sBase], fr[sTotal], fr[sGranule], fr[sLimit], fr[sOff] = base, total, granule, limit, 0
	return nil
}
