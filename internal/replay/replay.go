// Package replay re-executes a captured trace against a storage
// configuration — the "what-if" half of the paper's vision. Once a
// workload has been characterized from one run, the storage system can
// evaluate candidate configurations by replaying the recorded I/O pattern
// instead of re-running the application: same ranks, same files, same
// offsets and sizes, same think time between calls, different stack.
//
// Replay drives the primary-level I/O events (the application-facing
// calls), so middleware effects captured in the trace (STDIO buffering,
// MPI-IO sync) are preserved as recorded, while the storage-side costs
// (PFS queueing, caching, metadata service) are recomputed under the
// candidate configuration.
package replay

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"sort"
	"time"

	"vani/internal/sim"
	"vani/internal/storage"
	"vani/internal/trace"
)

// Options configures a replay.
type Options struct {
	// Storage is the candidate configuration to evaluate.
	Storage storage.Config
	// PreserveThinkTime keeps the recorded gaps between a rank's
	// consecutive calls (compute, synchronization). When false the replay
	// issues ops back to back, measuring pure I/O capability.
	PreserveThinkTime bool
	// Seed drives the candidate stack's service jitter.
	Seed int64
}

// DefaultOptions replays against the recorded machine's Lassen-like stack
// with think time preserved.
func DefaultOptions() Options {
	return Options{Storage: storage.Lassen(), PreserveThinkTime: true, Seed: 1}
}

// Result is the outcome of one replay.
type Result struct {
	// Runtime is the virtual time to complete the replay.
	Runtime time.Duration
	// IOTime is the summed per-op service time across ranks divided by
	// the number of ranks — the mean per-rank I/O cost under the
	// candidate configuration.
	IOTime time.Duration
	// Ops and Bytes count what was replayed.
	Ops   int64
	Bytes int64
	// Sys exposes the candidate stack's counters.
	Sys *storage.System
}

// rankOp is one replayable operation.
type rankOp struct {
	op      trace.Op
	slot    int32 // the file, as an index into its node's files
	offset  int64
	size    int64
	start   time.Duration // recorded start, for think-time gaps
	created bool          // first writer creates the file
}

// script is one rank's primary-level I/O sequence.
type script struct {
	rank, node int
	ops        []rankOp
}

// Plan is a trace's replay worked out once: each rank's script and the
// files each node touches. Run replays it under one configuration; a Plan
// is never written after NewPlan, so any number of runs may share it
// concurrently.
type Plan struct {
	files     []trace.FileInfo
	scripts   []script  // ranks with at least one op, in rank order
	nodeFiles [][]int32 // per node a script runs on, the trace files its ranks touch
}

// Run replays the trace's primary-level I/O events under the candidate
// configuration and reports the re-simulated timing.
func Run(tr *trace.Trace, opt Options) (*Result, error) {
	pl, err := NewPlan(tr)
	if err != nil {
		return nil, err
	}
	return pl.Run(context.Background(), opt)
}

// Run replays the plan under the candidate configuration. Every file a
// node touches exists from the start at its final size, so replayed reads
// always have backing bytes whatever the interleaving across ranks, and
// each (node, file) is resolved once, before the first op. The replay
// stops with ctx.Err() once ctx is done.
func (pl *Plan) Run(ctx context.Context, opt Options) (*Result, error) {
	e := sim.NewEngine()
	sys := storage.New(e, opt.Storage, max(len(pl.nodeFiles), 1), sim.NewRNG(opt.Seed))
	handles := make([][]*storage.File, len(pl.nodeFiles))
	for node, files := range pl.nodeFiles {
		handles[node] = make([]*storage.File, len(files))
		for i, id := range files {
			info := &pl.files[id]
			sys.Materialize(node, info.Path, info.Size)
			handles[node][i] = sys.Resolve(node, info.Path)
		}
	}

	ranks := make([]rank, len(pl.scripts))
	for i, sc := range pl.scripts {
		ranks[i] = rank{ops: sc.ops, files: handles[sc.node], think: opt.PreserveThinkTime}
		e.SpawnStep(fmt.Sprintf("replay-rank%d", sc.rank), ranks[i].step)
	}
	res := &Result{Sys: sys, Runtime: e.RunContext(ctx)}
	if err := e.Err(); err != nil {
		return nil, err
	}
	var totalIO int64 // summed per-op durations in ns
	for i := range ranks {
		res.Ops += ranks[i].done
		res.Bytes += ranks[i].bytes
		totalIO += ranks[i].io
	}
	if n := len(pl.scripts); n > 0 {
		res.IOTime = time.Duration(totalIO / int64(n))
	}
	return res, nil
}

// rank is one script replaying as a step process: before each op after the
// first it waits out the recorded gap (with think time kept), then issues
// the op's call on one reused storage.Op and waits through every stage of
// it. An op replay does not issue is skipped; its gap is still waited.
type rank struct {
	ops   []rankOp
	files []*storage.File
	think bool

	i      int           // the op in hand
	waited bool          // op i's gap is over
	busy   bool          // op i's call is in flight
	t0     time.Duration // when it was issued
	o      storage.Op

	// What the rank replayed: calls, bytes moved and the summed time of
	// its calls in ns.
	done, bytes, io int64
}

func (r *rank) step(p *sim.Proc) (time.Duration, error) {
	for {
		if r.busy {
			if t, more := r.o.Step(); more {
				return t, nil
			}
			r.busy = false
			r.io += int64(p.Now() - r.t0)
			r.done++
			r.i++
		}
		if r.i == len(r.ops) {
			return sim.Done, nil
		}
		op := &r.ops[r.i]
		if r.think && r.i > 0 && !r.waited {
			r.waited = true
			if gap := op.start - r.ops[r.i-1].start; gap > 0 {
				return p.Now() + gap, nil
			}
		}
		r.waited = false
		f := r.files[op.slot]
		switch op.op {
		case trace.OpOpen:
			r.o.Open(f, op.created)
		case trace.OpClose:
			r.o.Close(f)
		case trace.OpRead:
			r.o.Read(f, op.offset, op.size)
			r.bytes += op.size
		case trace.OpWrite:
			r.o.Write(f, op.offset, op.size)
			r.bytes += op.size
		case trace.OpSeek:
			r.o.Seek(f)
		case trace.OpStat:
			r.o.Stat(f)
		case trace.OpSync:
			r.o.Sync(f)
		default:
			r.i++
			continue
		}
		r.t0, r.busy = p.Now(), true
	}
}

// NewPlan extracts each rank's primary-level I/O sequence from the trace.
// Only the nodes its ranks run on are numbered, densely and in ascending
// node order, so a header claiming more nodes than the log's events use
// costs nothing.
func NewPlan(tr *trace.Trace) (*Plan, error) {
	if tr.Meta.Nodes <= 0 || tr.Meta.Ranks <= 0 {
		return nil, fmt.Errorf("replay: trace has no job metadata")
	}
	nfiles := len(tr.Files)
	// Primary level per (app, file): the highest abstraction that touched
	// the file, mirroring the analyzer's dedup rule. A file is created by
	// the job when its first data op is a write; otherwise it is a
	// pre-existing input.
	type afKey struct{ app, file int32 }
	primary := map[afKey]trace.Level{}
	creates := make([]bool, nfiles) // until the file's first open is planned
	hasData := make([]bool, nfiles)
	for i := range tr.Events {
		ev := &tr.Events[i]
		if !ev.Op.IsIO() {
			continue
		}
		if ev.File >= int32(nfiles) {
			return nil, fmt.Errorf("replay: event %d names file %d of %d", i, ev.File, nfiles)
		}
		k := afKey{ev.App, ev.File}
		cur, ok := primary[k]
		if !ok || ev.Level < cur {
			primary[k] = ev.Level
		}
		if ev.File >= 0 && ev.Op.IsData() && !hasData[ev.File] {
			hasData[ev.File], creates[ev.File] = true, ev.Op == trace.OpWrite
		}
	}

	pl := &Plan{files: tr.Files}
	ranksPerNode := max(tr.Meta.Ranks/tr.Meta.Nodes, 1)
	byRank := map[int32]int{} // rank -> index in pl.scripts
	nodeFiles := map[int][]int32{}
	slots := map[[2]int]int32{}
	for i := range tr.Events {
		ev := &tr.Events[i]
		if !ev.Op.IsIO() || ev.File < 0 {
			continue
		}
		if primary[afKey{ev.App, ev.File}] != ev.Level {
			continue
		}
		si, ok := byRank[ev.Rank]
		if !ok {
			si = len(pl.scripts)
			byRank[ev.Rank] = si
			node := min(int(ev.Rank)/ranksPerNode, tr.Meta.Nodes-1)
			pl.scripts = append(pl.scripts, script{rank: int(ev.Rank), node: node})
		}
		sc := &pl.scripts[si]
		slot, ok := slots[[2]int{sc.node, int(ev.File)}]
		if !ok {
			slot = int32(len(nodeFiles[sc.node]))
			slots[[2]int{sc.node, int(ev.File)}] = slot
			nodeFiles[sc.node] = append(nodeFiles[sc.node], ev.File)
		}
		op := rankOp{
			op: ev.Op, slot: slot, offset: ev.Offset, size: ev.Size,
			start: ev.Start,
		}
		if ev.Op == trace.OpOpen && creates[ev.File] {
			// The first open of a file that the job itself writes creates
			// it; opens of pre-existing inputs do not.
			op.created = true
			creates[ev.File] = false
		}
		sc.ops = append(sc.ops, op)
	}
	nodes := slices.Sorted(maps.Keys(nodeFiles))
	for _, node := range nodes {
		pl.nodeFiles = append(pl.nodeFiles, nodeFiles[node])
	}
	for i := range pl.scripts {
		pl.scripts[i].node, _ = slices.BinarySearch(nodes, pl.scripts[i].node)
	}
	// Spawn ranks in order: record order would otherwise leak into FCFS
	// arrival order.
	sort.Slice(pl.scripts, func(i, j int) bool { return pl.scripts[i].rank < pl.scripts[j].rank })
	for i := range pl.scripts {
		ops := pl.scripts[i].ops
		sort.SliceStable(ops, func(i, j int) bool { return ops[i].start < ops[j].start })
	}
	return pl, nil
}
