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
	"fmt"
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
	file    int32
	offset  int64
	size    int64
	start   time.Duration // recorded start, for think-time gaps
	created bool          // first writer creates the file
}

// Run replays the trace's primary-level I/O events under the candidate
// configuration and reports the re-simulated timing.
func Run(tr *trace.Trace, opt Options) (*Result, error) {
	if tr.Meta.Nodes <= 0 || tr.Meta.Ranks <= 0 {
		return nil, fmt.Errorf("replay: trace has no job metadata")
	}
	scripts, err := buildScripts(tr)
	if err != nil {
		return nil, err
	}
	e := sim.NewEngine()
	sys := storage.New(e, opt.Storage, tr.Meta.Nodes, sim.NewRNG(opt.Seed))

	// Stage input files: anything read before it is written must exist.
	stageInputs(tr, sys, scripts)

	res := &Result{Sys: sys}
	var totalIO int64 // summed per-op durations in ns
	ranksPerNode := tr.Meta.Ranks / tr.Meta.Nodes
	if ranksPerNode == 0 {
		ranksPerNode = 1
	}
	// Spawn ranks in order: map iteration order would otherwise leak into
	// FCFS arrival order and break determinism.
	ranks := make([]int, 0, len(scripts))
	for rank := range scripts {
		ranks = append(ranks, rank)
	}
	sort.Ints(ranks)
	for _, rank := range ranks {
		ops := scripts[rank]
		if len(ops) == 0 {
			continue
		}
		rank := rank
		node := rank / ranksPerNode
		if node >= tr.Meta.Nodes {
			node = tr.Meta.Nodes - 1
		}
		e.Spawn(fmt.Sprintf("replay-rank%d", rank), func(p *sim.Proc) {
			var lastRecorded time.Duration
			for i, op := range ops {
				if opt.PreserveThinkTime && i > 0 {
					gap := op.start - lastRecorded
					if gap > 0 {
						p.Sleep(gap)
					}
				}
				lastRecorded = op.start
				t0 := p.Now()
				path := tr.FilePath(op.file)
				switch op.op {
				case trace.OpOpen:
					_ = sys.Open(p, node, path, op.created)
				case trace.OpClose:
					sys.Close(p, node, path)
				case trace.OpRead:
					_ = sys.Read(p, node, path, op.offset, op.size)
					res.Bytes += op.size
				case trace.OpWrite:
					_ = sys.Write(p, node, path, op.offset, op.size)
					res.Bytes += op.size
				case trace.OpSeek:
					sys.Seek(p, node, path)
				case trace.OpStat:
					_, _ = sys.Stat(p, node, path)
				case trace.OpSync:
					sys.Sync(p, node, path)
				default:
					continue
				}
				totalIO += int64(p.Now() - t0)
				res.Ops++
			}
		})
	}
	res.Runtime = e.Run()
	if err := e.Err(); err != nil {
		return nil, err
	}
	if n := len(scripts); n > 0 {
		res.IOTime = time.Duration(totalIO / int64(len(scripts)))
	}
	return res, nil
}

// buildScripts extracts each rank's primary-level I/O sequence.
func buildScripts(tr *trace.Trace) (map[int][]rankOp, error) {
	// Primary level per (app, file): the highest abstraction that touched
	// the file, mirroring the analyzer's dedup rule.
	type afKey struct{ app, file int32 }
	primary := map[afKey]trace.Level{}
	for i := range tr.Events {
		ev := &tr.Events[i]
		if !ev.Op.IsIO() {
			continue
		}
		k := afKey{ev.App, ev.File}
		cur, ok := primary[k]
		if !ok || ev.Level < cur {
			primary[k] = ev.Level
		}
	}
	written := map[int32]bool{}
	scripts := map[int][]rankOp{}
	for i := range tr.Events {
		ev := &tr.Events[i]
		if !ev.Op.IsIO() || ev.File < 0 {
			continue
		}
		if primary[afKey{ev.App, ev.File}] != ev.Level {
			continue
		}
		op := rankOp{
			op: ev.Op, file: ev.File, offset: ev.Offset, size: ev.Size,
			start: ev.Start,
		}
		if ev.Op == trace.OpOpen && !written[ev.File] {
			// The first open of a file that the job itself writes creates
			// it; opens of pre-existing inputs do not.
			if firstAccessIsWrite(tr, ev.File) {
				op.created = true
				written[ev.File] = true
			}
		}
		scripts[int(ev.Rank)] = append(scripts[int(ev.Rank)], op)
	}
	for rank := range scripts {
		ops := scripts[rank]
		sort.SliceStable(ops, func(i, j int) bool { return ops[i].start < ops[j].start })
	}
	return scripts, nil
}

// firstAccessIsWrite reports whether the file's first data op is a write
// (job-created) rather than a read (pre-existing input).
func firstAccessIsWrite(tr *trace.Trace, file int32) bool {
	for i := range tr.Events {
		ev := &tr.Events[i]
		if ev.File != file || !ev.Op.IsData() {
			continue
		}
		return ev.Op == trace.OpWrite
	}
	return false
}

// stageInputs materializes every file whose first access is a read, plus
// the final sizes of all files, so replayed reads always have backing
// bytes regardless of op interleaving across ranks.
func stageInputs(tr *trace.Trace, sys *storage.System, scripts map[int][]rankOp) {
	ranksPerNode := tr.Meta.Ranks / tr.Meta.Nodes
	if ranksPerNode == 0 {
		ranksPerNode = 1
	}
	seen := map[int32]bool{}
	for rank, ops := range scripts {
		node := rank / ranksPerNode
		if node >= tr.Meta.Nodes {
			node = tr.Meta.Nodes - 1
		}
		for _, op := range ops {
			if seen[op.file] {
				continue
			}
			seen[op.file] = true
			info := tr.Files[op.file]
			// Node-local paths must exist on every node that touches them;
			// materialize per accessing node (cheap, idempotent).
			sys.Materialize(node, info.Path, info.Size)
		}
	}
	// Second pass: node-local files accessed from several nodes need
	// per-node copies.
	for rank, ops := range scripts {
		node := rank / ranksPerNode
		if node >= tr.Meta.Nodes {
			node = tr.Meta.Nodes - 1
		}
		for _, op := range ops {
			info := tr.Files[op.file]
			sys.Materialize(node, info.Path, info.Size)
		}
	}
}
