package spec

import (
	"fmt"
	"testing"
	"time"

	"vani/internal/trace"
)

// scaleDurations multiplies every compute and GPU duration of a compiled
// program by k, in place, and returns how many it scaled.
func scaleDurations(p *program, k int64) (n int) {
	scale := func(prog []inst) {
		for i := range prog {
			if in := &prog[i]; in.kind == iCompute || in.kind == iGPU {
				n++
				in.a = &cx{
					src:  fmt.Sprintf("%d * (%s)", k, in.a.src),
					root: &node{op: nBin, bin: "*", a: &node{op: nLit, val: k}, b: in.a.root},
				}
			}
		}
	}
	scale(p.run)
	for i := range p.stages {
		scale(p.stages[i].prog)
	}
	return n
}

// ioKey is what the relation compares: one (app, file, level, op), by name.
type ioKey struct {
	app, file string
	level     trace.Level
	op        trace.Op
}

type ioTally struct{ events, bytes int64 }

func tallyIO(tr *trace.Trace) map[ioKey]ioTally {
	out := map[ioKey]ioTally{}
	for _, ev := range tr.Events {
		k := ioKey{tr.AppName(ev.App), tr.FilePath(ev.File), ev.Level, ev.Op}
		t := out[k]
		t.events++
		t.bytes += ev.Size
		out[k] = t
	}
	return out
}

// TestComputeScalingKeepsIO is a metamorphic relation: scaling every
// compute and GPU duration of a golden spec by k ∈ {2, 3} moves when its
// I/O happens, and nothing else — every (app, file, level, op) keeps its
// event count and bytes. The golden specs' paths are on the PFS, and the
// order of each rank's RNG draws does not depend on time, so no count or
// byte may depend on the timing of the computation around the I/O.
func TestComputeScalingKeepsIO(t *testing.T) {
	for _, name := range Names() {
		doc, err := Golden(name)
		if err != nil {
			t.Fatal(err)
		}
		scaled := 0 // ior computes nothing
		run := func(k int64) (map[ioKey]ioTally, time.Duration) {
			w := doc.Compile()
			scaled = scaleDurations(w.prog, k)
			sp := w.DefaultSpec()
			sp.Nodes, sp.RanksPerNode, sp.Scale = 4, min(sp.RanksPerNode, 4), 0.02
			res, err := w.Run(sp)
			if err != nil {
				t.Fatalf("%s ×%d: %v", name, k, err)
			}
			return tallyIO(res.Trace), res.Runtime
		}
		base, baseRuntime := run(1)
		for _, k := range []int64{2, 3} {
			got, runtime := run(k)
			if scaled > 0 && runtime <= baseRuntime {
				t.Errorf("%s, compute ×%d: runtime %v, unscaled %v: the durations did not scale", name, k, runtime, baseRuntime)
			}
			for key, want := range base {
				if got[key] != want {
					t.Errorf("%s, compute ×%d: %+v has %+v, unscaled %+v", name, k, key, got[key], want)
				}
			}
			for key, g := range got {
				if _, ok := base[key]; !ok {
					t.Errorf("%s, compute ×%d: %+v appears (%+v), unscaled it does not", name, k, key, g)
				}
			}
		}
	}
}
