package workloads_test

import (
	"crypto/sha256"
	"encoding/hex"
	"sync"
	"sync/atomic"
	"testing"
	_ "unsafe" // for go:linkname

	"vani/internal/spec"
	"vani/internal/trace"
)

// tracePoison is internal/trace's poisonRecycled switch: while it is set,
// every log chunk a Tracer hands back to the pool is overwritten with a
// sentinel event. Linking to it keeps the switch out of trace's API.
//
//go:linkname tracePoison vani/internal/trace.poisonRecycled
var tracePoison atomic.Bool

// TestTracesSurviveRecycledPages: the seven workloads run twice each, four
// at a time, so tracers record into log chunks other tracers just handed
// back, and sort into event arrays released traces just handed back — both
// poisoned on the way in. Every trace must still encode to its golden hash:
// no slot a tracer did not write reaches a Trace.
func TestTracesSurviveRecycledPages(t *testing.T) {
	tracePoison.Store(true)
	defer tracePoison.Store(false)

	var jobs []spec.Workload
	for round := 0; round < 2; round++ {
		jobs = append(jobs, spec.All()...)
	}
	next := make(chan spec.Workload)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for w := range next {
				res, err := w.Run(tinySpec(w, 0.01))
				if err != nil {
					t.Errorf("Run(%s): %v", w.Name(), err)
					continue
				}
				h := sha256.New()
				if err := trace.WriteV2(h, res.Trace); err != nil {
					t.Errorf("%s: %v", w.Name(), err)
					continue
				}
				if got := hex.EncodeToString(h.Sum(nil)); got != traceGolden[w.Name()] {
					t.Errorf("%s over recycled pages: trace sha256 %s, want %s", w.Name(), got, traceGolden[w.Name()])
				}
				res.Trace.Release()
			}
		}()
	}
	for _, w := range jobs {
		next <- w
	}
	close(next)
	wg.Wait()
}
