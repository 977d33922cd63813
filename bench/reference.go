package main

import (
	"encoding/binary"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// The machine reference. A benchmark on a shared machine measures the
// neighbours as well as the program: on the 2-core VM this was written on,
// the same op's 20 s median moved by 60 % within ten minutes while the
// hypervisor stole cycles, and a fixed harness-side kernel moved with it.
// So the harness runs that kernel before and after every round and every
// set-up, and reports wall-clock metrics at reference speed: a time is
// divided by the slowdown the kernel saw around it. A change to the
// program cannot move the kernel, so regressions show undiminished, while
// the machine's moods largely cancel (the same ten minutes: 10 %).
//
// The kernel is a dependent-load chase through a random cycle, one ring
// per worker the ops fan out to, because the ops are bound by memory
// latency and scheduling like it is, not by arithmetic or streaming
// bandwidth (those tracked the op with twice the residual). The rings live
// outside the Go heap so the reference cannot change the GC pacing of the
// program under test.
const (
	refRingEntries = 2 << 20 // 8 MiB of uint32 per ring: past L2, so loads miss
	refSteps       = 10_000  // loads per chunk
	refChunks      = 40      // chunks per run, shared by the workers
	refReadings    = 3

	// refNominal is one measure() on the quiet machine: the speed at which
	// reported times equal measured times. A different machine type reads
	// every time scaled by one constant, which no comparison on that
	// machine notices.
	refNominal = 9 * time.Millisecond
)

var refSink atomic.Uint64

type reference struct {
	rings [][]byte
	free  []func()
}

// newReference builds one ring per worker. The cycle is the same in every
// process: it comes from a fixed seed, not from the workload's.
func newReference() *reference {
	r := &reference{}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		ring, free := allocRing(4 * refRingEntries)
		// Sattolo's shuffle: a permutation that is one single cycle, so the
		// chase visits the whole ring before it repeats.
		next := make([]uint32, refRingEntries)
		for j := range next {
			next[j] = uint32(j)
		}
		for j := len(next) - 1; j > 0; j-- {
			k := rng.Intn(j)
			next[j], next[k] = next[k], next[j]
		}
		for j, v := range next {
			binary.LittleEndian.PutUint32(ring[4*j:], v)
		}
		r.rings = append(r.rings, ring)
		r.free = append(r.free, free)
	}
	return r
}

func (r *reference) close() {
	for _, f := range r.free {
		f()
	}
	r.rings, r.free = nil, nil
}

// measure is one reading of the reference: the median of refReadings
// back-to-back runs of the kernel, after one run that is thrown away
// because it pays for waking the workers' processors. Without a reference
// every reading is the nominal one, so times stay as measured.
func (r *reference) measure() time.Duration {
	if r == nil {
		return refNominal
	}
	r.once()
	xs := make([]float64, refReadings)
	for i := range xs {
		xs[i] = float64(r.once())
	}
	return time.Duration(median(sorted(xs)))
}

// once runs the kernel: refChunks chunks of refSteps dependent loads,
// pulled from a shared counter by one worker per ring, the way the ops'
// own workers pull chunks. A worker the hypervisor parks leaves its share
// to the others, so the reading is the machine's capacity for this kind of
// work, not the luck of its unluckiest thread.
func (r *reference) once() time.Duration {
	t0 := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, ring := range r.rings {
		wg.Add(1)
		go func(ring []byte) {
			defer wg.Done()
			j := uint32(0)
			for next.Add(1) <= refChunks {
				for i := 0; i < refSteps; i++ {
					j = binary.LittleEndian.Uint32(ring[4*j:])
				}
			}
			refSink.Add(uint64(j)) // keeps the loop
		}(ring)
	}
	wg.Wait()
	return time.Since(t0)
}

// slowdown is how much slower than the quiet machine the kernel ran
// around a measurement: the mean of the readings before and after it
// over the nominal one.
func slowdown(before, after time.Duration) float64 {
	return float64(before+after) / 2 / float64(refNominal)
}
