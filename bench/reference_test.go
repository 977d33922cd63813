package main

import (
	"encoding/binary"
	"testing"
	"time"
)

// Every ring is one cycle through all of its entries, so the chase cannot
// settle into a short loop that fits a cache.
func TestReferenceRingIsOneCycle(t *testing.T) {
	r := newReference()
	defer r.close()
	if len(r.rings) == 0 {
		t.Fatal("no rings")
	}
	for k, ring := range r.rings {
		if len(ring) != 4*refRingEntries {
			t.Fatalf("ring %d has %d bytes", k, len(ring))
		}
		j, steps := uint32(0), 0
		for {
			j = binary.LittleEndian.Uint32(ring[4*j:])
			steps++
			if j == 0 || steps > refRingEntries {
				break
			}
		}
		if steps != refRingEntries {
			t.Errorf("ring %d returns to its start after %d steps, want %d", k, steps, refRingEntries)
		}
	}
	if d := r.measure(); d <= 0 {
		t.Errorf("measure() = %v", d)
	}
}

func TestSlowdown(t *testing.T) {
	if got := slowdown(refNominal, refNominal); got != 1 {
		t.Errorf("nominal readings give slowdown %v", got)
	}
	if got := slowdown(refNominal, 3*refNominal); got != 2 {
		t.Errorf("slowdown(1x, 3x) = %v, want their mean 2", got)
	}
	var none *reference // no reference: times stay as measured
	if got := slowdown(none.measure(), none.measure()); got != 1 {
		t.Errorf("a nil reference gives slowdown %v", got)
	}
}

// A round the machine ran at half speed reads the same at reference speed
// as one it ran at full speed.
func TestPerRoundAtReferenceSpeed(t *testing.T) {
	op := func(d time.Duration) sample { return sample{class: "x", dur: d, events: 1000} }
	p := phase{
		samples: []sample{op(10 * time.Millisecond), op(20 * time.Millisecond), op(20 * time.Millisecond), op(40 * time.Millisecond)},
		ends: []roundEnd{
			{upto: 2, wall: 30 * time.Millisecond, slow: 1},
			{upto: 4, wall: 60 * time.Millisecond, slow: 2},
		},
	}
	lat := p.perRound(func(ss []sample, e roundEnd) float64 { return median(durations(ss)) / e.slow })
	if len(lat) != 2 || lat[0] != 15 || lat[1] != 15 {
		t.Errorf("median op per round at reference speed = %v, want [15 15]", lat)
	}
	thr := p.perRound(func(ss []sample, e roundEnd) float64 { return 2000 / e.wall.Seconds() * e.slow })
	if thr[0] != thr[1] {
		t.Errorf("throughput per round at reference speed = %v, want equal", thr)
	}
}
