package spec

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"vani/internal/sim"
)

// stuckBehindEOF is a valid document whose rank 0 reads past the end of its
// file while every other rank waits at a barrier it will never pass.
const stuckBehindEOF = `
version: 1
name: stuck-behind-eof
app: sb
barriers:
  - sync
setup:
  - files:
      path: /p/gpfs1/sb/data.bin
      size: 10KiB
run:
  - when: rank == 0
    do:
      - open:
          iface: posix
          path: /p/gpfs1/sb/data.bin
      - pread:
          total: 16KiB
          granule: 4KiB
          clamp: false
      - close: {}
  - barrier:
      name: sync
`

// TestStoppedRankRunsDefersThroughCatch: when a rank fails while the others
// are parked, the engine unwinds every parked rank through its deferred
// calls. catch, deferred in each rank, makes the failing rank's failure the
// run's error and passes the engine's unwinding on instead of swallowing it,
// so defers outside catch still see it. Err is the failure, and no rank's
// goroutine outlives the run.
func TestStoppedRankRunsDefersThroughCatch(t *testing.T) {
	doc, err := Parse([]byte(stuckBehindEOF))
	if err != nil {
		t.Fatal(err)
	}
	w := doc.Compile()
	sp := w.DefaultSpec()
	sp.Nodes = 2
	before := runtime.NumGoroutine()
	if _, err := w.Run(sp); err == nil || !strings.Contains(err.Error(), "past EOF") {
		t.Errorf("Run error = %v, want the read past EOF", err)
	}
	waitGoroutines(t, before)

	// The same shape, with a defer outside catch in every rank.
	const ranks = 4
	e := sim.NewEngine()
	bar := sim.NewBarrier(e, ranks)
	boom := errors.New("boom")
	deferred, passedOn := 0, 0
	for r := 0; r < ranks; r++ {
		e.Spawn("rank", func(p *sim.Proc) {
			defer func() {
				deferred++
				if v := recover(); v != nil {
					passedOn++
					panic(v)
				}
			}()
			defer catch(e)
			if r == 0 {
				p.Sleep(time.Second)
				panic(failure{boom})
			}
			bar.Wait(p)
		})
	}
	e.Run()
	if e.Err() != boom {
		t.Errorf("Err = %v, want the rank's failure", e.Err())
	}
	if deferred != ranks || passedOn != ranks-1 {
		t.Errorf("%d ranks ran their defers, %d saw the unwinding past catch; want %d and %d",
			deferred, passedOn, ranks, ranks-1)
	}
	if e.Live() != 0 {
		t.Errorf("%d ranks live after the run", e.Live())
	}
	waitGoroutines(t, before)
}

// waitGoroutines waits for the goroutine count to fall back to want: an
// unwound rank hands control back before its goroutine is quite gone.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > want; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, want %d: ranks left parked", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}
