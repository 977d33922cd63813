package spec

import (
	"runtime"
	"strings"
	"testing"
	"time"
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

// TestStoppedRankRunReturnsItsError: when a rank fails while the others
// are parked at a barrier it will never reach, Run returns the failing
// rank's error, and no process or goroutine outlives the run.
func TestStoppedRankRunReturnsItsError(t *testing.T) {
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
