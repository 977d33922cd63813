package spec

import (
	"context"
	"errors"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// TestRunContextStopsAtDeadline: a run that would go on for 2^40 simulated
// steps, stage 2^40 files before the engine starts, or spin 2^40 loop
// iterations that emit no event, ends soon after its context's deadline
// with an error that is the deadline's, and leaves no rank behind.
func TestRunContextStopsAtDeadline(t *testing.T) {
	forever, err := ParseFile(filepath.Join("testdata", "forever.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	staging, err := Parse([]byte(`version: 1
name: staging
app: st
setup:
  - files:
      path: /p/gpfs1/st/in.${i}
      count: 1099511627776
      size: 1KiB
run:
  - compute:
      time: 1s
`))
	if err != nil {
		t.Fatal(err)
	}
	spin, err := Parse([]byte(`version: 1
name: spin
app: sp
defaults:
  nodes: 1
  ranks_per_node: 1
run:
  - loop:
      var: s
      count: 1099511627776
      do:
        - let:
            name: x
            value: s % 7
        - when: 0
          do:
            - compute:
                time: 1s
`))
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range []*Doc{forever, staging, spin} {
		w := doc.Compile()
		before := runtime.NumGoroutine()
		const timeout = 50 * time.Millisecond
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		t0 := time.Now()
		_, err := w.RunContext(ctx, w.DefaultSpec())
		took := time.Since(t0)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%s: RunContext error = %v, want %v", doc.Name, err, context.DeadlineExceeded)
		}
		if took > timeout+time.Second {
			t.Errorf("%s: RunContext took %v with a %v timeout", doc.Name, took, timeout)
		}
		waitGoroutines(t, before)
	}
}
