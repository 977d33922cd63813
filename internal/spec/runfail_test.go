package spec

import (
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"vani/internal/workloads"
)

// TestRuntimeFailuresAreErrors: a valid document whose run cannot finish —
// a read past EOF in a rank, a barrier not every rank reaches, a param that
// cannot evaluate — is an error from workloads.Run carrying the cause, not a
// panic in a rank goroutine or in the engine, and it leaves no rank parked.
func TestRuntimeFailuresAreErrors(t *testing.T) {
	for file, want := range map[string]string{
		"past-eof.yaml":  "past EOF",
		"stuck.yaml":     "deadlock",
		"bad-param.yaml": "division by zero",
	} {
		doc, err := ParseFile(filepath.Join("testdata", file))
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		w := doc.Compile()
		sp := w.DefaultSpec()
		sp.Nodes = 2
		before := runtime.NumGoroutine()
		if _, err := workloads.Run(w, sp); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: Run error = %v, want one saying %q", file, err, want)
		}
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines after the run, %d before: ranks left parked",
					file, runtime.NumGoroutine(), before)
			}
			time.Sleep(time.Millisecond)
		}
	}
}
