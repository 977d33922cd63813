package spec

import (
	"errors"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"vani/internal/workloads"
)

// TestRuntimeFailuresAreErrors: a valid document whose run cannot finish —
// a read past EOF in a rank, a barrier not every rank reaches, a param that
// cannot evaluate, a ninth nested open, an empty random range, a file op
// with no file or on the wrong interface, a burst-buffer path on a machine
// without one, a task after an instance that does not exist or never runs,
// a negative stage count — is an error from workloads.Run carrying the
// cause, not a panic in a rank goroutine or in the engine, and it leaves no
// rank or task parked.
func TestRuntimeFailuresAreErrors(t *testing.T) {
	for file, want := range map[string]string{
		"past-eof.yaml":    "past EOF",
		"stuck.yaml":       "deadlock",
		"bad-param.yaml":   "division by zero",
		"open-nine.yaml":   "8 files already open",
		"rand-bound.yaml":  "rand bound 0 not positive",
		"seek-closed.yaml": "seek without an open file",
		"sync-closed.yaml": "sync without an open file",
		"sync-stdio.yaml":  "sync on stdio file",
		"no-bb.yaml":       "the machine has no @bb",

		"task-index-range.yaml":    "after a[2, 3) outside [0, 2)",
		"task-then-skipped.yaml":   "after fit[1], which never runs",
		"task-negative-count.yaml": "count -1 negative",
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

// TestParseErrors: documents the parser must refuse, each with ErrBadSpec
// and a message naming the fault.
func TestParseErrors(t *testing.T) {
	const head = "version: 1\nname: x\napp: x\n"
	// task is a tasks-block stage that computes for a second.
	task := func(name, extra string) string {
		return "  - stage: " + name + "\n" + extra + "    do:\n      - compute:\n          time: 1s\n"
	}
	for _, c := range []struct{ name, doc, want string }{
		{"unknown dir", head + "run:\n  - stat:\n      path: \"@nosuch/x\"\n", "unknown dir @nosuch"},
		{"dir named pfs", head + "dirs:\n  pfs:\n    path: /p/gpfs1\nrun:\n  - compute:\n      time: 1s\n", `"pfs" is a machine dir`},
		{"dir from a dir", head + "dirs:\n  a:\n    path: /a\n  b:\n    path: \"@a/b\"\nrun:\n  - compute:\n      time: 1s\n", "only start from @pfs or @bb"},
		{"let value and rand", head + "run:\n  - let:\n      name: n\n      value: 1\n      rand: 2\n", "exactly one of value/rand"},
		{"let neither", head + "run:\n  - let:\n      name: n\n", "exactly one of value/rand"},
		{"seek without at", head + "run:\n  - seek: {}\n", "at required"},
		{"sync with a key", head + "run:\n  - sync:\n      at: 0\n", "unknown key"},
		{"after an unknown stage", head + "tasks:\n" + task("a", "    after:\n      - stage: ghost\n"), `"ghost" is not an earlier stage`},
		{"after a later stage", head + "tasks:\n" + task("a", "    after:\n      - stage: b\n") + task("b", ""), `"b" is not an earlier stage`},
		{"after itself", head + "tasks:\n" + task("a", "    after:\n      - stage: a\n"), `"a" is not an earlier stage`},
		{"duplicate stage", head + "tasks:\n" + task("a", "") + task("a", ""), `duplicate stage "a"`},
		{"stage without a name", head + "tasks:\n  - count: 2\n    do:\n      - compute:\n          time: 1s\n", "tasks[0].stage: got <nil>"},
		{"stage without a body", head + "tasks:\n  - stage: a\n", "empty stage body"},
		{"barrier in a task", head + "barriers:\n  - b\ntasks:\n  - stage: a\n    do:\n      - barrier:\n          name: b\n", "barrier inside a task"},
		{"run and tasks", head + "run:\n  - compute:\n      time: 1s\ntasks:\n" + task("a", ""), "exactly one of run/tasks"},
		{"neither run nor tasks", head, "exactly one of run/tasks"},
		{"index and from", head + "tasks:\n" + task("a", "") + task("b", "    after:\n      - stage: a\n        index: 0\n        from: 0\n        until: 1\n"), "index excludes from/until"},
	} {
		_, err := Parse([]byte(c.doc))
		if !errors.Is(err, ErrBadSpec) || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Parse error = %v, want ErrBadSpec saying %q", c.name, err, c.want)
		}
	}
}
