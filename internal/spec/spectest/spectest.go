// Package spectest builds golden-spec workloads for tests.
package spectest

import (
	"testing"
	"time"

	"vani/internal/spec"
	"vani/internal/workloads"
)

// Golden compiles the named golden spec with the given time params
// overridden (tests shrink or zero compute to keep runs short and I/O
// visible); nil leaves the document as shipped.
func Golden(t testing.TB, name string, times map[string]time.Duration) workloads.Workload {
	t.Helper()
	doc, err := spec.Golden(name)
	if err != nil {
		t.Fatal(err)
	}
	for param, d := range times {
		if err := doc.Set(param, int64(d)); err != nil {
			t.Fatal(err)
		}
	}
	return doc.Compile()
}
