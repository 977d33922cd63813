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
	set := make(map[string]int64, len(times))
	for param, d := range times {
		set[param] = int64(d)
	}
	return GoldenSet(t, name, set)
}

// GoldenSet is Golden for params of every kind: counts and byte sizes as
// they are, times in nanoseconds.
func GoldenSet(t testing.TB, name string, set map[string]int64) workloads.Workload {
	t.Helper()
	doc, err := spec.Golden(name)
	if err != nil {
		t.Fatal(err)
	}
	for param, v := range set {
		if err := doc.Set(param, v); err != nil {
			t.Fatal(err)
		}
	}
	return doc.Compile()
}
