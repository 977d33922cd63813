package trace

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// countFDs counts this process's open file descriptors via /proc/self/fd.
// Skips the calling test on platforms without procfs.
func countFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd on this platform: %v", err)
	}
	return len(ents)
}

// writeTraceFile encodes a random trace at path.
func writeTraceFile(t *testing.T, path string, n int) {
	t.Helper()
	tr := randomTrace(rand.New(rand.NewSource(7)), n)
	f, err := os.Create(path)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if err := WriteV2(f, tr); err != nil {
		t.Fatalf("WriteV2: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

func TestOpenBlockReaderRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "log.v2")
	writeTraceFile(t, path, 1000)

	br, err := OpenBlockReader(path)
	if err != nil {
		t.Fatalf("OpenBlockReader: %v", err)
	}
	got, err := br.ReadTrace(Filter{})
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	if total := len(got.Events); total != 1000 {
		t.Errorf("decoded %d events, want 1000", total)
	}
	if err := br.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	if err := br.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

// TestOpenNoFDLeakOnError audits every constructor error path: after a
// failed OpenBlockReader no descriptor may remain open. The count is taken via
// /proc/self/fd so a leak shows up as a strictly growing fd table.
func TestOpenNoFDLeakOnError(t *testing.T) {
	dir := t.TempDir()

	empty := filepath.Join(dir, "empty")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	badMagic := filepath.Join(dir, "bad-magic")
	if err := os.WriteFile(badMagic, []byte("NOTATRACEFILE###"), 0o644); err != nil {
		t.Fatal(err)
	}
	v1 := filepath.Join(dir, "log.v1")
	if err := os.WriteFile(v1, OldVintages(t)[0].Data, 0o644); err != nil {
		t.Fatal(err)
	}
	v2 := filepath.Join(dir, "log.v2")
	writeTraceFile(t, v2, 100)
	// A truncated v2 log: footer offset points past EOF.
	v2bytes, err := os.ReadFile(v2)
	if err != nil {
		t.Fatal(err)
	}
	truncated := filepath.Join(dir, "truncated.v2")
	if err := os.WriteFile(truncated, v2bytes[:len(v2bytes)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	before := countFDs(t)
	for i := 0; i < 16; i++ {
		if _, err := OpenBlockReader(badMagic); !errors.Is(err, ErrBadFormat) {
			t.Fatalf("OpenBlockReader(bad magic): want ErrBadFormat, got %v", err)
		}
		if _, err := OpenBlockReader(filepath.Join(dir, "missing")); err == nil {
			t.Fatal("OpenBlockReader(missing): want error")
		}
		if _, err := OpenBlockReader(empty); !errors.Is(err, ErrBadFormat) {
			t.Fatalf("OpenBlockReader(empty): want ErrBadFormat, got %v", err)
		}
		// A retired-vintage log: the block reader must reject it and close
		// the file.
		if _, err := OpenBlockReader(v1); !errors.Is(err, ErrBadFormat) {
			t.Fatalf("OpenBlockReader(v1 log): want ErrBadFormat, got %v", err)
		}
		if _, err := OpenBlockReader(truncated); !errors.Is(err, ErrBadFormat) {
			t.Fatalf("OpenBlockReader(truncated): want ErrBadFormat, got %v", err)
		}
	}
	after := countFDs(t)
	if after > before {
		t.Errorf("fd leak: %d open before, %d after error-path churn", before, after)
	}
}

// TestOpenNoFDLeakOnSuccess verifies the success path releases the
// descriptor on Close.
func TestOpenNoFDLeakOnSuccess(t *testing.T) {
	dir := t.TempDir()
	v2 := filepath.Join(dir, "log.v2")
	writeTraceFile(t, v2, 100)

	before := countFDs(t)
	for i := 0; i < 16; i++ {
		br, err := OpenBlockReader(v2)
		if err != nil {
			t.Fatalf("OpenBlockReader: %v", err)
		}
		br.Close()
	}
	after := countFDs(t)
	if after > before {
		t.Errorf("fd leak: %d open before, %d after open/close churn", before, after)
	}
}
