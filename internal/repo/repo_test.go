package repo

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"vani/internal/trace"
	"vani/internal/workloads"
)

// traceBytes encodes a synthetic VANITRC2 trace; n varies the content so
// distinct n give distinct content hashes and characterizations.
func traceBytes(t *testing.T, workload string, n int) []byte {
	t.Helper()
	tr := trace.NewTracer()
	tr.SetMeta(trace.Meta{Workload: workload, Nodes: 4, Ranks: 16, PFSDir: "/p/gpfs1"})
	file := tr.FileID("/p/gpfs1/data")
	for i := 0; i < n; i++ {
		start := time.Duration(i) * time.Microsecond
		op := trace.OpWrite
		if i%3 == 0 {
			op = trace.OpRead
		}
		tr.Record(trace.Event{
			Level: trace.LevelPosix, Op: op, Rank: int32(i % 16),
			File: file, Offset: int64(i) * 4096, Size: 4096,
			Start: start, End: start + time.Microsecond,
		})
	}
	var buf bytes.Buffer
	if err := trace.WriteV2(&buf, tr.Finish()); err != nil {
		t.Fatalf("encoding trace: %v", err)
	}
	return buf.Bytes()
}

func mustAdd(t *testing.T, r *Repo, b []byte) string {
	t.Helper()
	sha, _, err := r.Add(bytes.NewReader(b))
	if err != nil {
		t.Fatalf("Add: %v", err)
	}
	return sha
}

func testChar() CharFunc {
	cfg := workloads.DefaultSpec().Storage
	return DefaultCharacterizer(&cfg, 1)
}

func fleetYAML(t *testing.T, r *Repo, workload string, par int) []byte {
	t.Helper()
	fr, err := r.FleetQuery(context.Background(), Query{Workload: workload, Parallelism: par}, testChar())
	if err != nil {
		t.Fatalf("FleetQuery: %v", err)
	}
	return fr.YAML()
}

// TestFleetMergeEquivalence is the determinism contract: byte-identical
// fleet YAML regardless of upload order, worker count, compaction state,
// and a close/reopen cycle.
func TestFleetMergeEquivalence(t *testing.T) {
	traces := [][]byte{
		traceBytes(t, "hacc", 400),
		traceBytes(t, "hacc", 900),
		traceBytes(t, "hacc", 1600),
	}

	ra, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ra.Close()
	for _, b := range traces {
		mustAdd(t, ra, b)
	}

	rb, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rb.Close()
	for i := len(traces) - 1; i >= 0; i-- {
		mustAdd(t, rb, traces[i])
	}

	want := fleetYAML(t, ra, "", 1)
	if len(want) == 0 {
		t.Fatal("empty fleet YAML")
	}
	if got := fleetYAML(t, rb, "", 4); !bytes.Equal(got, want) {
		t.Errorf("upload order / parallelism changed the fleet YAML:\n%s\nvs\n%s", want, got)
	}

	// Compaction must be invisible to queries.
	if n, err := rb.CompactNow(); err != nil || n != 3 {
		t.Fatalf("CompactNow = %d, %v; want 3 packed", n, err)
	}
	if got := fleetYAML(t, rb, "", 2); !bytes.Equal(got, want) {
		t.Errorf("compaction changed the fleet YAML")
	}

	// So must a restart, compacted or not.
	dir := rb.dir
	if err := rb.Close(); err != nil {
		t.Fatal(err)
	}
	rb2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rb2.Close()
	if got := fleetYAML(t, rb2, "", 1); !bytes.Equal(got, want) {
		t.Errorf("reopen changed the fleet YAML")
	}
}

// TestFleetWorkloadScope checks the per-workload shard filter.
func TestFleetWorkloadScope(t *testing.T) {
	r, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	mustAdd(t, r, traceBytes(t, "hacc", 500))
	mustAdd(t, r, traceBytes(t, "cm1", 700))

	fr, err := r.FleetQuery(context.Background(), Query{Workload: "cm1"}, testChar())
	if err != nil {
		t.Fatal(err)
	}
	if fr.Runs != 1 {
		t.Fatalf("workload-scoped query saw %d runs, want 1", fr.Runs)
	}
	all, err := r.FleetQuery(context.Background(), Query{}, testChar())
	if err != nil {
		t.Fatal(err)
	}
	if all.Runs != 2 {
		t.Fatalf("unscoped query saw %d runs, want 2", all.Runs)
	}
}

// TestCompactorCrashSafety kills the compactor between the pack rename and
// the manifest record: the next boot must delete the orphan pack, keep
// every loose trace, and answer fleet queries byte-identically. A real
// compaction afterwards must also leave the YAML unchanged while shrinking
// the repository's on-disk footprint.
func TestCompactorCrashSafety(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{400, 900, 1600} {
		mustAdd(t, r, traceBytes(t, "hacc", n))
	}
	want := fleetYAML(t, r, "", 1)
	looseBytes := r.Stats().Bytes

	boom := errors.New("simulated crash after pack rename")
	r.hookAfterPackRename = func() error { return boom }
	if _, err := r.CompactNow(); !errors.Is(err, boom) {
		t.Fatalf("CompactNow error = %v, want the injected crash", err)
	}
	// The crash window left an orphan pack and no manifest record.
	orphans, err := filepath.Glob(filepath.Join(dir, "packs", "*.vpk"))
	if err != nil || len(orphans) != 1 {
		t.Fatalf("orphan packs = %v, %v; want exactly one", orphans, err)
	}
	// Abandon r without Close — the manifest checkpoint never saw the pack.

	r2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if left, _ := filepath.Glob(filepath.Join(dir, "packs", "*.vpk")); len(left) != 0 {
		t.Errorf("boot kept orphan packs: %v", left)
	}
	st := r2.Stats()
	if st.Files != 3 {
		t.Fatalf("recovered %d traces, want 3", st.Files)
	}
	if got := fleetYAML(t, r2, "", 1); !bytes.Equal(got, want) {
		t.Errorf("crash recovery changed the fleet YAML")
	}

	if n, err := r2.CompactNow(); err != nil || n != 3 {
		t.Fatalf("CompactNow after recovery = %d, %v; want 3 packed", n, err)
	}
	if got := fleetYAML(t, r2, "", 1); !bytes.Equal(got, want) {
		t.Errorf("real compaction changed the fleet YAML")
	}
	if packed := r2.Stats().Bytes; packed >= looseBytes {
		t.Errorf("compaction grew the repo: %d -> %d bytes", looseBytes, packed)
	}
}

// TestRescanAdoptsShardFiles loses the whole manifest: boot must rebuild
// the index from the shard tree alone (hash-verified adoption).
func TestRescanAdoptsShardFiles(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sha1 := mustAdd(t, r, traceBytes(t, "hacc", 400))
	sha2 := mustAdd(t, r, traceBytes(t, "hacc", 900))
	want := fleetYAML(t, r, "", 1)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	os.Remove(filepath.Join(dir, "manifest.ckpt"))
	os.Remove(filepath.Join(dir, "manifest.log"))

	r2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	shas := r2.List("")
	if len(shas) != 2 || shas[0] > shas[1] {
		t.Fatalf("adopted %v, want both traces sha-sorted", shas)
	}
	for _, want := range []string{sha1, sha2} {
		if shas[0] != want && shas[1] != want {
			t.Fatalf("adoption lost %s (got %v)", want, shas)
		}
	}
	if got := fleetYAML(t, r2, "", 1); !bytes.Equal(got, want) {
		t.Errorf("manifest loss changed the fleet YAML")
	}
}

// TestAddDedupAndRejection: identical bytes dedupe to one entry; garbage
// is rejected with ErrNotTrace and leaves no residue in tmp/.
func TestAddDedupAndRejection(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	b := traceBytes(t, "hacc", 300)
	s1, existed, err := r.Add(bytes.NewReader(b))
	if err != nil || existed {
		t.Fatalf("first Add: %q existed=%v err=%v", s1, existed, err)
	}
	s2, existed, err := r.Add(bytes.NewReader(b))
	if err != nil || !existed || s2 != s1 {
		t.Fatalf("second Add: %q existed=%v err=%v; want dedup to %q", s2, existed, err, s1)
	}
	if st := r.Stats(); st.Files != 1 {
		t.Fatalf("Files = %d after dedup, want 1", st.Files)
	}

	if _, _, err := r.Add(bytes.NewReader([]byte("not a trace at all"))); !errors.Is(err, ErrNotTrace) {
		t.Fatalf("garbage Add error = %v, want ErrNotTrace", err)
	}
	if left, _ := os.ReadDir(filepath.Join(dir, "tmp")); len(left) != 0 {
		t.Errorf("rejected upload left tmp residue: %v", left)
	}
}

// TestGCRetention drops only entries older than RetainAge, by the
// injected clock, including whole packs once their last member goes.
func TestGCRetention(t *testing.T) {
	cur := time.Unix(1700000000, 0)
	r, err := Open(t.TempDir(), Options{
		RetainAge: 24 * time.Hour,
		Now:       func() time.Time { return cur },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	old1 := mustAdd(t, r, traceBytes(t, "hacc", 400))
	old2 := mustAdd(t, r, traceBytes(t, "hacc", 900))
	if n, err := r.CompactNow(); err != nil || n != 2 {
		t.Fatalf("CompactNow = %d, %v; want 2", n, err)
	}
	cur = cur.Add(48 * time.Hour)
	fresh := mustAdd(t, r, traceBytes(t, "hacc", 1600))

	dropped, err := r.GC()
	if err != nil || dropped != 2 {
		t.Fatalf("GC = %d, %v; want 2 dropped (%s, %s)", dropped, err, old1, old2)
	}
	shas := r.List("")
	if len(shas) != 1 || shas[0] != fresh {
		t.Fatalf("List after GC = %v, want only %s", shas, fresh)
	}
	// The pack's last member dropped with the old traces: file gone too.
	if left, _ := filepath.Glob(filepath.Join(r.dir, "packs", "*.vpk")); len(left) != 0 {
		t.Errorf("GC kept dead packs: %v", left)
	}
}

// TestHandlePinsDoomedFile: a file doomed by GC while a scan holds it
// survives until the last release, then disappears.
func TestHandlePinsDoomedFile(t *testing.T) {
	cur := time.Unix(1700000000, 0)
	r, err := Open(t.TempDir(), Options{
		RetainAge: time.Hour,
		Now:       func() time.Time { return cur },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	sha := mustAdd(t, r, traceBytes(t, "hacc", 400))

	h, err := r.Acquire(sha)
	if err != nil {
		t.Fatal(err)
	}
	cur = cur.Add(2 * time.Hour)
	if n, err := r.GC(); err != nil || n != 1 {
		t.Fatalf("GC = %d, %v; want 1", n, err)
	}
	if _, err := os.Stat(h.Path()); err != nil {
		t.Fatalf("pinned file removed under the scan: %v", err)
	}
	h.Close()
	if _, err := os.Stat(h.Path()); !os.IsNotExist(err) {
		t.Fatalf("released doomed file still on disk (err=%v)", err)
	}
	if _, err := r.Acquire(sha); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Acquire after GC = %v, want ErrNotFound", err)
	}
}

// TestGCRetainCount caps the store at N traces, dropping the oldest by
// upload time (SHA tie-break inside one instant).
func TestGCRetainCount(t *testing.T) {
	cur := time.Unix(1700000000, 0)
	r, err := Open(t.TempDir(), Options{
		RetainCount: 2,
		Now:         func() time.Time { return cur },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	oldest := mustAdd(t, r, traceBytes(t, "hacc", 400))
	cur = cur.Add(time.Hour)
	mid := mustAdd(t, r, traceBytes(t, "hacc", 900))
	cur = cur.Add(time.Hour)
	newest := mustAdd(t, r, traceBytes(t, "hacc", 1600))

	dropped, err := r.GC()
	if err != nil || dropped != 1 {
		t.Fatalf("GC = %d, %v; want 1 dropped", dropped, err)
	}
	shas := r.List("")
	if len(shas) != 2 {
		t.Fatalf("List after GC = %v, want 2 entries", shas)
	}
	for _, sha := range shas {
		if sha == oldest {
			t.Errorf("oldest trace %s survived a RetainCount GC over %s/%s", oldest, mid, newest)
		}
	}
	// Under the cap now: a second GC is a no-op.
	if n, err := r.GC(); err != nil || n != 0 {
		t.Fatalf("second GC = %d, %v; want 0", n, err)
	}
}

// TestGCRetainBytes caps total stored bytes, again oldest-first, and
// composes with RetainAge (age pass runs first).
func TestGCRetainBytes(t *testing.T) {
	cur := time.Unix(1700000000, 0)
	r, err := Open(t.TempDir(), Options{
		RetainAge:   24 * time.Hour,
		RetainBytes: 1, // every byte over budget: only dropping to one trace can't satisfy it either
		Now:         func() time.Time { return cur },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	mustAdd(t, r, traceBytes(t, "hacc", 400))
	cur = cur.Add(time.Hour)
	mustAdd(t, r, traceBytes(t, "hacc", 900))

	// Budget of one byte: everything must go, oldest first.
	dropped, err := r.GC()
	if err != nil || dropped != 2 {
		t.Fatalf("GC = %d, %v; want 2 dropped", dropped, err)
	}
	if shas := r.List(""); len(shas) != 0 {
		t.Fatalf("List after GC = %v, want empty", shas)
	}

	// A generous budget keeps everything.
	r2, err := Open(t.TempDir(), Options{RetainBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	mustAdd(t, r2, traceBytes(t, "hacc", 400))
	if n, err := r2.GC(); err != nil || n != 0 {
		t.Fatalf("GC under budget = %d, %v; want 0", n, err)
	}
}
