package server

import (
	"bytes"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"vani"
	"vani/internal/cliutil"
	"vani/internal/workloads"
)

// writeTraceFile encodes a synthetic v2 trace to a file and returns its path.
func writeTraceFile(t *testing.T, dir, name string, n int) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, testTraceBytes(t, n), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestBlockCacheZeroRedecode is the tentpole's server contract: a second
// query against a hot trace — a different filter spec, so a genuinely new
// characterization job — serves every block from the shared cache and
// performs zero block decodes, observable through /metrics. The report it
// serves is still byte-identical to the CLI pipeline.
func TestBlockCacheZeroRedecode(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2, QueueDepth: 8})
	if s.blocks == nil {
		t.Fatal("default config did not enable the block cache")
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := testTraceBytes(t, 40000)
	code, st1 := upload(t, ts, "/v1/traces?ranks=0-7", body)
	if code != 202 {
		t.Fatalf("first upload: status %d", code)
	}
	pollJob(t, ts, st1.ID)
	m1 := getMetrics(t, ts)
	if m1.BlockCacheMisses == 0 {
		t.Fatal("first job read no blocks through the cache")
	}
	if m1.BlockCacheBytes == 0 {
		t.Error("cache holds a trace but reports zero bytes")
	}
	if m1.ScanDecodedBytes == 0 {
		t.Fatal("first job decoded nothing")
	}

	// A different spec is a different report: the analyzer runs again, but
	// every block handle comes from the cache and no byte is re-decoded.
	code, st2 := upload(t, ts, "/v1/traces?ranks=8-15", body)
	if code != 202 {
		t.Fatalf("second upload: status %d", code)
	}
	if st2.ReportID == st1.ReportID {
		t.Fatal("different specs share a report id")
	}
	pollJob(t, ts, st2.ID)
	m2 := getMetrics(t, ts)
	if m2.BlockCacheHits == 0 {
		t.Error("second job hit the cache zero times")
	}
	if m2.BlockCacheMisses != m1.BlockCacheMisses {
		t.Errorf("second job missed the cache: %d -> %d", m1.BlockCacheMisses, m2.BlockCacheMisses)
	}
	if m2.ScanDecodedBytes != m1.ScanDecodedBytes {
		t.Errorf("second job re-decoded blocks: decoded bytes %d -> %d",
			m1.ScanDecodedBytes, m2.ScanDecodedBytes)
	}

	// The cache-served report matches the CLI pipeline byte for byte.
	code, gotYAML, _ := getReport(t, ts, st2.ReportID, "")
	if code != 200 {
		t.Fatalf("report: status %d", code)
	}
	path := writeTraceFile(t, t.TempDir(), "trace.trc", 40000)
	opt := vani.DefaultAnalyzerOptions()
	cfg := workloads.DefaultSpec().Storage
	opt.Storage = &cfg
	f, err := cliutil.ParseFilter("", "8-15", "", "")
	if err != nil {
		t.Fatal(err)
	}
	opt.Filter = f
	c, err := vani.CharacterizeFileWith(path, opt)
	if err != nil {
		t.Fatal(err)
	}
	if want := vani.ToYAML(c); !bytes.Equal(gotYAML, want) {
		t.Errorf("cache-served YAML differs from CLI output (%d vs %d bytes)", len(gotYAML), len(want))
	}
}

// TestBlockCacheDisabled: a negative budget turns the cache off and the
// plain file path serves everything; the cache counters never move.
func TestBlockCacheDisabled(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 4, CacheBytes: -1})
	if s.blocks != nil {
		t.Fatal("negative CacheBytes did not disable the block cache")
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := testTraceBytes(t, 20000)
	code, st := upload(t, ts, "/v1/traces", body)
	if code != 202 {
		t.Fatalf("upload: status %d", code)
	}
	if final := pollJob(t, ts, st.ID); final.Status != string(jobDone) {
		t.Fatalf("job failed: %+v", final)
	}
	m := getMetrics(t, ts)
	if m.BlockCacheHits != 0 || m.BlockCacheMisses != 0 || m.BlockCacheBytes != 0 {
		t.Errorf("cache disabled but counters moved: %+v", m)
	}
}

// TestBlockCacheEviction: the LRU respects its byte budget — an unpinned
// cold trace evicts to admit a new one — and pinned entries survive even
// when the budget is blown.
func TestBlockCacheEviction(t *testing.T) {
	dir := t.TempDir()
	pa := writeTraceFile(t, dir, "a.trc", 5000)
	pb := writeTraceFile(t, dir, "b.trc", 5000)

	m := &Metrics{}
	probe, err := newTraceEntry("probe", pa, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	entryBytes := probe.bytes
	probe.drop()

	// Budget fits one entry but not two.
	bc := newBlockCache(entryBytes+entryBytes/2, m)
	a, err := bc.acquire("sha-a", pa, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	bc.release(a)
	b, err := bc.acquire("sha-b", pb, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if bc.Len() != 1 {
		t.Fatalf("after eviction: %d entries, want 1", bc.Len())
	}
	if m.BlockCacheBytes.Load() != entryBytes {
		t.Errorf("gauge %d, want %d", m.BlockCacheBytes.Load(), entryBytes)
	}
	// b is pinned: admitting a again blows the budget but must not evict b.
	a2, err := bc.acquire("sha-a", pa, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if bc.Len() != 2 {
		t.Fatalf("pinned entry evicted: %d entries, want 2", bc.Len())
	}
	// Both sources still read fine.
	for _, cs := range []*cachedSource{b, a2} {
		if _, err := cs.ReadBlock(0); err != nil {
			t.Fatal(err)
		}
	}
	bc.release(b)
	bc.release(a2)
}

// TestCachedSourceMemoizesBlocks: repeated reads return the one published
// handle, and hit/miss counters split accordingly.
func TestCachedSourceMemoizesBlocks(t *testing.T) {
	path := writeTraceFile(t, t.TempDir(), "t.trc", 20000)
	m := &Metrics{}
	bc := newBlockCache(1<<30, m)
	cs, err := bc.acquire("sha", path, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer bc.release(cs)

	first, err := cs.ReadBlock(0)
	if err != nil {
		t.Fatal(err)
	}
	again, err := cs.ReadBlock(0)
	if err != nil {
		t.Fatal(err)
	}
	if first != again {
		t.Error("repeat read returned a different block handle")
	}
	if h, mi := m.BlockCacheHits.Load(), m.BlockCacheMisses.Load(); h != 1 || mi != 1 {
		t.Errorf("hits=%d misses=%d, want 1/1", h, mi)
	}
	// A second acquire of the same trace shares the published handles.
	cs2, err := bc.acquire("sha", path, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer bc.release(cs2)
	other, err := cs2.ReadBlock(0)
	if err != nil {
		t.Fatal(err)
	}
	if other != first {
		t.Error("second acquire re-read an already-published block")
	}
}
