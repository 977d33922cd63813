package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	_ "unsafe" // for go:linkname

	"vani"
	"vani/internal/cliutil"
	"vani/internal/trace"
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

// fileSize is the byte length of the file at path.
func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return info.Size()
}

// cliYAML is the CLI pipeline's report for the trace file at path under
// the given ranks and ops filter — what every served report must equal.
func cliYAML(t *testing.T, path, ranks, ops string) []byte {
	t.Helper()
	opt := vani.DefaultAnalyzerOptions()
	cfg := workloads.DefaultSpec().Storage
	opt.Storage = &cfg
	f, err := cliutil.ParseFilter("", ranks, "", ops)
	if err != nil {
		t.Fatal(err)
	}
	opt.Filter = f
	c, err := vani.CharacterizeFileContext(context.Background(), path, opt)
	if err != nil {
		t.Fatal(err)
	}
	return vani.ToYAML(c)
}

// published counts each cached trace's published block handles and sums
// the bytes block_cache_memo_bytes must show for them.
func published(bc *blockCache) (perSHA map[string]int, memoBytes int64) {
	bc.mu.Lock()
	defer bc.mu.Unlock()
	perSHA = make(map[string]int)
	for sha, el := range bc.bySHA {
		e := el.Value.(*traceEntry)
		for k := range e.blocks {
			if bd := e.blocks[k].Load(); bd != nil {
				perSHA[sha]++
				memoBytes += int64(bd.PayloadBytes()) + int64(bd.Count())*trace.MemoRowBytes
			}
		}
	}
	return perSHA, memoBytes
}

// TestBlockCacheZeroRedecode is the cache's server contract, one job per
// filter spec over the same bytes — each a genuinely new characterization.
// The first job reads every block and memoizes none; the second decodes
// again and fills the memo; the third performs zero block reads and zero
// decodes, observable through /metrics. Every served report is
// byte-identical to the CLI pipeline's.
func TestBlockCacheZeroRedecode(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2, QueueDepth: 8})
	if s.blocks == nil {
		t.Fatal("default config did not enable the block cache")
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := testTraceBytes(t, 40000)
	path := writeTraceFile(t, t.TempDir(), "trace.trc", 40000)
	var prev MetricsSnapshot
	seen := map[string]bool{}
	for scan, ranks := range []string{"0-7", "8-15", "4-11"} {
		code, st := upload(t, ts, "/v1/traces?ranks="+ranks, body)
		if code != 202 {
			t.Fatalf("scan %d: upload status %d", scan+1, code)
		}
		if seen[st.ReportID] {
			t.Fatalf("scan %d: different specs share a report id", scan+1)
		}
		seen[st.ReportID] = true
		if final := pollJob(t, s, ts, st.ID); final.Status != string(jobDone) {
			t.Fatalf("scan %d: job failed: %+v", scan+1, final)
		}
		m := getMetrics(t, ts)
		misses, decoded := m.BlockCacheMisses-prev.BlockCacheMisses, m.ScanDecodedBytes-prev.ScanDecodedBytes
		switch scan {
		case 0:
			if misses == 0 || decoded == 0 {
				t.Fatalf("first job read %d blocks and decoded %d bytes through the cache", misses, decoded)
			}
			if m.BlockCacheBytes == 0 {
				t.Error("cache holds a trace but reports zero bytes")
			}
			if m.BlockCacheMemoBytes != 0 {
				t.Errorf("a trace scanned once holds %d memo bytes", m.BlockCacheMemoBytes)
			}
		case 1:
			if misses == 0 || decoded == 0 {
				t.Errorf("second job read %d blocks and decoded %d bytes; it should fill the memo", misses, decoded)
			}
			if m.BlockCacheMemoBytes == 0 {
				t.Error("second job left no memo behind")
			}
		case 2:
			if m.BlockCacheHits == prev.BlockCacheHits {
				t.Error("third job hit the cache zero times")
			}
			if misses != 0 || decoded != 0 {
				t.Errorf("third job missed %d blocks and re-decoded %d bytes", misses, decoded)
			}
			if m.BlockCacheMemoBytes != prev.BlockCacheMemoBytes {
				t.Errorf("third job moved the memo gauge: %d -> %d", prev.BlockCacheMemoBytes, m.BlockCacheMemoBytes)
			}
		}
		_, memo := published(s.blocks)
		if m.BlockCacheMemoBytes != memo {
			t.Errorf("scan %d: block_cache_memo_bytes %d, published blocks hold %d", scan+1, m.BlockCacheMemoBytes, memo)
		}
		prev = m

		code, got, _ := getReport(t, ts, st.ReportID, "")
		if code != 200 {
			t.Fatalf("scan %d: report status %d", scan+1, code)
		}
		if want := cliYAML(t, path, ranks, ""); !bytes.Equal(got, want) {
			t.Errorf("scan %d: served YAML differs from CLI output (%d vs %d bytes)", scan+1, len(got), len(want))
		}
	}
}

// TestNonDefaultGeometryUploadMatchesCLI: a log written at 1,000 events per
// block is scanned through cachedSource and its blocks' column memos — the
// first two jobs miss on every block (the second publishes them), the third
// reads every block from the cache — and each served report equals the CLI
// pipeline's over the same bytes, byte for byte.
func TestNonDefaultGeometryUploadMatchesCLI(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2, QueueDepth: 8})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const events, blockEvents = 40000, 1000
	body := testTraceV2Bytes(t, trace.V2Options{BlockEvents: blockEvents}, events)
	path := filepath.Join(t.TempDir(), "trace.trc")
	if err := os.WriteFile(path, body, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, q := range []struct{ query, ranks, ops string }{
		{"?ranks=0-7", "0-7", ""},
		{"?ranks=8-15&ops=data", "8-15", "data"},
		{"", "", ""},
	} {
		code, st := upload(t, ts, "/v1/traces"+q.query, body)
		if code != 202 {
			t.Fatalf("upload %q: status %d", q.query, code)
		}
		if final := pollJob(t, s, ts, st.ID); final.Status != string(jobDone) {
			t.Fatalf("upload %q: job failed: %+v", q.query, final)
		}
		code, got, _ := getReport(t, ts, st.ReportID, "")
		if code != 200 {
			t.Fatalf("upload %q: report status %d", q.query, code)
		}
		if want := cliYAML(t, path, q.ranks, q.ops); !bytes.Equal(got, want) {
			t.Errorf("upload %q: served YAML differs from CLI output (%d vs %d bytes)", q.query, len(got), len(want))
		}
	}
	m := getMetrics(t, ts)
	if want := int64(2 * events / blockEvents); m.BlockCacheMisses != want {
		t.Errorf("block cache missed %d times, want twice per block (%d)", m.BlockCacheMisses, want)
	}
	if m.BlockCacheHits == 0 {
		t.Error("the third job never hit the block cache")
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
	if final := pollJob(t, s, ts, st.ID); final.Status != string(jobDone) {
		t.Fatalf("job failed: %+v", final)
	}
	m := getMetrics(t, ts)
	if m.BlockCacheHits != 0 || m.BlockCacheMisses != 0 || m.BlockCacheBytes != 0 || m.BlockCacheMemoBytes != 0 {
		t.Errorf("cache disabled but counters moved: %+v", m)
	}
}

// TestBlockCacheEviction: the LRU respects its byte budget — an unpinned
// cold trace evicts to admit a new one, taking its memo bytes off the
// gauge — and pinned entries survive even when the budget is blown.
func TestBlockCacheEviction(t *testing.T) {
	dir := t.TempDir()
	pa := writeTraceFile(t, dir, "a.trc", 5000)
	pb := writeTraceFile(t, dir, "b.trc", 5000)

	m := &Metrics{}
	probe, err := newTraceEntry("probe", pa, 0, fileSize(t, pa))
	if err != nil {
		t.Fatal(err)
	}
	entryBytes := probe.bytes
	probe.drop()

	// Budget fits one entry but not two.
	bc := newBlockCache(entryBytes+entryBytes/2, m)
	for scan := 0; scan < memoFromScan; scan++ {
		a, err := bc.acquire("sha-a", pa, 0, fileSize(t, pa))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.ReadBlock(0); err != nil {
			t.Fatal(err)
		}
		bc.release(a)
	}
	if m.BlockCacheMemoBytes.Load() == 0 {
		t.Fatal("a's memo scan published nothing")
	}
	b, err := bc.acquire("sha-b", pb, 0, fileSize(t, pb))
	if err != nil {
		t.Fatal(err)
	}
	if bc.Len() != 1 {
		t.Fatalf("after eviction: %d entries, want 1", bc.Len())
	}
	if m.BlockCacheBytes.Load() != entryBytes {
		t.Errorf("gauge %d, want %d", m.BlockCacheBytes.Load(), entryBytes)
	}
	if got := m.BlockCacheMemoBytes.Load(); got != 0 {
		t.Errorf("evicting a left %d memo bytes on the gauge", got)
	}
	// b is pinned: admitting a again blows the budget but must not evict b.
	a2, err := bc.acquire("sha-a", pa, 0, fileSize(t, pa))
	if err != nil {
		t.Fatal(err)
	}
	if bc.Len() != 2 {
		t.Fatalf("pinned entry evicted: %d entries, want 2", bc.Len())
	}
	// Both sources still read fine, and the re-admitted a counts its scans
	// afresh: this is its first, so it publishes nothing.
	for _, cs := range []*cachedSource{b, a2} {
		if _, err := cs.ReadBlock(0); err != nil {
			t.Fatal(err)
		}
	}
	if perSHA, _ := published(bc); perSHA["sha-a"] != 0 {
		t.Errorf("re-admitted entry published %d blocks on its first scan", perSHA["sha-a"])
	}
	bc.release(b)
	bc.release(a2)
}

// TestCachedSourceMemoizesBlocks: a first scan reads private handles and
// publishes none; from the second scan on, repeated reads return the one
// published handle, and hit/miss counters split accordingly.
func TestCachedSourceMemoizesBlocks(t *testing.T) {
	path := writeTraceFile(t, t.TempDir(), "t.trc", 20000)
	m := &Metrics{}
	bc := newBlockCache(1<<30, m)
	scan := func() (first, again *trace.BlockData) {
		t.Helper()
		cs, err := bc.acquire("sha", path, 0, fileSize(t, path))
		if err != nil {
			t.Fatal(err)
		}
		defer bc.release(cs)
		if first, err = cs.ReadBlock(0); err != nil {
			t.Fatal(err)
		}
		if again, err = cs.ReadBlock(0); err != nil {
			t.Fatal(err)
		}
		return first, again
	}

	if a, b := scan(); a == b {
		t.Error("a first scan shared one block handle between reads")
	}
	if h, mi, memo := m.BlockCacheHits.Load(), m.BlockCacheMisses.Load(), m.BlockCacheMemoBytes.Load(); h != 0 || mi != 2 || memo != 0 {
		t.Errorf("after the first scan: hits=%d misses=%d memo=%d, want 0/2/0", h, mi, memo)
	}

	first, again := scan()
	if first != again {
		t.Error("repeat read returned a different block handle")
	}
	if h, mi := m.BlockCacheHits.Load(), m.BlockCacheMisses.Load(); h != 1 || mi != 3 {
		t.Errorf("after the second scan: hits=%d misses=%d, want 1/3", h, mi)
	}
	if want := int64(first.PayloadBytes()) + int64(first.Count())*trace.MemoRowBytes; m.BlockCacheMemoBytes.Load() != want {
		t.Errorf("memo gauge %d, want %d", m.BlockCacheMemoBytes.Load(), want)
	}

	// Every later scan of the trace shares the published handle.
	if other, _ := scan(); other != first {
		t.Error("a third scan re-read an already-published block")
	}
}

// TestOneShotTracesHoldNoMemo: distinct uploads characterized once each —
// vanid's common case — leave no published block and no memo bytes behind;
// a second scan of one of them publishes exactly that trace's blocks.
func TestOneShotTracesHoldNoMemo(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2, QueueDepth: 8})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const k = 4
	bodies := make([][]byte, k)
	for i := range bodies {
		bodies[i] = testTraceBytes(t, 20000+1000*i)
		code, st := upload(t, ts, "/v1/traces", bodies[i])
		if code != 202 {
			t.Fatalf("upload %d: status %d", i, code)
		}
		if final := pollJob(t, s, ts, st.ID); final.Status != string(jobDone) {
			t.Fatalf("upload %d: job failed: %+v", i, final)
		}
	}
	if n := s.blocks.Len(); n != k {
		t.Fatalf("cache holds %d traces, want %d", n, k)
	}
	if perSHA, _ := published(s.blocks); len(perSHA) != 0 {
		t.Errorf("one-shot uploads published blocks: %v", perSHA)
	}
	if m := getMetrics(t, ts); m.BlockCacheMemoBytes != 0 {
		t.Errorf("one-shot uploads hold %d memo bytes", m.BlockCacheMemoBytes)
	}

	// A new spec over one trace is its second scan: it publishes every
	// block of that trace and nothing else.
	code, st := upload(t, ts, "/v1/traces?ranks=0-15", bodies[1])
	if code != 202 {
		t.Fatalf("second-scan upload: status %d", code)
	}
	if final := pollJob(t, s, ts, st.ID); final.Status != string(jobDone) {
		t.Fatalf("second-scan job failed: %+v", final)
	}
	sum := sha256.Sum256(bodies[1])
	sha := hex.EncodeToString(sum[:])
	br, err := trace.NewBlockReader(bytes.NewReader(bodies[1]), int64(len(bodies[1])))
	if err != nil {
		t.Fatal(err)
	}
	perSHA, memo := published(s.blocks)
	if len(perSHA) != 1 || perSHA[sha] != br.NumBlocks() {
		t.Errorf("published %v, want only %s… with all %d blocks", perSHA, sha[:8], br.NumBlocks())
	}
	if m := getMetrics(t, ts); m.BlockCacheMemoBytes != memo || memo == 0 {
		t.Errorf("block_cache_memo_bytes %d, published blocks hold %d", m.BlockCacheMemoBytes, memo)
	}
}

// TestBlockCacheConcurrentFirstAndSecondScan: a fresh trace's first and
// second scans run at once under different filters — one reads private
// handles while the other publishes and memoizes — and both served reports
// equal the CLI pipeline's byte for byte.
func TestBlockCacheConcurrentFirstAndSecondScan(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2, QueueDepth: 8})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	specs := []struct{ ranks, ops string }{{"0-7", ""}, {"8-15", "data"}}
	for _, n := range []int{30000, 40000} {
		body := testTraceBytes(t, n)
		path := writeTraceFile(t, t.TempDir(), "trace.trc", n)
		got := make([][]byte, len(specs))
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i, sp := range specs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				resp, err := http.Post(ts.URL+"/v1/characterize?ranks="+sp.ranks+"&ops="+sp.ops,
					"application/octet-stream", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				defer resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("%d events, ranks=%s: status %d", n, sp.ranks, resp.StatusCode)
					return
				}
				if got[i], err = io.ReadAll(resp.Body); err != nil {
					t.Error(err)
				}
			}()
		}
		close(start)
		wg.Wait()
		for i, sp := range specs {
			if want := cliYAML(t, path, sp.ranks, sp.ops); !bytes.Equal(got[i], want) {
				t.Errorf("%d events, ranks=%s ops=%s: served YAML differs from CLI output (%d vs %d bytes)",
					n, sp.ranks, sp.ops, len(got[i]), len(want))
			}
		}
	}
	_, memo := published(s.blocks)
	if m := getMetrics(t, ts); memo == 0 || m.BlockCacheMemoBytes != memo {
		t.Errorf("block_cache_memo_bytes %d, published blocks hold %d; each trace's second scan should publish", m.BlockCacheMemoBytes, memo)
	}
}

// tracePoison is internal/trace's poisonRecycled switch: while it is set,
// every column slice and block payload handed back to its pool is
// overwritten with a sentinel. Linking to it keeps the switch out of
// trace's API.
//
//go:linkname tracePoison vani/internal/trace.poisonRecycled
var tracePoison atomic.Bool

// TestFirstScanReportsSurviveRecycledPayloads: a trace's first scan reads
// private block handles, and the planned scan hands each handle's payload
// buffer back to its pool once the block is decoded. With every returned
// payload and column poisoned, first scans — unfiltered, cut to a rank
// selection, and cut on ranks and ops — run again and again into the
// buffers the last one gave back, serve reports byte-identical to the
// CLI's, and leave every pooled column returned.
func TestFirstScanReportsSurviveRecycledPayloads(t *testing.T) {
	path := writeTraceFile(t, t.TempDir(), "t.trc", 40000)
	size := fileSize(t, path)
	specs := []struct{ ranks, ops string }{{"", ""}, {"0-7", ""}, {"2,5,11", "data"}}
	want := make([][]byte, len(specs))
	for i, sp := range specs {
		want[i] = cliYAML(t, path, sp.ranks, sp.ops)
	}
	tracePoison.Store(true)
	defer tracePoison.Store(false)
	// A one-byte budget evicts every unpinned entry on the next acquire, so
	// each scan below is its entry's first.
	bc := newBlockCache(1, &Metrics{})
	inUse := trace.ColumnsInUse()
	for round := 0; round < 3; round++ {
		for i, sp := range specs {
			cs, err := bc.acquire(fmt.Sprintf("sha-%d-%d", round, i), path, 0, size)
			if err != nil {
				t.Fatal(err)
			}
			if cs.memo {
				t.Fatal("a trace's first scan memoizes its blocks")
			}
			opt := vani.DefaultAnalyzerOptions()
			cfg := workloads.DefaultSpec().Storage
			opt.Storage = &cfg
			if opt.Filter, err = cliutil.ParseFilter("", sp.ranks, "", sp.ops); err != nil {
				t.Fatal(err)
			}
			opt.Parallelism = 1 + round%2
			c, err := vani.CharacterizeBlocksContext(context.Background(), cs, opt)
			bc.release(cs)
			if err != nil {
				t.Fatal(err)
			}
			if got := vani.ToYAML(c); !bytes.Equal(got, want[i]) {
				t.Fatalf("round %d ranks=%q ops=%q: report differs from the CLI's", round, sp.ranks, sp.ops)
			}
		}
	}
	if got := trace.ColumnsInUse(); got != inUse {
		t.Fatalf("%d pooled columns never came back", got-inUse)
	}
}
