package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"testing"
	"time"

	"vani"
	"vani/internal/cliutil"
	"vani/internal/trace"
	"vani/internal/workloads"
)

// testTraceBytes encodes a small synthetic trace with the default writer.
func testTraceBytes(t *testing.T, n int) []byte {
	t.Helper()
	return testTraceV2Bytes(t, trace.V2Options{}, n)
}

// newTestServer builds a server with small bounds and registers cleanup.
func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.SpoolDir == "" {
		cfg.SpoolDir = t.TempDir()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(s.Close)
	return s
}

// upload POSTs body to path and returns the decoded job status.
func upload(t *testing.T, ts *httptest.Server, path string, body []byte) (int, jobStatus) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	var st jobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp.StatusCode, st
}

// pollJob polls until the job settles or the deadline passes.
func pollJob(t *testing.T, ts *httptest.Server, id string) jobStatus {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatalf("GET job: %v", err)
		}
		var st jobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("decoding job: %v", err)
		}
		if st.Status == string(jobDone) || st.Status == string(jobFailed) {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("job did not settle in time")
	return jobStatus{}
}

func getMetrics(t *testing.T, ts *httptest.Server) MetricsSnapshot {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	var m MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("decoding metrics: %v", err)
	}
	return m
}

func getReport(t *testing.T, ts *httptest.Server, id, accept string) (int, []byte, string) {
	t.Helper()
	req, _ := http.NewRequest("GET", ts.URL+"/v1/reports/"+id, nil)
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET report: %v", err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body) //nolint:errcheck
	return resp.StatusCode, buf.Bytes(), resp.Header.Get("Content-Type")
}

// TestUploadToReportMatchesCLI drives the full HTTP path — upload, poll,
// fetch — and asserts the served YAML is byte-identical to what the CLI
// pipeline (CharacterizeFileWith + ToYAML with the default storage model)
// produces for the same trace and filter.
func TestUploadToReportMatchesCLI(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2, QueueDepth: 8})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for name, wopt := range map[string]trace.V2Options{"v2": {}, "v2flate": {Compress: true}} {
		t.Run(name, func(t *testing.T) {
			body := testTraceV2Bytes(t, wopt, 40000)
			const query = "?window=5ms:30ms&ranks=0-7&ops=data"
			code, st := upload(t, ts, "/v1/traces"+query, body)
			if code != http.StatusAccepted {
				t.Fatalf("upload: status %d, want 202", code)
			}
			if st.ID == "" || st.ReportID == "" {
				t.Fatalf("upload response missing ids: %+v", st)
			}
			final := pollJob(t, ts, st.ID)
			if final.Status != string(jobDone) {
				t.Fatalf("job failed: %+v", final)
			}

			code, gotYAML, ctype := getReport(t, ts, st.ReportID, "")
			if code != http.StatusOK {
				t.Fatalf("report: status %d", code)
			}
			if ctype != "application/yaml" {
				t.Errorf("report content-type %q, want application/yaml", ctype)
			}

			// The CLI pipeline over the same bytes and spec.
			dir := t.TempDir()
			path := dir + "/trace.trc"
			if err := os.WriteFile(path, body, 0o644); err != nil {
				t.Fatal(err)
			}
			opt := vani.DefaultAnalyzerOptions()
			cfg := workloads.DefaultSpec().Storage
			opt.Storage = &cfg
			f, err := cliutil.ParseFilter("5ms:30ms", "0-7", "", "data")
			if err != nil {
				t.Fatal(err)
			}
			opt.Filter = f
			c, err := vani.CharacterizeFileWith(path, opt)
			if err != nil {
				t.Fatal(err)
			}
			wantYAML := vani.ToYAML(c)
			if !bytes.Equal(gotYAML, wantYAML) {
				t.Errorf("served YAML differs from CLI output (%d vs %d bytes)", len(gotYAML), len(wantYAML))
			}

			// JSON rendering honors the Accept header.
			code, gotJSON, ctype := getReport(t, ts, st.ReportID, "application/json")
			if code != http.StatusOK || ctype != "application/json" {
				t.Fatalf("json report: status %d content-type %q", code, ctype)
			}
			if !json.Valid(gotJSON) {
				t.Error("json report is not valid JSON")
			}
		})
	}
}

// testTraceV2Bytes encodes the synthetic trace under explicit V2Options —
// the codec-variant uploads below.
func testTraceV2Bytes(t *testing.T, opt trace.V2Options, n int) []byte {
	t.Helper()
	tr := trace.NewTracer()
	tr.SetMeta(trace.Meta{Workload: "synthetic", Nodes: 4, Ranks: 16, PFSDir: "/p/gpfs1"})
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
	if err := trace.WriteV2With(&buf, tr.Finish(), opt); err != nil {
		t.Fatalf("encoding trace: %v", err)
	}
	return buf.Bytes()
}

// TestCodecVariantUploadsServeIdenticalReports uploads the same trace
// encoded under every codec strategy (auto, with and without flate, and
// each forced codec) and asserts every served YAML report is byte-identical
// — and that decoding an upload shows up in the /metrics codec-mix counters.
func TestCodecVariantUploadsServeIdenticalReports(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2, QueueDepth: 16})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	variants := []trace.V2Options{
		{Codec: trace.CodecAuto},
		{Codec: trace.CodecAuto, Compress: true},
		{Codec: trace.CodecForceRaw},
		{Codec: trace.CodecForceRLE},
		{Codec: trace.CodecForceDict},
		{Codec: trace.CodecForceFOR},
	}
	var want []byte
	for i, opt := range variants {
		body := testTraceV2Bytes(t, opt, 30000)
		code, st := upload(t, ts, "/v1/traces?ops=data", body)
		if code != http.StatusAccepted {
			t.Fatalf("variant %d: upload status %d, want 202", i, code)
		}
		final := pollJob(t, ts, st.ID)
		if final.Status != string(jobDone) {
			t.Fatalf("variant %d: job failed: %+v", i, final)
		}
		code, yaml, _ := getReport(t, ts, st.ReportID, "")
		if code != http.StatusOK {
			t.Fatalf("variant %d: report status %d", i, code)
		}
		if i == 0 {
			want = yaml
		} else if !bytes.Equal(yaml, want) {
			t.Fatalf("variant %d (codec=%v compress=%v): served YAML differs from auto",
				i, opt.Codec, opt.Compress)
		}
	}
	m := getMetrics(t, ts)
	if total := m.ScanSegRaw + m.ScanSegRLE + m.ScanSegDict + m.ScanSegFOR; total == 0 {
		t.Error("uploads decoded but codec-mix counters are all zero")
	}
}

// TestCacheHitSkipsAnalyzer uploads the same trace with the same spec
// twice: the second upload must be answered from the cache with no analyzer
// work, observable in the metrics counters.
func TestCacheHitSkipsAnalyzer(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := testTraceBytes(t, 20000)
	code, st := upload(t, ts, "/v1/traces?ranks=0-3", body)
	if code != http.StatusAccepted {
		t.Fatalf("first upload: status %d", code)
	}
	pollJob(t, ts, st.ID)
	m1 := getMetrics(t, ts)
	if m1.JobsDone != 1 || m1.CacheMisses != 1 {
		t.Fatalf("after first upload: %+v", m1)
	}

	code, st2 := upload(t, ts, "/v1/traces?ranks=0-3", body)
	if code != http.StatusOK {
		t.Fatalf("second upload: status %d, want 200 (cache hit)", code)
	}
	if st2.Status != string(jobDone) || st2.ReportID != st.ReportID {
		t.Fatalf("second upload: %+v, want done with same report id", st2)
	}
	m2 := getMetrics(t, ts)
	if m2.CacheHits != m1.CacheHits+1 {
		t.Errorf("cache hits %d, want %d", m2.CacheHits, m1.CacheHits+1)
	}
	if m2.JobsDone != m1.JobsDone || m2.JobsQueued != m1.JobsQueued || m2.CacheMisses != m1.CacheMisses {
		t.Errorf("second upload did analyzer work: before %+v after %+v", m1, m2)
	}

	// A different spec over the same bytes is a different report.
	code, st3 := upload(t, ts, "/v1/traces?ranks=4-7", body)
	if code != http.StatusAccepted {
		t.Fatalf("third upload: status %d, want 202 (different spec)", code)
	}
	if st3.ReportID == st.ReportID {
		t.Error("different spec produced the same report id")
	}
	pollJob(t, ts, st3.ID)
}

// TestQueueBackpressure holds the single worker hostage, fills the queue,
// and asserts the overflow upload is bounced with 429 + Retry-After.
func TestQueueBackpressure(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 2})
	release := make(chan struct{})
	var once sync.Once
	s.beforeJob = func() { <-release }
	defer once.Do(func() { close(release) })
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Distinct traces so none of them dedupe against each other: the first
	// occupies the worker, two fill the queue, the fourth must bounce.
	var last jobStatus
	for i := 0; i < 3; i++ {
		body := testTraceBytes(t, 1000+i)
		code, st := upload(t, ts, "/v1/traces", body)
		if code != http.StatusAccepted {
			t.Fatalf("upload %d: status %d, want 202", i, code)
		}
		last = st
	}
	body := testTraceBytes(t, 5000)
	resp, err := http.Post(ts.URL+"/v1/traces", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow upload: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After")
	}
	if m := getMetrics(t, ts); m.JobsRejected != 1 {
		t.Errorf("jobs_rejected = %d, want 1", m.JobsRejected)
	}

	once.Do(func() { close(release) })
	pollJob(t, ts, last.ID)
}

// TestSyncCharacterizeCanceled calls the synchronous endpoint with an
// already-canceled request context: the characterization must abort with
// the 499 client-closed-request status and cache nothing.
func TestSyncCharacterizeCanceled(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 2})

	body := testTraceBytes(t, 40000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest("POST", "/v1/characterize", bytes.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != 499 {
		t.Fatalf("canceled request: status %d, want 499", rec.Code)
	}
	if s.cache.Len() != 0 {
		t.Error("canceled characterization left a cached report")
	}
	if got := s.metrics.JobsFailed.Load(); got != 1 {
		t.Errorf("jobs_failed = %d, want 1", got)
	}
}

// TestSyncCharacterize drives the synchronous endpoint end to end and
// checks its result lands in the shared cache.
func TestSyncCharacterize(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := testTraceBytes(t, 20000)
	resp, err := http.Post(ts.URL+"/v1/characterize?ops=data", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sync characterize: status %d", resp.StatusCode)
	}
	if s.cache.Len() != 1 {
		t.Errorf("cache has %d entries, want 1", s.cache.Len())
	}
	// The same upload through the async path is now a cache hit.
	code, st := upload(t, ts, "/v1/traces?ops=data", body)
	if code != http.StatusOK || st.Status != string(jobDone) {
		t.Errorf("async after sync: status %d %+v, want 200 done", code, st)
	}
}

// TestOutOfRangeIDUploadIsRejected: a well-formed log one of whose events
// names a file past the header's interned table used to panic the analyzer
// (and, with no recover anywhere in the daemon, kill vanid). It must be
// answered like any other bad trace — 422 on the synchronous path, a failed
// job on the queued one — with the daemon still serving afterwards.
func TestOutOfRangeIDUploadIsRejected(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	tr, err := trace.Read(bytes.NewReader(testTraceBytes(t, 20)))
	if err != nil {
		t.Fatal(err)
	}
	tr.Events[10].File = int32(len(tr.Files)) + 7
	var buf bytes.Buffer
	if err := trace.WriteV2(&buf, tr); err != nil {
		t.Fatal(err)
	}
	body := buf.Bytes()

	resp, err := http.Post(ts.URL+"/v1/characterize", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("sync characterize of an out-of-range file id: status %d, want 422", resp.StatusCode)
	}
	code, st := upload(t, ts, "/v1/traces", body)
	if code != http.StatusAccepted {
		t.Fatalf("queued upload: status %d %+v, want 202", code, st)
	}
	if final := pollJob(t, ts, st.ID); final.Status != string(jobFailed) {
		t.Errorf("queued job ended %+v, want failed", final)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz after the bad upload: status %d", resp.StatusCode)
	}
}

// TestUploadValidation rejects malformed filters and non-trace bodies.
func TestUploadValidation(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/traces?ranks=banana", "application/octet-stream",
		bytes.NewReader(testTraceBytes(t, 100)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad ranks: status %d, want 400", resp.StatusCode)
	}

	resp, err = http.Post(ts.URL+"/v1/traces", "application/octet-stream",
		bytes.NewReader([]byte("this is not a trace")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage body: status %d, want 400", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/v1/reports/deadbeef")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown report: status %d, want 404", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: status %d", resp.StatusCode)
	}
}

// TestShutdownDrains enqueues work, shuts down, and checks every accepted
// job settled and late uploads are refused.
func TestShutdownDrains(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2, QueueDepth: 8})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var ids []string
	for i := 0; i < 4; i++ {
		body := testTraceBytes(t, 2000+i)
		code, st := upload(t, ts, "/v1/traces", body)
		if code != http.StatusAccepted {
			t.Fatalf("upload %d: status %d", i, code)
		}
		ids = append(ids, st.ID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	m := s.metrics.Snapshot()
	if m.JobsDone != int64(len(ids)) {
		t.Errorf("after drain: %d jobs done, want %d (%+v)", m.JobsDone, len(ids), m)
	}

	resp, err := http.Post(ts.URL+"/v1/traces", "application/octet-stream",
		bytes.NewReader(testTraceBytes(t, 100)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("upload after shutdown: status %d, want 503", resp.StatusCode)
	}
}

// TestInflightDedup uploads the same trace+spec twice while the worker is
// held: the second upload must join the first job, not enqueue a duplicate.
func TestInflightDedup(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	release := make(chan struct{})
	var once sync.Once
	s.beforeJob = func() { <-release }
	defer once.Do(func() { close(release) })
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := testTraceBytes(t, 1000)
	_, st1 := upload(t, ts, "/v1/traces", body)
	_, st2 := upload(t, ts, "/v1/traces", body)
	if st1.ID != st2.ID {
		t.Errorf("duplicate in-flight upload got a new job: %s vs %s", st1.ID, st2.ID)
	}
	if m := getMetrics(t, ts); m.JobsQueued != 1 {
		t.Errorf("jobs_queued = %d, want 1", m.JobsQueued)
	}
	once.Do(func() { close(release) })
	pollJob(t, ts, st1.ID)
}

func TestSpecKeyNormalizes(t *testing.T) {
	a := trace.Filter{Ranks: []int32{3, 1, 2}, Levels: []trace.Level{trace.LevelPosix, trace.LevelApp}}
	b := trace.Filter{Ranks: []int32{1, 2, 3, 2}, Levels: []trace.Level{trace.LevelApp, trace.LevelPosix}}
	if specKey(a) != specKey(b) {
		t.Errorf("equivalent specs key differently:\n%s\n%s", specKey(a), specKey(b))
	}
	c := trace.Filter{Ranks: []int32{1, 2}}
	if specKey(a) == specKey(c) {
		t.Error("different specs share a key")
	}
	if reportID("sha", a) != reportID("sha", b) {
		t.Error("equivalent specs address different reports")
	}
	if reportID("sha", a) == reportID("sha2", a) {
		t.Error("different traces address the same report")
	}
}

func TestCacheLRU(t *testing.T) {
	c := newReportCache(2)
	c.Put(&report{ID: "a"})
	c.Put(&report{ID: "b"})
	c.Get("a") // bump a
	c.Put(&report{ID: "c"})
	if _, ok := c.Get("b"); ok {
		t.Error("LRU kept b, should have evicted it")
	}
	for _, id := range []string{"a", "c"} {
		if _, ok := c.Get(id); !ok {
			t.Errorf("LRU evicted %s, should have kept it", id)
		}
	}
}

// TestPprofGating proves the profiling endpoints exist only when the
// operator opted in: absent (404) on a default server, served under
// /debug/pprof/ when EnablePprof is set.
func TestPprofGating(t *testing.T) {
	off := newTestServer(t, Config{Workers: 1})
	tsOff := httptest.NewServer(off.Handler())
	defer tsOff.Close()
	resp, err := http.Get(tsOff.URL + "/debug/pprof/")
	if err != nil {
		t.Fatalf("GET /debug/pprof/ (disabled): %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof disabled: got %d, want 404", resp.StatusCode)
	}

	on := newTestServer(t, Config{Workers: 1, EnablePprof: true})
	tsOn := httptest.NewServer(on.Handler())
	defer tsOn.Close()
	resp, err = http.Get(tsOn.URL + "/debug/pprof/")
	if err != nil {
		t.Fatalf("GET /debug/pprof/ (enabled): %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof enabled: got %d, want 200", resp.StatusCode)
	}
}
