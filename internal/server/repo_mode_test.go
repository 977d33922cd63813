package server

// Repository-mode (DataDir) tests: uploads survive a daemon restart, the
// fleet endpoint serves byte-identical YAML across restarts, compaction,
// and worker counts, and /metrics exposes the repository gauges.

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"vani/internal/trace"
)

func getRaw(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body) //nolint:errcheck
	return resp.StatusCode, buf.Bytes()
}

func TestDataDirModeSurvivesRestartAndCompaction(t *testing.T) {
	dataDir := t.TempDir()
	s := newTestServer(t, Config{Workers: 2, QueueDepth: 8, DataDir: dataDir})
	ts := httptest.NewServer(s.Handler())

	// Three traces of the same workload, one written with raw segments —
	// compaction re-encodes it and the fleet YAML must not notice.
	bodies := [][]byte{
		testTraceBytes(t, 30000),
		testTraceBytes(t, 45000),
		testTraceV2Bytes(t, trace.V2Options{Codec: trace.CodecForceRaw}, 20000),
	}
	for _, body := range bodies {
		code, st := upload(t, ts, "/v1/traces", body)
		if code != http.StatusAccepted {
			t.Fatalf("upload: status %d, want 202", code)
		}
		if final := pollJob(t, ts, st.ID); final.Status != string(jobDone) {
			t.Fatalf("job failed: %s", final.Error)
		}
	}

	m := getMetrics(t, ts)
	if m.RepoFiles != 3 || m.RepoShards != 1 {
		t.Fatalf("repo gauges files=%d shards=%d, want 3 files in 1 shard", m.RepoFiles, m.RepoShards)
	}
	bytesBefore := m.RepoBytes

	code, want := getRaw(t, ts, "/fleet/query?workload=synthetic")
	if code != http.StatusOK || len(want) == 0 {
		t.Fatalf("fleet query: status %d, %d bytes", code, len(want))
	}
	if code, got := getRaw(t, ts, "/fleet/query?workload=synthetic&par=3"); code != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("fleet YAML varies with par (status %d)", code)
	}

	// Restart: same data dir, fresh process state.
	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	cancel()

	s2 := newTestServer(t, Config{Workers: 2, QueueDepth: 8, DataDir: dataDir})
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()

	if m := getMetrics(t, ts2); m.RepoFiles != 3 {
		t.Fatalf("restart lost traces: files=%d, want 3", m.RepoFiles)
	}
	if code, got := getRaw(t, ts2, "/fleet/query?workload=synthetic"); code != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("restart changed the fleet YAML (status %d)", code)
	}

	// Forced compaction: packs all three, shrinks the footprint, and the
	// fleet answer stays byte-identical.
	resp, err := http.Post(ts2.URL+"/v1/compact", "", nil)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/compact: %v (status %v)", err, resp)
	}
	resp.Body.Close()

	m2 := getMetrics(t, ts2)
	if m2.RepoCompactions < 1 {
		t.Fatalf("compactions = %d, want >= 1", m2.RepoCompactions)
	}
	if m2.RepoBytes >= bytesBefore {
		t.Errorf("compaction did not shrink the repo: %d -> %d bytes", bytesBefore, m2.RepoBytes)
	}
	if code, got := getRaw(t, ts2, "/fleet/query?workload=synthetic"); code != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("compaction changed the fleet YAML (status %d)", code)
	}
}

func TestSpoolModeHasNoFleetEndpoint(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if code, _ := getRaw(t, ts, "/fleet/query"); code != http.StatusNotFound {
		t.Fatalf("spool mode served /fleet/query with status %d, want 404", code)
	}
}
