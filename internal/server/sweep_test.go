package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"vani"
)

const testSweepDoc = `version: 1
name: tiny
base:
  nodes: 2
  ranks_per_node: 2
  scale: 0.01
  seed: 3
grid:
  - param: staging
    values:
      - pfs
      - node-local
workload: cosmoflow
`

// TestSweepEndpoint drives POST /v1/sweep end to end: submit, poll with
// progress, fetch the report — and pins the service's YAML byte-identical
// to the engine the CLI uses, plus the cache hit and metrics on resubmit.
func TestSweepEndpoint(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, st := upload(t, ts, "/v1/sweep", []byte(testSweepDoc))
	if code != http.StatusAccepted {
		t.Fatalf("POST /v1/sweep = %d, want 202", code)
	}
	if st.PointsTotal != 2 {
		t.Errorf("points_total = %d, want 2", st.PointsTotal)
	}
	final := pollJob(t, s, ts, st.ID)
	if final.Status != "done" {
		t.Fatalf("job ended %q (%s)", final.Status, final.Error)
	}
	if final.PointsDone != 2 {
		t.Errorf("points_done = %d, want 2", final.PointsDone)
	}

	resp, err := http.Get(ts.URL + "/v1/reports/" + st.ReportID)
	if err != nil {
		t.Fatal(err)
	}
	served, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET report = %d, %v", resp.StatusCode, err)
	}

	// The CLI path: same document through the library, same encoder.
	sw, err := vani.ParseSweep([]byte(testSweepDoc))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sw.Run(vani.SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if want := vani.SweepToYAML(rep); !bytes.Equal(served, want) {
		t.Errorf("served sweep YAML differs from CLI engine output (%d vs %d bytes)", len(served), len(want))
	}
	if !strings.Contains(string(served), "winner:") {
		t.Error("served YAML has no winner section")
	}

	// Resubmitting the identical document is a cache hit: done immediately.
	code, st2 := upload(t, ts, "/v1/sweep", []byte(testSweepDoc))
	if code != http.StatusOK || st2.Status != "done" || st2.ReportID != st.ReportID {
		t.Errorf("resubmit = %d %+v, want 200 done with same report id", code, st2)
	}

	m := s.Metrics().Snapshot()
	if m.SweepJobs != 1 || m.SweepRuns != 2 || m.SweepCacheHits != 1 {
		t.Errorf("sweep metrics = jobs %d runs %d hits %d, want 1/2/1",
			m.SweepJobs, m.SweepRuns, m.SweepCacheHits)
	}
}

// TestSweepEndpointBadDoc: malformed documents are 400s with the parse
// error, and nothing is queued.
func TestSweepEndpointBadDoc(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, doc := range []string{
		"",
		"not yaml at all: [",
		"version: 1\nname: x\ngrid:\n  - param: bogus\n    values:\n      - 1\nworkload: cm1",
	} {
		resp, err := http.Post(ts.URL+"/v1/sweep", "application/yaml", strings.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		var e apiError
		json.NewDecoder(resp.Body).Decode(&e) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("doc %q: status %d, want 400 (%s)", doc, resp.StatusCode, e.Error)
		}
	}
	if got := s.Metrics().Snapshot().SweepJobs; got != 0 {
		t.Errorf("sweep_jobs = %d after bad docs, want 0", got)
	}
}

// TestSweepRuntimeFailureFailsTheJob: a well-formed sweep whose workload
// cannot run to the end — a read past EOF in a rank, a barrier not every
// rank reaches — is a failed job that says why, and vanid goes on serving:
// the failure is an error on the worker, never a panic in the process.
func TestSweepRuntimeFailureFailsTheJob(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for file, want := range map[string]string{"past-eof.yaml": "past EOF", "stuck.yaml": "deadlock"} {
		workload, err := os.ReadFile("../spec/testdata/" + file)
		if err != nil {
			t.Fatal(err)
		}
		doc := "version: 1\nname: doomed\nbase:\n  nodes: 2\ngrid:\n  - param: cache\n    values:\n      - true\n      - false\nworkload:\n  " +
			strings.ReplaceAll(strings.TrimSpace(string(workload)), "\n", "\n  ") + "\n"
		code, st := upload(t, ts, "/v1/sweep", []byte(doc))
		if code != http.StatusAccepted {
			t.Fatalf("%s: POST /v1/sweep = %d, want 202", file, code)
		}
		final := pollJob(t, s, ts, st.ID)
		if final.Status != string(jobFailed) || !strings.Contains(final.Error, want) {
			t.Errorf("%s: job ended %q (%s), want failed saying %q", file, final.Status, final.Error, want)
		}
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: healthz after the failed sweep: %d", file, resp.StatusCode)
		}
	}
}

// TestSweepBodyOverLimitIs413: a sweep body one byte over maxSweepBody is
// refused whole with 413 — not cut to the limit and parsed — nothing is
// queued, and vanid goes on serving.
func TestSweepBodyOverLimitIs413(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := bytes.Repeat([]byte("#"), maxSweepBody+1)
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/yaml", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized sweep body: status %d, want 413", resp.StatusCode)
	}
	if got := s.Metrics().Snapshot().SweepJobs; got != 0 {
		t.Errorf("sweep_jobs = %d after an oversized body, want 0", got)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz after the oversized body: status %d", resp.StatusCode)
	}
}

// TestShutdownStopsRunningSweep: Shutdown whose deadline passes while a
// many-point sweep runs aborts it at its next point: Shutdown returns soon
// after its timeout, not after the whole grid, and the job fails as
// canceled with points left undone.
func TestShutdownStopsRunningSweep(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	doc := "version: 1\nname: long\nbase:\n  nodes: 2\n  ranks_per_node: 2\n  scale: 0.01\n  seed: 3\n" +
		"grid:\n  - param: staging\n    values:\n      - pfs\n      - node-local\n" +
		"  - param: cache\n    values:\n      - true\n      - false\n" +
		"  - param: stripe_size\n    values:\n" + strings.Repeat("      - 1MiB\n      - 2MiB\n      - 4MiB\n      - 8MiB\n", 4) +
		"workload: cosmoflow\n"
	code, st := upload(t, ts, "/v1/sweep", []byte(doc))
	if code != http.StatusAccepted {
		t.Fatalf("POST /v1/sweep = %d, want 202", code)
	}
	for {
		s.mu.Lock()
		j := s.jobs[st.ID]
		s.mu.Unlock()
		if j.status().PointsDone > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}

	const timeout = 50 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	t0 := time.Now()
	if err := s.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Errorf("Shutdown = %v, want %v", err, context.DeadlineExceeded)
	}
	if took := time.Since(t0); took > timeout+5*time.Second {
		t.Errorf("Shutdown took %v with a %v timeout", took, timeout)
	}
	s.mu.Lock()
	final := s.jobs[st.ID].status()
	s.mu.Unlock()
	if final.Status != string(jobFailed) || !strings.Contains(final.Error, context.Canceled.Error()) {
		t.Errorf("job ended %q (%s), want failed as canceled", final.Status, final.Error)
	}
	if final.PointsDone >= final.PointsTotal {
		t.Errorf("%d of %d points done: the sweep ran to the end", final.PointsDone, final.PointsTotal)
	}
}
