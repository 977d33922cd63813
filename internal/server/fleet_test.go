package server

// Fleet queries served from cached reports: /fleet/query must answer what
// a read-only repository scan answers, whichever traces have a report
// cached under the query's filter.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"vani/internal/cliutil"
	"vani/internal/repo"
	"vani/internal/workloads"
)

// uploadDone uploads body through POST /v1/traces and waits for its job.
func uploadDone(t *testing.T, s *Server, ts *httptest.Server, query string, body []byte) jobStatus {
	t.Helper()
	code, st := upload(t, ts, "/v1/traces"+query, body)
	switch code {
	case http.StatusAccepted:
		if final := pollJob(t, s, ts, st.ID); final.Status != string(jobDone) {
			t.Fatalf("job failed: %s", final.Error)
		}
	case http.StatusOK: // report already cached
	default:
		t.Fatalf("upload: status %d", code)
	}
	return st
}

// getFleet fetches /fleet/query in both renderings.
func getFleet(t *testing.T, ts *httptest.Server, query string) (yml, js []byte) {
	t.Helper()
	for _, accept := range []string{"", "application/json"} {
		req, _ := http.NewRequest("GET", ts.URL+"/fleet/query?"+query, nil)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("GET fleet: %v", err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("fleet %q: status %d: %s", query, resp.StatusCode, buf.Bytes())
		}
		if accept == "" {
			yml = buf.Bytes()
		} else {
			js = buf.Bytes()
		}
	}
	return yml, js
}

// scanFleet answers the same query from a read-only open of the data dir,
// scanning every trace, and renders it the way /fleet/query does.
func scanFleet(t *testing.T, dataDir, workload, window string) (yml, js []byte) {
	t.Helper()
	f, err := cliutil.ParseFilter(window, "", "", "")
	if err != nil {
		t.Fatal(err)
	}
	rp, err := repo.Open(dataDir, repo.Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer rp.Close()
	cfg := workloads.DefaultSpec().Storage
	fr, err := rp.FleetQuery(context.Background(), repo.Query{Workload: workload, Filter: f}, repo.DefaultCharacterizer(&cfg, 1))
	if err != nil {
		t.Fatalf("read-only FleetQuery: %v", err)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(fr); err != nil {
		t.Fatal(err)
	}
	return fr.YAML(), buf.Bytes()
}

// TestFleetFromCachedReportsMatchesScan: /fleet/query's YAML and JSON equal
// a read-only repository scan's whether each trace's summary comes from a
// cached report or from a scan, loose or packed, and a miss never inserts
// into the report cache.
func TestFleetFromCachedReportsMatchesScan(t *testing.T) {
	const n = 4
	const window = "1ms:2ms"
	bodies := make([][]byte, n)
	for i := range bodies {
		bodies[i] = testTraceBytes(t, 3000+700*i)
	}

	cases := []struct {
		name     string
		cache    int // Config.CacheEntries
		windowed int // traces also uploaded under ?window=
		compact  bool
		query    string // /fleet/query parameters past workload
		cached   int64
		scanned  int64
	}{
		{name: "unfiltered", query: "", cached: n, scanned: 0},
		{name: "window-mixed", windowed: 2, query: "&window=" + window, cached: 2, scanned: n - 2},
		{name: "one-entry-cache", cache: 1, query: "", cached: 1, scanned: n - 1},
		{name: "packed", compact: true, query: "", cached: n, scanned: 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dataDir := t.TempDir()
			s := newTestServer(t, Config{Workers: 2, QueueDepth: 8, CacheEntries: tc.cache, DataDir: dataDir})
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			for _, b := range bodies {
				uploadDone(t, s, ts, "", b)
			}
			for _, b := range bodies[:tc.windowed] {
				uploadDone(t, s, ts, "?window="+window, b)
			}
			if tc.compact {
				resp, err := http.Post(ts.URL+"/v1/compact", "", nil)
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Fatalf("POST /v1/compact: %v (%v)", err, resp)
				}
				resp.Body.Close()
				for _, sha := range s.repo.List("") {
					h, err := s.repo.Acquire(sha)
					if err != nil {
						t.Fatal(err)
					}
					if !strings.HasSuffix(h.Path(), ".vpk") {
						t.Errorf("%s still loose after compaction: %s", sha, h.Path())
					}
					h.Close()
				}
			}

			entries := s.cache.Len()
			before := getMetrics(t, ts)
			yml, js := getFleet(t, ts, "workload=synthetic"+tc.query)
			after := getMetrics(t, ts)
			// getFleet asks twice, once per rendering.
			if got := after.FleetTracesCached - before.FleetTracesCached; got != 2*tc.cached {
				t.Errorf("fleet_traces_cached rose by %d, want %d", got, 2*tc.cached)
			}
			if got := after.FleetTracesScanned - before.FleetTracesScanned; got != 2*tc.scanned {
				t.Errorf("fleet_traces_scanned rose by %d, want %d", got, 2*tc.scanned)
			}
			if got := s.cache.Len(); got != entries {
				t.Errorf("fleet query changed the report cache from %d to %d entries", entries, got)
			}

			w := strings.TrimPrefix(tc.query, "&window=")
			wantY, wantJ := scanFleet(t, dataDir, "synthetic", w)
			if !bytes.Equal(yml, wantY) {
				t.Errorf("fleet YAML differs from a read-only scan:\n%s\nvs\n%s", yml, wantY)
			}
			if !bytes.Equal(js, wantJ) {
				t.Errorf("fleet JSON differs from a read-only scan:\n%s\nvs\n%s", js, wantJ)
			}
		})
	}
}

// TestFleetConcurrentWithUploads runs fleet queries, unfiltered and
// windowed, while uploads land and their jobs cache reports; afterwards the
// served fleet equals a read-only scan.
func TestFleetConcurrentWithUploads(t *testing.T) {
	dataDir := t.TempDir()
	s := newTestServer(t, Config{Workers: 2, QueueDepth: 16, DataDir: dataDir})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const n = 6
	bodies := make([][]byte, n)
	for i := range bodies {
		bodies[i] = testTraceBytes(t, 2000+500*i)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for _, q := range []string{"workload=synthetic", "window=0ms:1ms"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(ts.URL + "/fleet/query?" + q)
				if err != nil {
					errs <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("fleet %q: status %d", q, resp.StatusCode)
					return
				}
			}
		}()
	}
	for i, b := range bodies {
		query := ""
		if i%2 == 1 {
			query = "?window=0ms:1ms"
		}
		uploadDone(t, s, ts, query, b)
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	for _, w := range []string{"", "0ms:1ms"} {
		yml, js := getFleet(t, ts, "workload=synthetic&window="+w)
		wantY, wantJ := scanFleet(t, dataDir, "synthetic", w)
		if !bytes.Equal(yml, wantY) || !bytes.Equal(js, wantJ) {
			t.Errorf("window %q: served fleet differs from a read-only scan", w)
		}
	}
	if m := getMetrics(t, ts); m.FleetTracesCached == 0 || m.FleetTracesScanned == 0 {
		t.Errorf("fleet_traces_cached=%d scanned=%d; want both paths taken", m.FleetTracesCached, m.FleetTracesScanned)
	}
}
