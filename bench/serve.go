package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"vani"
	"vani/internal/parallel"
	"vani/internal/repo"
	"vani/internal/server"
	"vani/internal/workloads"
)

// One serve-mixed round. Two ops in three are cached-report GETs, so the
// median op sits well inside that class and the p90 well inside the
// analysis classes, not on a boundary between two; compaction runs once,
// in the middle, beside the other client's foreground requests.
var serveMix = []struct {
	class string
	n     int
}{{"hit", 60}, {"requery", 20}, {"miss", 8}, {"fleet", 2}}

// fleetLabel is the workload label of the stored small traces the fleet
// query aggregates; never-seen uploads carry newLabel so that set, and
// with it the work of a fleet op, stays the same all run long.
const (
	fleetLabel = "hacc"
	newLabel   = "hacc-new"
)

// serveWL is serve-mixed: vanid in repository mode behind a loopback
// listener, driven by min(2, nproc) closed-loop clients.
type serveWL struct {
	cfg config
	dir string

	srv     *server.Server
	ts      *httptest.Server
	client  *http.Client
	clients int

	hot     []hotTrace
	pool    []*vani.Trace // distinct small runs never-seen uploads derive from
	reports []cachedReport
	fleetEv int64  // events of the fleet query's fixed set
	fleetY  []byte // its report

	encBytes, encEvents int64

	rng      *rand.Rand
	requeryN int // re-query filters issued so far
	missN    int // never-seen uploads issued so far
	missB    int64

	mu       sync.Mutex
	deferred []servedReport // every 10th requery/miss body, checked after the timed phase
}

type hotTrace struct {
	name    string
	path    string
	data    []byte
	events  int64
	runtime time.Duration
}

type cachedReport struct {
	id         string
	events     int64
	yaml, json []byte
}

// servedReport is a characterization vanid returned, kept to be checked
// against the CLI path on the same bytes and filter.
type servedReport struct {
	class  string
	trace  []byte
	path   string // set when the bytes are already on disk
	filter filterSpec
	body   []byte
}

// serveOp is one scheduled request.
type serveOp struct {
	class string
	n     int // running index within the class, across rounds
}

// schedule deals one round: the mix in a seeded shuffle, compaction in
// the middle.
func (w *serveWL) schedule() []serveOp {
	var ops []serveOp
	for _, m := range serveMix {
		for i := 0; i < m.n; i++ {
			ops = append(ops, serveOp{class: m.class})
		}
	}
	w.rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	mid := len(ops) / 2
	ops = append(ops[:mid], append([]serveOp{{class: "compact"}}, ops[mid:]...)...)
	hits := 0
	for i := range ops {
		switch ops[i].class {
		case "hit":
			ops[i].n = hits
			hits++
		case "requery":
			ops[i].n = w.requeryN
			w.requeryN++
		case "miss":
			ops[i].n = w.missN
			w.missN++
		}
	}
	return ops
}

// stamped returns tr's encoding under another job id and workload label:
// the same events in bytes vanid has never seen.
func stamped(tr *vani.Trace, label, job string) ([]byte, error) {
	cp := *tr
	cp.Meta.Workload, cp.Meta.JobID = label, job
	var buf bytes.Buffer
	if err := vani.WriteTrace(&buf, &cp); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func (w *serveWL) setup(ctx context.Context) error {
	sz := w.cfg.size
	w.rng = rand.New(rand.NewSource(w.cfg.seed))
	w.clients = min(2, runtime.NumCPU())

	// Inputs: two hot traces from the corpus, a pool of small hacc runs.
	hotRecipes := []recipe{generators[0], generators[3]} // cm1, jag
	w.hot = make([]hotTrace, len(hotRecipes))
	w.pool = make([]*vani.Trace, sz.pool)
	errs := make([]error, len(hotRecipes)+sz.pool)
	parallel.ForEach(0, len(errs), func(i int) {
		if i < len(hotRecipes) {
			res, err := generate(hotRecipes[i], sz.nodes, sz.scaleOf(hotRecipes[i].scale), w.cfg.seed)
			if err != nil {
				errs[i] = err
				return
			}
			h := &w.hot[i]
			h.name, h.events, h.runtime = hotRecipes[i].name, int64(len(res.Trace.Events)), res.Runtime
			h.path = filepath.Join(w.dir, h.name+".trc")
			if _, errs[i] = writeTrace(h.path, res.Trace, false); errs[i] == nil {
				h.data, errs[i] = os.ReadFile(h.path)
			}
			return
		}
		k := i - len(hotRecipes)
		res, err := generate(recipe{name: "hacc-small", workload: "hacc"}, sz.smallNodes, sz.smallScale, w.cfg.seed*1000+int64(k))
		if err != nil {
			errs[i] = err
			return
		}
		w.pool[k] = res.Trace
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	// Boot vanid.
	var err error
	w.srv, err = server.New(server.Config{DataDir: filepath.Join(w.dir, "data"), Workers: runtime.NumCPU()})
	if err != nil {
		return err
	}
	w.ts = httptest.NewServer(w.srv.Handler())
	w.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: w.clients, MaxConnsPerHost: w.clients}}

	// Store and characterize the hot traces and the fleet set, so their
	// reports are cached.
	for i := range w.hot {
		h := &w.hot[i]
		w.encBytes += int64(len(h.data))
		w.encEvents += h.events
		if err := w.upload(ctx, h.data, h.events); err != nil {
			return fmt.Errorf("uploading %s: %w", h.name, err)
		}
	}
	for i := 0; i < sz.fleet; i++ {
		tr := w.pool[i%len(w.pool)]
		data, err := stamped(tr, fleetLabel, fmt.Sprintf("fleet-%d", i))
		if err != nil {
			return err
		}
		ev := int64(len(tr.Events))
		w.encBytes += int64(len(data))
		w.encEvents += ev
		w.fleetEv += ev
		if err := w.upload(ctx, data, ev); err != nil {
			return fmt.Errorf("uploading small trace %d: %w", i, err)
		}
	}
	if w.fleetY, err = w.get(ctx, "/fleet/query?workload="+fleetLabel, ""); err != nil {
		return err
	}
	return nil
}

// upload stores one trace through the asynchronous path, waits for its
// job and keeps the cached report's id and both renderings.
func (w *serveWL) upload(ctx context.Context, data []byte, events int64) error {
	code, body, err := w.do(ctx, http.MethodPost, "/v1/traces", "", data)
	if err != nil {
		return err
	}
	var st struct {
		ID       string `json:"id"`
		ReportID string `json:"report_id"`
		Status   string `json:"status"`
	}
	if err := json.Unmarshal(body, &st); err != nil || (code != http.StatusAccepted && code != http.StatusOK) {
		return fmt.Errorf("upload answered %d: %s", code, body)
	}
	if st.ID != "" {
		if err := w.srv.WaitJob(ctx, st.ID); err != nil {
			return err
		}
	}
	rep := cachedReport{id: st.ReportID, events: events}
	if rep.yaml, err = w.get(ctx, "/v1/reports/"+rep.id, ""); err != nil {
		return err
	}
	if rep.json, err = w.get(ctx, "/v1/reports/"+rep.id, "application/json"); err != nil {
		return err
	}
	w.reports = append(w.reports, rep)
	return nil
}

// do sends one request and returns the status and the whole body.
func (w *serveWL) do(ctx context.Context, method, path, accept string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, w.ts.URL+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// do200 is do for a request that must answer 200.
func (w *serveWL) do200(ctx context.Context, method, path, accept string, body []byte) ([]byte, error) {
	code, out, err := w.do(ctx, method, path, accept, body)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("%s %s: status %d: %.200s", method, path, code, out)
	}
	return out, nil
}

func (w *serveWL) get(ctx context.Context, path, accept string) ([]byte, error) {
	return w.do200(ctx, http.MethodGet, path, accept, nil)
}

func (w *serveWL) round(ctx context.Context, r *round) {
	ops := w.schedule()
	// The round's never-seen uploads are encoded before the clock starts.
	missData := map[int][]byte{}
	for _, op := range ops {
		if op.class == "miss" {
			data, err := stamped(w.pool[op.n%len(w.pool)], newLabel, fmt.Sprintf("new-%d", op.n))
			if err != nil {
				r.p.fail(err) // the op then uploads nothing and fails on vanid's 400
			}
			missData[op.n] = data
			w.missB += int64(len(data))
		}
	}
	r.timed(func() {
		var next atomic.Int64
		var wg sync.WaitGroup
		for c := 0; c < w.clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(ops) {
						return
					}
					w.request(ctx, r, ops[i], missData[ops[i].n])
				}
			}()
		}
		wg.Wait()
	})
}

// request performs one scheduled op through r.
func (w *serveWL) request(ctx context.Context, r *round, op serveOp, missData []byte) {
	http200 := func(o opCtx, method, path, accept string, body []byte) (out []byte, err error) {
		o.span("server.http", func() { out, err = w.do200(ctx, method, path, accept, body) })
		return out, err
	}
	same := func(got, want []byte, what string) func() error {
		return func() error {
			if !bytes.Equal(got, want) {
				return fmt.Errorf("%s differs from the one served before (%d vs %d bytes)", what, len(got), len(want))
			}
			return nil
		}
	}
	switch op.class {
	case "hit":
		k := op.n % len(w.reports)
		rep := w.reports[k]
		accept, want := "", rep.yaml
		if (op.n/len(w.reports)+k)%2 == 1 { // each report is fetched in both renderings
			accept, want = "application/json", rep.json
		}
		r.do("hit", rep.events, func(o opCtx) (func() error, error) {
			got, err := http200(o, http.MethodGet, "/v1/reports/"+rep.id, accept, nil)
			return same(got, want, "cached report"), err
		})
	case "requery":
		h := &w.hot[op.n%len(w.hot)]
		fs := requeryFilter(op.n, h.runtime)
		r.do("requery", h.events, func(o opCtx) (func() error, error) {
			got, err := http200(o, http.MethodPost, "/v1/characterize?"+fs.query(), "", h.data)
			if err == nil && op.n%10 == 0 {
				w.keep(servedReport{class: "requery", path: h.path, filter: fs, body: got})
			}
			return nil, err
		})
	case "miss":
		tr := w.pool[op.n%len(w.pool)]
		r.do("miss", int64(len(tr.Events)), func(o opCtx) (func() error, error) {
			got, err := http200(o, http.MethodPost, "/v1/characterize", "", missData)
			if err == nil && op.n%10 == 0 {
				w.keep(servedReport{class: "miss", trace: missData, body: got})
			}
			return nil, err
		})
	case "fleet":
		r.do("fleet", w.fleetEv, func(o opCtx) (func() error, error) {
			got, err := http200(o, http.MethodGet, "/fleet/query?workload="+fleetLabel, "", nil)
			return same(got, w.fleetY, "fleet report"), err
		})
	case "compact":
		r.do("compact", 0, func(o opCtx) (func() error, error) {
			_, err := http200(o, http.MethodPost, "/v1/compact", "", nil)
			return nil, err
		})
	}
}

func (w *serveWL) keep(s servedReport) {
	w.mu.Lock()
	w.deferred = append(w.deferred, s)
	w.mu.Unlock()
}

// finish checks the kept reports against the CLI path, shuts vanid down,
// and checks the fleet report against a read-only open of the data dir.
func (w *serveWL) finish(ctx context.Context) error {
	for i, s := range w.deferred {
		path := s.path
		if path == "" {
			path = filepath.Join(w.dir, fmt.Sprintf("kept-%d.trc", i))
			if err := os.WriteFile(path, s.trace, 0o644); err != nil {
				return err
			}
		}
		flt, err := s.filter.filter()
		if err != nil {
			return err
		}
		c, err := vani.CharacterizeFileContext(ctx, path, analyzerOptions(flt))
		if err != nil {
			return err
		}
		if !bytes.Equal(vani.ToYAML(c), s.body) {
			return fmt.Errorf("%s %d (%s): vanid's report differs from the CLI path's", s.class, i, s.filter.query())
		}
	}

	final, err := w.get(ctx, "/fleet/query?workload="+fleetLabel, "")
	if err != nil {
		return err
	}
	snap := w.srv.Metrics().Snapshot()
	w.shutdown(ctx)
	if snap.JobsRejected != 0 || snap.JobsFailed != 0 {
		return fmt.Errorf("vanid rejected %d and failed %d jobs", snap.JobsRejected, snap.JobsFailed)
	}

	rp, err := repo.Open(filepath.Join(w.dir, "data"), repo.Options{ReadOnly: true})
	if err != nil {
		return err
	}
	defer rp.Close()
	cfg := workloads.DefaultSpec().Storage
	rep, err := rp.FleetQuery(ctx, repo.Query{Workload: fleetLabel}, repo.DefaultCharacterizer(&cfg, 1))
	if err != nil {
		return err
	}
	if !bytes.Equal(rep.YAML(), final) {
		return fmt.Errorf("fleet report served differs from a read-only open of the data dir")
	}
	return nil
}

// shutdown stops the listener and drains vanid, which checkpoints and
// closes its repository.
func (w *serveWL) shutdown(ctx context.Context) {
	w.ts.Close()
	w.client.CloseIdleConnections()
	w.srv.Shutdown(ctx) //nolint:errcheck // fails only when ctx expired, and then the caller is giving up too
	w.ts, w.srv = nil, nil
}

func (w *serveWL) close() {
	if w.ts != nil {
		w.ts.Close()
		w.client.CloseIdleConnections()
	}
	if w.srv != nil {
		w.srv.Close()
	}
	w.ts, w.srv = nil, nil
}

func (w *serveWL) encoded() (int64, int64) { return w.encBytes, w.encEvents }

func (w *serveWL) layers(ctx context.Context, plain, traced phase, _ []span) (map[string]float64, error) {
	snap := w.srv.Metrics().Snapshot()
	compacts := append(plain.durs("compact"), traced.durs("compact")...)
	m := map[string]float64{
		"class.hit_p50_ms":     plain.classP50("hit"),
		"class.requery_p50_ms": plain.classP50("requery"),
		"class.miss_p50_ms":    plain.classP50("miss"),
		"class.fleet_p50_ms":   plain.classP50("fleet"),

		"server.req_per_s":              ratio(float64(len(plain.samples)-plain.failed()), plain.wall.Seconds()),
		"server.report_cache_hit_ratio": ratio(float64(snap.CacheHits), float64(snap.CacheHits+snap.CacheMisses)),
		"server.block_cache_hit_ratio":  ratio(float64(snap.BlockCacheHits), float64(snap.BlockCacheHits+snap.BlockCacheMisses)),
		"server.rejected":               float64(snap.JobsRejected),
		"server.jobs_failed":            float64(snap.JobsFailed),

		"repo.compact_ms": median(sorted(compacts)),
		// every byte a miss stored has been packed by one of the compact ops
		"repo.compact_mb_s": ratio(float64(w.missB)/1e6, sum(compacts)/1e3),
	}

	// The HTTP floor.
	var healthz []float64
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		if _, err := w.get(ctx, "/healthz", ""); err != nil {
			return nil, err
		}
		healthz = append(healthz, ms(time.Since(t0)))
	}
	m["server.healthz_ms"] = median(sorted(healthz))

	// Bytes decoded by re-queries of a hot trace, alone on the server: 0
	// when the block cache serves them.
	before := w.srv.Metrics().Snapshot().ScanDecodedBytes
	const requeries = 4
	for i := 0; i < requeries; i++ {
		h := &w.hot[i%len(w.hot)]
		fs := requeryFilter(w.requeryN, h.runtime)
		w.requeryN++
		if _, err := w.do200(ctx, http.MethodPost, "/v1/characterize?"+fs.query(), "", h.data); err != nil {
			return nil, err
		}
	}
	m["server.requery_decoded_bytes"] = float64(w.srv.Metrics().Snapshot().ScanDecodedBytes-before) / requeries

	if err := w.repoProbes(ctx, m); err != nil {
		return nil, err
	}
	return m, nil
}

// repoProbes time the repository alone, on a scratch store holding the
// small traces: Add of new and of already-stored bytes, a fleet query
// before and after compaction, a reopen, and the space it all takes.
func (w *serveWL) repoProbes(ctx context.Context, m map[string]float64) error {
	dir := filepath.Join(w.dir, "scratch-repo")
	rp, err := repo.Open(dir, repo.Options{})
	if err != nil {
		return err
	}
	defer func() { rp.Close() }()

	n := w.cfg.size.fleet
	var bodies [][]byte
	var userBytes int64
	for i := 0; i < n; i++ {
		data, err := stamped(w.pool[i%len(w.pool)], fleetLabel, fmt.Sprintf("probe-%d", i))
		if err != nil {
			return err
		}
		bodies = append(bodies, data)
		userBytes += int64(len(data))
	}
	add := func() (float64, error) {
		var xs []float64
		for _, b := range bodies {
			t0 := time.Now()
			if _, _, err := rp.Add(bytes.NewReader(b)); err != nil {
				return 0, err
			}
			xs = append(xs, ms(time.Since(t0)))
		}
		return median(sorted(xs)), nil
	}
	if m["repo.add_ms"], err = add(); err != nil {
		return err
	}
	if m["repo.add_dup_ms"], err = add(); err != nil {
		return err
	}

	cfg := workloads.DefaultSpec().Storage
	fleet := func() (float64, error) {
		var xs []float64
		for i := 0; i < w.cfg.size.probeReps; i++ {
			t0 := time.Now()
			if _, err := rp.FleetQuery(ctx, repo.Query{Workload: fleetLabel}, repo.DefaultCharacterizer(&cfg, 1)); err != nil {
				return 0, err
			}
			xs = append(xs, ms(time.Since(t0)))
		}
		return median(sorted(xs)) / float64(n), nil
	}
	if m["repo.fleet_ms_per_trace.loose"], err = fleet(); err != nil {
		return err
	}
	if _, err := rp.CompactNow(); err != nil {
		return err
	}
	if m["repo.fleet_ms_per_trace.packed"], err = fleet(); err != nil {
		return err
	}
	m["repo.disk_bytes_per_user_byte"] = ratio(float64(rp.Stats().Bytes), float64(userBytes))

	if err := rp.Close(); err != nil {
		return err
	}
	t0 := time.Now()
	if rp, err = repo.Open(dir, repo.Options{}); err != nil {
		return err
	}
	m["repo.open_ms"] = ms(time.Since(t0))
	return nil
}
