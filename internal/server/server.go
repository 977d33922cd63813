// Package server implements vanid, the always-on characterization service:
// trace uploads land content-addressed in a trace repository (internal/repo),
// characterization jobs run on a bounded worker pool with 429 backpressure,
// and finished reports are served from an LRU cache keyed by SHA-256(trace
// bytes) + normalized filter spec. This is the serving half of the paper's
// vision — the storage system queries characterizations on demand instead
// of running a one-shot CLI per trace.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vani"
	"vani/internal/cliutil"
	"vani/internal/repo"
	"vani/internal/trace"
	"vani/internal/workloads"
)

// Config tunes the daemon. The zero value works: Fill substitutes the
// defaults the flags in cmd/vanid advertise.
type Config struct {
	// Workers is the characterization pool size (default 4).
	Workers int
	// QueueDepth bounds the number of accepted-but-unstarted jobs; a full
	// queue turns uploads into 429 + Retry-After (default 64).
	QueueDepth int
	// CacheEntries bounds the report cache (default 256).
	CacheEntries int
	// CacheBytes bounds the shared decoded-block cache's worst-case
	// residency (default 256 MiB). Served traces stay mmap-resident; from
	// a trace's second scan on its blocks are memoized, so re-queries
	// decode nothing, while a trace scanned once holds no decoded columns.
	// 0 keeps the default, negative disables the cache.
	CacheBytes int64
	// DataDir roots the trace repository every upload lands in: workload/day
	// shards under DataDir, indexed by a crash-safe manifest, queried by the
	// fleet endpoints, and surviving restarts. Empty opens the repository in
	// a fresh directory under os.TempDir, which outlives the process and is
	// never reopened.
	DataDir string
	// CompactEvery is the background compaction period for the repository
	// (0 disables the loop; POST /v1/compact still works).
	CompactEvery time.Duration
	// RetainAge drops stored traces older than this during repository GC
	// (0 keeps everything).
	RetainAge time.Duration
	// RetainCount caps the number of stored traces; GC drops the oldest
	// beyond it (0 = no cap).
	RetainCount int
	// RetainBytes caps the stored traces' total bytes the same way
	// (0 = no cap).
	RetainBytes int64
	// Storage is the storage model handed to the analyzer; nil means the
	// same default cmd/vani uses, keeping reports byte-identical across
	// the CLI and the service.
	Storage *vani.StorageConfig
	// Parallelism is the per-job analyzer parallelism (0 = GOMAXPROCS).
	Parallelism int
	// EnablePprof mounts net/http/pprof under /debug/pprof/ so aggregation
	// hot spots are profileable in the running service. Off by default: the
	// endpoints expose internals and cost CPU, so they are opt-in.
	EnablePprof bool
}

func (c *Config) fill() error {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 256
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 256 << 20
	}
	if c.DataDir == "" {
		dir, err := os.MkdirTemp("", "vanid-repo-")
		if err != nil {
			return fmt.Errorf("data dir: %w", err)
		}
		c.DataDir = dir
	}
	return nil
}

// Server is the vanid HTTP service.
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	metrics *Metrics
	cache   *reportCache
	blocks  *blockCache // shared decoded-block cache; nil when disabled
	repo    *repo.Repo  // the trace repository every upload lands in

	baseCtx context.Context // canceled to abort in-flight jobs
	abort   context.CancelFunc

	mu          sync.Mutex
	closed      bool
	queue       chan *job
	jobs        map[string]*job
	jobByReport map[string]*job // in-flight dedup: reportID → queued/running job
	seq         atomic.Int64

	wg sync.WaitGroup

	// beforeJob, when set, runs at the head of every worker job — tests
	// block here to hold the pool busy and fill the queue.
	beforeJob func()
}

// New builds the service and starts its worker pool. Callers own shutdown:
// Shutdown drains, Close aborts.
func New(cfg Config) (*Server, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	rp, err := repo.Open(cfg.DataDir, repo.Options{
		CompactEvery: cfg.CompactEvery,
		RetainAge:    cfg.RetainAge,
		RetainCount:  cfg.RetainCount,
		RetainBytes:  cfg.RetainBytes,
	})
	if err != nil {
		return nil, fmt.Errorf("opening trace repository: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	metrics := &Metrics{}
	s := &Server{
		cfg:         cfg,
		metrics:     metrics,
		cache:       newReportCache(cfg.CacheEntries),
		repo:        rp,
		baseCtx:     ctx,
		abort:       cancel,
		queue:       make(chan *job, cfg.QueueDepth),
		jobs:        make(map[string]*job),
		jobByReport: make(map[string]*job),
	}
	if cfg.CacheBytes > 0 {
		s.blocks = newBlockCache(cfg.CacheBytes, metrics)
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/traces", s.handleUpload)
	s.mux.HandleFunc("POST /v1/characterize", s.handleCharacterize)
	s.mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /v1/reports/{id}", s.handleReport)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /fleet/query", s.handleFleet)
	s.mux.HandleFunc("POST /v1/compact", s.handleCompact)
	if cfg.EnablePprof {
		// net/http/pprof registers on DefaultServeMux at import; serve the
		// same handlers from this mux only when the operator opted in.
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s, nil
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics exposes the counters (tests and embedders read them directly).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Shutdown drains gracefully: new uploads are refused, queued and running
// jobs finish, then the pool exits and the repository is checkpointed and
// closed (no scan holds a handle any more). If ctx expires first the
// remaining work is aborted via the base context and Shutdown returns
// ctx.Err(). Safe to call more than once.
func (s *Server) Shutdown(ctx context.Context) (err error) {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.queue)
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		s.abort() // in-flight characterizations observe this mid-scan
		<-done
		err = ctx.Err()
	}
	s.repo.Close() //nolint:errcheck // shutdown path; manifest replay recovers
	return err
}

// Close aborts everything immediately and waits for the pool to exit.
func (s *Server) Close() {
	s.abort()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s.Shutdown(ctx) //nolint:errcheck // already-canceled ctx: drain skipped
}

func (s *Server) storageCfg() *vani.StorageConfig {
	if s.cfg.Storage != nil {
		return s.cfg.Storage.Clone()
	}
	cfg := workloads.DefaultSpec().Storage
	return &cfg
}

// parseFilter compiles the request's window/ranks/levels/ops query
// parameters through the same parser the CLI flags use.
func parseFilter(r *http.Request) (trace.Filter, error) {
	q := r.URL.Query()
	return cliutil.ParseFilter(q.Get("window"), q.Get("ranks"), q.Get("levels"), q.Get("ops"))
}

// maxTraceBody bounds a trace upload (POST /v1/traces, /v1/characterize):
// a longer body is refused with 413 and nothing of it stays in the
// repository. The bound is far above any trace the workloads write at
// benchmark scale, which are a few MiB.
const maxTraceBody = 1 << 30

// traceBodyLimit is the bound admit enforces: maxTraceBody, which only tests
// lower.
var traceBodyLimit int64 = maxTraceBody

// admit stores and validates an upload and resolves its content address:
// the body goes through Repo.Add (content-addressed, deduplicated, durable)
// and the trace's current location — loose shard file or pack section — is
// pinned by the returned handle for the scan's lifetime. admit answers the
// request itself (and returns ok=false) on bad input, a cache hit, or a
// server shutting down, whose repository stores nothing more.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) (h *repo.Handle, repID string, f trace.Filter, ok bool) {
	f, err := parseFilter(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return nil, "", f, false
	}
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		httpError(w, http.StatusServiceUnavailable, "shutting down")
		return nil, "", f, false
	}
	sha, _, err := s.repo.Add(http.MaxBytesReader(w, r.Body, traceBodyLimit))
	if err != nil {
		uploadError(w, err)
		return nil, "", f, false
	}
	repID = reportID(sha, f)
	if _, hit := s.cache.Get(repID); hit {
		s.metrics.CacheHits.Add(1)
		writeJSON(w, http.StatusOK, jobStatus{ReportID: repID, Status: string(jobDone)})
		return nil, "", f, false
	}
	h, err = s.repo.Acquire(sha)
	if err != nil {
		httpError(w, http.StatusInternalServerError, fmt.Sprintf("pinning stored trace: %v", err))
		return nil, "", f, false
	}
	return h, repID, f, true
}

// uploadError answers an upload that could not be stored: 413 for a body
// over traceBodyLimit, 400 for bytes that are not a trace, 500 for
// everything else.
func uploadError(w http.ResponseWriter, err error) {
	if errors.As(err, new(*http.MaxBytesError)) {
		httpError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("trace upload over %d bytes", traceBodyLimit))
		return
	}
	if errors.Is(err, repo.ErrNotTrace) {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("not a VANITRC2 v2.2 trace: %v", err))
		return
	}
	httpError(w, http.StatusInternalServerError, fmt.Sprintf("storing upload: %v", err))
}

// handleUpload is POST /v1/traces: store, dedupe against the cache and
// in-flight jobs, then enqueue with backpressure.
func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	h, repID, f, ok := s.admit(w, r)
	if !ok {
		return
	}
	s.metrics.CacheMisses.Add(1)

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		h.Close()
		httpError(w, http.StatusServiceUnavailable, "shutting down")
		return
	}
	// An identical upload already queued or running: join it instead of
	// doing the work twice.
	if j, inflight := s.jobByReport[repID]; inflight {
		s.mu.Unlock()
		h.Close()
		writeJSON(w, http.StatusAccepted, j.status())
		return
	}
	j := &job{
		id:       fmt.Sprintf("j%08d", s.seq.Add(1)),
		reportID: repID,
		handle:   h,
		filter:   f,
		state:    jobQueued,
		done:     make(chan struct{}),
		changed:  make(chan struct{}),
	}
	select {
	case s.queue <- j:
	default:
		s.mu.Unlock()
		h.Close()
		s.metrics.JobsRejected.Add(1)
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, "job queue full, retry later")
		return
	}
	s.jobs[j.id] = j
	s.jobByReport[repID] = j
	s.mu.Unlock()
	s.metrics.JobsQueued.Add(1)

	// Clear the in-flight marker once the job settles so a failed job can
	// be retried by re-uploading.
	go func() {
		<-j.done
		s.mu.Lock()
		if s.jobByReport[repID] == j {
			delete(s.jobByReport, repID)
		}
		s.mu.Unlock()
	}()

	writeJSON(w, http.StatusAccepted, j.status())
}

// handleCharacterize is POST /v1/characterize: the synchronous low-latency
// path. The characterization runs inline under the request context, so a
// client that disconnects or times out aborts the scan mid-trace. Results
// still land in the shared cache.
func (s *Server) handleCharacterize(w http.ResponseWriter, r *http.Request) {
	h, repID, f, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer h.Close()
	s.metrics.CacheMisses.Add(1)
	s.metrics.JobsRunning.Add(1)
	rep, sc, err := s.characterize(r.Context(), h, f, repID)
	s.metrics.JobsRunning.Add(-1)
	if err != nil {
		s.metrics.JobsFailed.Add(1)
		if trace.IsCtxErr(err) {
			// 499: client closed request (nginx convention); the scan was
			// abandoned mid-trace, nothing is cached.
			httpError(w, 499, "request canceled")
			return
		}
		httpError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	s.cache.Put(rep)
	s.metrics.AddScan(sc)
	s.metrics.JobsDone.Add(1)
	s.serveReport(w, r, rep)
}

// handleJob is GET /v1/jobs/{id}.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

// handleReport is GET /v1/reports/{id}: the cached artifact, YAML by
// default or JSON when the Accept header asks for it.
func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	rep, ok := s.cache.Get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such report (expired from cache or never computed)")
		return
	}
	s.metrics.CacheHits.Add(1)
	s.serveReport(w, r, rep)
}

func (s *Server) serveReport(w http.ResponseWriter, r *http.Request, rep *report) {
	if wantsJSON(r) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.Write(rep.JSON) //nolint:errcheck // best-effort response body
		return
	}
	w.Header().Set("Content-Type", "application/yaml")
	w.WriteHeader(http.StatusOK)
	w.Write(rep.YAML) //nolint:errcheck // best-effort response body
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n") //nolint:errcheck
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	snap := s.metrics.Snapshot()
	st := s.repo.Stats()
	snap.RepoShards = st.Shards
	snap.RepoFiles = st.Files
	snap.RepoCompactions = st.Compactions
	snap.RepoBytes = st.Bytes
	writeJSON(w, http.StatusOK, snap)
}

// handleFleet is GET /fleet/query: every stored characterization of one
// workload reduced into a cross-trace aggregate. The reduction order is
// fixed (traces sorted by content hash), so the YAML is byte-identical
// regardless of upload order, shard layout, compaction state, or the par
// query parameter.
func (s *Server) handleFleet(w http.ResponseWriter, r *http.Request) {
	f, err := parseFilter(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	q := repo.Query{Workload: r.URL.Query().Get("workload"), Filter: f}
	if p := r.URL.Query().Get("par"); p != "" {
		n, err := strconv.Atoi(p)
		if err != nil || n < 0 {
			httpError(w, http.StatusBadRequest, "par: want a non-negative integer")
			return
		}
		q.Parallelism = n
	}
	rep, err := s.repo.FleetQuery(r.Context(), q, s.fleetChar())
	if err != nil {
		if trace.IsCtxErr(err) {
			httpError(w, 499, "request canceled")
			return
		}
		httpError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	if wantsJSON(r) {
		writeJSON(w, http.StatusOK, rep)
		return
	}
	w.Header().Set("Content-Type", "application/yaml")
	w.WriteHeader(http.StatusOK)
	w.Write(rep.YAML()) //nolint:errcheck // best-effort response body
}

// fleetChar summarizes one repository trace for a fleet query. A report
// cached under the same trace and filter already holds the summary, so a
// hit scans nothing: the report ID is the trace hash plus the canonical
// filter, the storage model is server-wide, and a characterization is
// byte-identical at any parallelism, so the cached summary equals a scan's.
// A miss scans through the shared decoded-block cache at per-trace
// parallelism 1 (the query already fans out across traces) and does not
// insert: a fleet over many traces must not flush the hot reports out of
// the LRU, and a summary alone needs no YAML or JSON render.
func (s *Server) fleetChar() repo.CharFunc {
	return func(ctx context.Context, h *repo.Handle, f trace.Filter) (repo.TraceSummary, error) {
		if rep, ok := s.cache.Get(reportID(h.SHA(), f)); ok && rep.Summary != nil {
			s.metrics.FleetTracesCached.Add(1)
			return *rep.Summary, nil
		}
		s.metrics.FleetTracesScanned.Add(1)
		opt := vani.DefaultAnalyzerOptions()
		opt.Storage = s.storageCfg()
		opt.Parallelism = 1
		opt.Filter = f
		c, err := s.analyze(ctx, h, opt)
		if err != nil {
			return repo.TraceSummary{}, err
		}
		return repo.Summarize(h.SHA(), c), nil
	}
}

// handleCompact is POST /v1/compact: one synchronous compaction pass (small
// loose uploads merged into consolidated packs) followed by retention GC.
func (s *Server) handleCompact(w http.ResponseWriter, _ *http.Request) {
	packed, err := s.repo.CompactNow()
	if err != nil {
		httpError(w, http.StatusInternalServerError, fmt.Sprintf("compacting: %v", err))
		return
	}
	dropped, err := s.repo.GC()
	if err != nil {
		httpError(w, http.StatusInternalServerError, fmt.Sprintf("gc: %v", err))
		return
	}
	writeJSON(w, http.StatusOK, map[string]int{"packed": packed, "dropped": dropped})
}

// wantsJSON reports whether the Accept header prefers JSON over the
// default YAML rendering.
func wantsJSON(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), "application/json")
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // best-effort response body
}

type apiError struct {
	Error string `json:"error"`
}

func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, apiError{Error: msg})
}

// WaitJob blocks until the job settles or ctx expires — a convenience for
// embedders and tests; the HTTP API polls instead.
func (s *Server) WaitJob(ctx context.Context, id string) error {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return errors.New("no such job")
	}
	select {
	case <-j.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
