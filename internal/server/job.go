package server

// The job queue: a bounded channel drained by a fixed worker pool. The
// channel's capacity IS the backpressure policy — enqueue is a non-blocking
// send, and a full queue turns into 429 + Retry-After at the HTTP edge
// instead of unbounded memory growth. Workers run characterizations under
// the server's base context, so shutdown can either drain (close the
// channel, let workers finish) or abort (cancel the context, in-flight scans
// stop at the next chunk boundary).

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"

	"vani"
	"vani/internal/colstore"
	"vani/internal/repo"
	"vani/internal/trace"
)

// traceLoc locates one stored trace's bytes: a whole file (legacy spool,
// loose repository file) or a [off, off+size) section of a pack file.
type traceLoc struct {
	sha  string
	path string
	off  int64
	size int64 // 0 = whole file
}

// jobState is the lifecycle of a characterization job.
type jobState string

const (
	jobQueued  jobState = "queued"
	jobRunning jobState = "running"
	jobDone    jobState = "done"
	jobFailed  jobState = "failed"
)

// job is one queued unit of work: a characterization (a stored trace plus
// a filter spec) or a what-if sweep (a parsed sweep document).
type job struct {
	id       string
	reportID string
	loc      traceLoc
	handle   *repo.Handle // repo mode: pins the backing file; nil on spool
	filter   trace.Filter
	sweep    *vani.Sweep // non-nil: this job runs a sweep, not a characterization

	mu          sync.Mutex
	state       jobState
	errs        string
	pointsDone  int // sweep progress: grid points finished
	pointsTotal int // sweep progress: grid size (0 for characterizations)

	done chan struct{} // closed when the job reaches done or failed
}

// releaseHandle unpins the job's repository handle (idempotent, nil-safe).
func (j *job) releaseHandle() { releaseHandle(j.handle) }

// releaseHandle unpins a repository handle; nil (spool mode) is a no-op.
func releaseHandle(h *repo.Handle) {
	if h != nil {
		h.Close()
	}
}

func (j *job) setState(st jobState, errMsg string) {
	j.mu.Lock()
	j.state = st
	j.errs = errMsg
	j.mu.Unlock()
}

// setProgress records how many sweep points have finished.
func (j *job) setProgress(done int) {
	j.mu.Lock()
	j.pointsDone = done
	j.mu.Unlock()
}

// status snapshots the job for the API.
func (j *job) status() jobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return jobStatus{
		ID: j.id, ReportID: j.reportID, Status: string(j.state), Error: j.errs,
		PointsDone: j.pointsDone, PointsTotal: j.pointsTotal,
	}
}

// jobStatus is the JSON shape of GET /v1/jobs/{id} and the upload response.
// PointsDone/PointsTotal carry sweep progress and are omitted for
// characterization jobs.
type jobStatus struct {
	ID          string `json:"id,omitempty"`
	ReportID    string `json:"report_id"`
	Status      string `json:"status"`
	Error       string `json:"error,omitempty"`
	PointsDone  int    `json:"points_done,omitempty"`
	PointsTotal int    `json:"points_total,omitempty"`
}

// worker drains the queue until it is closed (graceful drain) or the base
// context is canceled (forced abort, observed inside the characterization).
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

// runJob executes one queued unit of work and publishes its report.
func (s *Server) runJob(j *job) {
	if j.sweep != nil {
		s.runSweepJob(j)
		return
	}
	defer j.releaseHandle()
	if s.beforeJob != nil {
		s.beforeJob() // test hook: hold workers to fill the queue
	}
	j.setState(jobRunning, "")
	s.metrics.JobsRunning.Add(1)
	defer s.metrics.JobsRunning.Add(-1)

	rep, sc, err := s.characterize(s.baseCtx, j.loc, j.filter, j.reportID)
	if err != nil {
		j.setState(jobFailed, err.Error())
		s.metrics.JobsFailed.Add(1)
		close(j.done)
		return
	}
	s.cache.Put(rep)
	s.metrics.AddScan(sc)
	s.metrics.JobsDone.Add(1)
	j.setState(jobDone, "")
	close(j.done)
}

// characterize runs the analyzer over the stored trace exactly the way
// cmd/vani does — same default storage model, same filter pushdown, same
// YAML renderer — so the served artifact is byte-identical to the CLI's.
// Traces route through the shared decoded-block cache: repeat queries
// against a hot trace (any filter spec) perform zero block decodes.
func (s *Server) characterize(ctx context.Context, loc traceLoc, f trace.Filter, id string) (*report, colstore.ScanCounters, error) {
	opt := vani.DefaultAnalyzerOptions()
	opt.Storage = s.storageCfg()
	opt.Parallelism = s.cfg.Parallelism
	opt.Filter = f
	var timings vani.AnalyzerTimings
	opt.Stats = &timings

	c, err := s.analyze(ctx, loc, opt)
	if err != nil {
		return nil, colstore.ScanCounters{}, err
	}
	js, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return nil, colstore.ScanCounters{}, fmt.Errorf("encoding report: %w", err)
	}
	js = append(js, '\n')
	return &report{ID: id, YAML: vani.ToYAML(c), JSON: js}, timings.Scan, nil
}

// analyze picks the read path: block-cached when the cache is on, a section
// reader for pack members, the plain file path otherwise. All produce the
// identical characterization; the choice only changes where blocks decode.
func (s *Server) analyze(ctx context.Context, loc traceLoc, opt vani.AnalyzerOptions) (*vani.Characterization, error) {
	if s.blocks != nil && loc.sha != "" {
		src, err := s.blocks.acquire(loc.sha, loc.path, loc.off, loc.size)
		if err == nil {
			defer s.blocks.release(src)
			return vani.CharacterizeBlocksContext(ctx, src, opt)
		}
		// Cache build failed (mmap limits, truncated file): the direct
		// paths below still serve the request.
	}
	if loc.off > 0 {
		// A pack member without the cache: scan its section in place.
		f, err := os.Open(loc.path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		sec := io.NewSectionReader(f, loc.off, loc.size)
		br, err := trace.NewBlockReader(trace.ReaderAtContext(ctx, sec), loc.size)
		if err != nil {
			return nil, err
		}
		return vani.CharacterizeBlocksContext(ctx, br, opt)
	}
	return vani.CharacterizeFileContext(ctx, loc.path, opt)
}
