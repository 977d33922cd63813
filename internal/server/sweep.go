package server

// POST /v1/sweep: what-if sweeps as a service. The request body is a sweep
// document (YAML or JSON); its SHA-256 is the report's content address, so
// identical sweeps are served from the cache without re-simulating, and
// in-flight duplicates join the queued job. Sweep jobs ride the same
// bounded queue and worker pool as characterization jobs — a full queue is
// 429 + Retry-After here too — and publish their progress (grid points
// done/total) through GET /v1/jobs/{id}. The report YAML is rendered by
// the same encoder as `vani sweep`, byte-identical for the same document.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"vani"
)

// maxSweepBody bounds a sweep upload: a longer body is refused with 413
// before it is parsed. The spec parser's own 1 MiB document cap rejects
// anything between the two with a clean error.
const maxSweepBody = 2 << 20

// sweepReportID derives the content address of a sweep report from the raw
// document bytes.
func sweepReportID(body []byte) string {
	h := sha256.Sum256(body)
	return "sweep-" + hex.EncodeToString(h[:])
}

// handleSweep is POST /v1/sweep: parse, dedupe against the cache and
// in-flight jobs, then enqueue with backpressure.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSweepBody))
	if err != nil {
		code := http.StatusBadRequest
		if errors.As(err, new(*http.MaxBytesError)) {
			code = http.StatusRequestEntityTooLarge
		}
		httpError(w, code, fmt.Sprintf("reading sweep document: %v", err))
		return
	}
	sw, err := vani.ParseSweep(body)
	if err != nil {
		if errors.Is(err, vani.ErrBadSpec) {
			httpError(w, http.StatusBadRequest, err.Error())
		} else {
			httpError(w, http.StatusInternalServerError, err.Error())
		}
		return
	}
	repID := sweepReportID(body)
	if _, hit := s.cache.Get(repID); hit {
		s.metrics.SweepCacheHits.Add(1)
		writeJSON(w, http.StatusOK, jobStatus{ReportID: repID, Status: string(jobDone)})
		return
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		httpError(w, http.StatusServiceUnavailable, "shutting down")
		return
	}
	if j, inflight := s.jobByReport[repID]; inflight {
		s.mu.Unlock()
		writeJSON(w, http.StatusAccepted, j.status())
		return
	}
	j := &job{
		id:       fmt.Sprintf("j%08d", s.seq.Add(1)),
		reportID: repID,
		sweep:    sw,
		state:    jobQueued,
		done:     make(chan struct{}),
	}
	j.pointsTotal = sw.NumPoints()
	select {
	case s.queue <- j:
	default:
		s.mu.Unlock()
		s.metrics.JobsRejected.Add(1)
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, "job queue full, retry later")
		return
	}
	s.jobs[j.id] = j
	s.jobByReport[repID] = j
	s.mu.Unlock()
	s.metrics.JobsQueued.Add(1)
	s.metrics.SweepJobs.Add(1)

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

// runSweepJob executes one queued sweep and publishes its report. Workers
// already parallelize across jobs, so each sweep runs its points with the
// engine's own default parallelism; the report bytes are independent of it.
func (s *Server) runSweepJob(j *job) {
	if s.beforeJob != nil {
		s.beforeJob() // test hook: hold workers to fill the queue
	}
	j.setState(jobRunning, "")
	s.metrics.JobsRunning.Add(1)
	defer s.metrics.JobsRunning.Add(-1)

	// The base context stops the sweep at its next point or trial when
	// Shutdown gives up waiting.
	rep, err := j.sweep.RunContext(s.baseCtx, vani.SweepOptions{
		Storage: s.cfg.Storage,
		OnPoint: func(done, total int) {
			s.metrics.SweepRuns.Add(1)
			j.setProgress(done)
		},
	})
	if err != nil {
		j.setState(jobFailed, err.Error())
		s.metrics.JobsFailed.Add(1)
		close(j.done)
		return
	}
	yml := vani.SweepToYAML(rep)
	js, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		j.setState(jobFailed, fmt.Sprintf("encoding sweep report: %v", err))
		s.metrics.JobsFailed.Add(1)
		close(j.done)
		return
	}
	js = append(js, '\n')
	s.cache.Put(&report{ID: j.reportID, YAML: yml, JSON: js})
	s.metrics.JobsDone.Add(1)
	j.setState(jobDone, "")
	close(j.done)
}
