package replay

import (
	"context"
	"fmt"
	"sort"
	"time"

	"vani/internal/parallel"
	"vani/internal/storage"
	"vani/internal/trace"
)

// Candidate is one storage configuration under consideration, labeled for
// reporting.
type Candidate struct {
	Name   string
	Config storage.Config
}

// TrialResult is one candidate's replayed outcome.
type TrialResult struct {
	Candidate Candidate
	Runtime   time.Duration
	IOTime    time.Duration
}

// Tune replays the trace under every candidate and returns the results
// sorted fastest first — the automated configuration search the paper's
// self-configuring storage system would run with the characterization in
// hand. The trace is planned once and the candidates replay it
// concurrently, on up to GOMAXPROCS workers; the results do not depend on
// how many.
func Tune(tr *trace.Trace, candidates []Candidate, opt Options) ([]TrialResult, error) {
	if len(candidates) == 0 {
		return nil, fmt.Errorf("replay: no candidates")
	}
	pl, err := NewPlan(tr)
	if err != nil {
		return nil, err
	}
	results := make([]TrialResult, len(candidates))
	errs := make([]error, len(candidates))
	parallel.ForEach(0, len(candidates), func(i int) {
		results[i], errs[i] = pl.Trial(context.Background(), candidates[i], opt)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	SortTrials(results)
	return results, nil
}

// Trial replays the plan under one candidate's configuration, the rest of
// opt unchanged. It stops with ctx.Err() once ctx is done.
func (pl *Plan) Trial(ctx context.Context, cand Candidate, opt Options) (TrialResult, error) {
	opt.Storage = cand.Config
	res, err := pl.Run(ctx, opt)
	if err != nil {
		return TrialResult{}, fmt.Errorf("replay: candidate %s: %w", cand.Name, err)
	}
	return TrialResult{Candidate: cand, Runtime: res.Runtime, IOTime: res.IOTime}, nil
}

// SortTrials orders trial results fastest first; equal runtimes keep
// their order.
func SortTrials(results []TrialResult) {
	sort.SliceStable(results, func(i, j int) bool {
		return results[i].Runtime < results[j].Runtime
	})
}

// StripeSweep builds candidates varying the PFS stripe size around a base
// configuration — the Lustre tuning example of Section IV-D3.
func StripeSweep(base storage.Config, sizes ...int64) []Candidate {
	var cands []Candidate
	for _, sz := range sizes {
		if sz <= 0 {
			continue
		}
		cfg := base
		cfg.PFSStripeSize = sz
		cands = append(cands, Candidate{
			Name:   fmt.Sprintf("stripe=%s", sizeLabel(sz)),
			Config: cfg,
		})
	}
	return cands
}

// CacheSweep builds candidates toggling the client cache and read-ahead.
func CacheSweep(base storage.Config) []Candidate {
	off := base
	off.CacheEnabled = false
	noRA := base
	noRA.ReadAhead = 0
	return []Candidate{
		{Name: "cache=on", Config: base},
		{Name: "cache=off", Config: off},
		{Name: "readahead=off", Config: noRA},
	}
}

func sizeLabel(b int64) string {
	switch {
	case b >= 1<<20 && b%(1<<20) == 0:
		return fmt.Sprintf("%dMB", b>>20)
	case b >= 1<<10 && b%(1<<10) == 0:
		return fmt.Sprintf("%dKB", b>>10)
	default:
		return fmt.Sprintf("%dB", b)
	}
}
