package repo

import (
	"context"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"vani/internal/core"
	"vani/internal/parallel"
	"vani/internal/stats"
	"vani/internal/storage"
	"vani/internal/trace"
	"vani/internal/yamlenc"
)

// Query selects and scopes a fleet query.
type Query struct {
	// Workload restricts to one shard label ("" = every stored trace).
	Workload string
	// Filter is pushed down into each per-trace characterization.
	Filter trace.Filter
	// Parallelism bounds concurrent per-trace characterizations
	// (<= 0 means GOMAXPROCS). Partials reduce in sha order regardless,
	// so the report is byte-identical at any setting.
	Parallelism int
}

// CharFunc produces one trace's summary for the fleet reducer.
// Implementations must be deterministic functions of the trace bytes and
// filter — the fleet report inherits exactly their determinism — and may
// return a summary kept from an earlier characterization of the same bytes
// under the same filter and storage model instead of scanning again.
type CharFunc func(ctx context.Context, h *Handle, f trace.Filter) (TraceSummary, error)

// TraceSummary is the mergeable per-trace slice of a characterization:
// everything content-derived (no upload times, no paths), so the fleet
// report is invariant under upload order, shard layout, restarts, and
// compaction state.
type TraceSummary struct {
	SHA          string
	Runtime      time.Duration
	IOTime       time.Duration
	IOBytes      int64
	ReadBytes    int64
	WriteBytes   int64
	DataOpsPct   float64
	MetaOpsPct   float64
	ReadGranule  int64 // dominant read transfer size (high-level)
	WriteGranule int64 // dominant write transfer size (high-level)
	Interfaces   []string
	Phases       int
}

// Regression compares the slowest run against the fastest by I/O time.
type Regression struct {
	FastestSHA    string
	SlowestSHA    string
	FastestIOTime time.Duration
	SlowestIOTime time.Duration
	DeltaPct      float64
}

// FleetAggregate is the cross-trace reduction: totals, transfer-size and
// I/O-time distributions, the per-interface mix, and the widest
// regression between runs.
type FleetAggregate struct {
	Runs         int
	IOBytes      int64
	ReadBytes    int64
	WriteBytes   int64
	ReadGranule  stats.FiveNum
	WriteGranule stats.FiveNum
	IOTimeP50    time.Duration
	IOTimeP99    time.Duration
	// InterfaceMix counts traces touching each I/O interface.
	InterfaceMix map[string]int
	Regression   Regression // zero when fewer than two runs
}

// FleetReport is the fleet-query artifact served over /fleet/query and
// printed by `vani fleet`.
type FleetReport struct {
	Workload  string // "" = all workloads
	Runs      int
	Aggregate FleetAggregate
	Traces    []TraceSummary // sha-sorted
}

// YAML renders the report with the same deterministic encoder the
// single-trace pipeline uses.
func (fr *FleetReport) YAML() []byte { return yamlenc.Marshal(fr) }

// FleetQuery summarizes every selected trace through char (fanned across
// Parallelism workers) and reduces the per-trace summaries in sha order
// — the colstore chunk-reduce discipline lifted to trace-level partials,
// so the YAML is byte-identical at any worker count.
func (r *Repo) FleetQuery(ctx context.Context, q Query, char CharFunc) (*FleetReport, error) {
	shas := r.List(sanitizeQueryLabel(q.Workload))
	handles := make([]*Handle, 0, len(shas))
	defer func() {
		for _, h := range handles {
			h.Close()
		}
	}()
	for _, sha := range shas {
		h, err := r.Acquire(sha)
		if err != nil {
			// Dropped between List and Acquire (GC race); the trace is
			// simply not part of this query's snapshot.
			continue
		}
		handles = append(handles, h)
	}

	sums := make([]TraceSummary, len(handles))
	errs := make([]error, len(handles))
	parallel.ForEach(parallel.Degree(q.Parallelism), len(handles), func(i int) {
		sums[i], errs[i] = char(ctx, handles[i], q.Filter)
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("repo: fleet: %s: %w", handles[i].SHA(), err)
		}
	}
	return reduce(q.Workload, sums), nil
}

func sanitizeQueryLabel(s string) string {
	if s == "" {
		return ""
	}
	return sanitizeLabel(s)
}

// Summarize takes the fleet reducer's slice of one trace's
// characterization; sha is the trace's content hash.
func Summarize(sha string, c *core.Characterization) TraceSummary {
	ifaces := make(map[string]bool)
	for _, a := range c.Apps {
		if a.Interface != "" {
			ifaces[a.Interface] = true
		}
	}
	names := make([]string, 0, len(ifaces))
	for n := range ifaces {
		names = append(names, n)
	}
	sort.Strings(names)
	return TraceSummary{
		SHA:          sha,
		Runtime:      c.Workflow.Runtime,
		IOTime:       c.Workflow.IOTime,
		IOBytes:      c.Workflow.IOBytes,
		ReadBytes:    c.Workflow.ReadBytes,
		WriteBytes:   c.Workflow.WriteBytes,
		DataOpsPct:   c.Workflow.DataOpsPct,
		MetaOpsPct:   c.Workflow.MetaOpsPct,
		ReadGranule:  c.HighLevel.Granularity.Read,
		WriteGranule: c.HighLevel.Granularity.Write,
		Interfaces:   names,
		Phases:       len(c.Phases),
	}
}

// reduce folds sha-ordered summaries into the aggregate. Deterministic
// merge order: sums in slice order, percentiles over sorted copies,
// regression ties broken by sha.
func reduce(workload string, sums []TraceSummary) *FleetReport {
	fr := &FleetReport{Workload: workload, Runs: len(sums), Traces: sums}
	agg := &fr.Aggregate
	agg.Runs = len(sums)
	agg.InterfaceMix = make(map[string]int)
	if len(sums) == 0 {
		return fr
	}
	readG := make([]float64, len(sums))
	writeG := make([]float64, len(sums))
	ioT := make([]float64, len(sums))
	for i, s := range sums {
		agg.IOBytes += s.IOBytes
		agg.ReadBytes += s.ReadBytes
		agg.WriteBytes += s.WriteBytes
		readG[i] = float64(s.ReadGranule)
		writeG[i] = float64(s.WriteGranule)
		ioT[i] = float64(s.IOTime)
		for _, n := range s.Interfaces {
			agg.InterfaceMix[n]++
		}
	}
	agg.ReadGranule = stats.FiveNumOf(readG)
	agg.WriteGranule = stats.FiveNumOf(writeG)
	agg.IOTimeP50 = time.Duration(stats.Percentile(ioT, 50) + 0.5)
	agg.IOTimeP99 = time.Duration(stats.Percentile(ioT, 99) + 0.5)
	if len(sums) >= 2 {
		fast, slow := sums[0], sums[0]
		for _, s := range sums[1:] {
			if s.IOTime < fast.IOTime {
				fast = s
			}
			if s.IOTime > slow.IOTime {
				slow = s
			}
		}
		agg.Regression = Regression{
			FastestSHA:    fast.SHA,
			SlowestSHA:    slow.SHA,
			FastestIOTime: fast.IOTime,
			SlowestIOTime: slow.IOTime,
		}
		if fast.IOTime > 0 {
			agg.Regression.DeltaPct = float64(slow.IOTime-fast.IOTime) / float64(fast.IOTime) * 100
		}
	}
	return fr
}

// Characterize runs the single-trace analyzer over the handle's bytes: the
// [Off, Off+Size) section of Path, which is the whole file for a loose
// trace and one member for a packed one.
func (h *Handle) Characterize(ctx context.Context, opt core.Options) (*core.Characterization, error) {
	f, err := os.Open(h.path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sec := io.NewSectionReader(f, h.off, h.size)
	br, err := trace.NewBlockReader(trace.ReaderAtContext(ctx, sec), h.size)
	if err != nil {
		return nil, err
	}
	return core.AnalyzeBlocksContext(ctx, br, opt)
}

// DefaultCharacterizer builds the standard CharFunc: the CLI pipeline
// with the given storage model and per-trace analyzer parallelism, run on
// every call.
func DefaultCharacterizer(cfg *storage.Config, par int) CharFunc {
	return func(ctx context.Context, h *Handle, f trace.Filter) (TraceSummary, error) {
		opt := core.DefaultOptions()
		opt.Storage = cfg.Clone() // private copy per concurrent scan
		opt.Filter = f
		opt.Parallelism = par
		c, err := h.Characterize(ctx, opt)
		if err != nil {
			return TraceSummary{}, err
		}
		return Summarize(h.SHA(), c), nil
	}
}
