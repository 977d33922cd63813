// Package sweep runs what-if sweeps: a sweep document (internal/spec) — a
// workload plus a parameter grid — expands into concrete simulation runs,
// and the outcomes reduce into a comparative report: the paper's case-study
// reconfiguration experiments (Figures 7 and 8) as an automated search.
// Reports are rendered with yamlenc so the CLI and the vanid service
// produce byte-identical artifacts for the same sweep document.
package sweep

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"vani/internal/advisor"
	"vani/internal/core"
	"vani/internal/replay"
	"vani/internal/spec"
	"vani/internal/storage"
	"vani/internal/workloads"
)

// Sweep is a parsed sweep document that can run. The document lives in
// internal/spec, which the analyzer's own tests import for the workload
// catalog, so the half that drives the analyzer lives here.
type Sweep struct {
	*spec.Sweep
}

// Parse decodes and validates a sweep document (YAML or JSON).
func Parse(data []byte) (*Sweep, error) {
	doc, err := spec.ParseSweep(data)
	if err != nil {
		return nil, err
	}
	return &Sweep{doc}, nil
}

// ParseFile reads and parses a sweep document from disk.
func ParseFile(path string) (*Sweep, error) {
	doc, err := spec.ParseSweepFile(path)
	if err != nil {
		return nil, err
	}
	return &Sweep{doc}, nil
}

// Point is one evaluated grid point.
type Point struct {
	Index   int                 `yaml:"index"`
	Config  []spec.SweepSetting `yaml:"config"`
	Runtime time.Duration       `yaml:"runtime"`
	IOTime  time.Duration       `yaml:"io_time"`
}

// Winner is the selected configuration with speedups vs the
// baseline (point 0, the first value of every axis).
type Winner struct {
	Index          int                 `yaml:"index"`
	Config         []spec.SweepSetting `yaml:"config"`
	Runtime        time.Duration       `yaml:"runtime"`
	IOTime         time.Duration       `yaml:"io_time"`
	IOSpeedup      string              `yaml:"io_speedup"`
	RuntimeSpeedup string              `yaml:"runtime_speedup"`
}

// Recommendation is an advisor verdict on the baseline run.
type Recommendation struct {
	ID        string `yaml:"id"`
	Parameter string `yaml:"parameter"`
	Value     string `yaml:"value"`
	Rationale string `yaml:"rationale"`
}

// Trial is one replayed storage candidate on the baseline trace.
type Trial struct {
	Name    string        `yaml:"name"`
	Runtime time.Duration `yaml:"runtime"`
	IOTime  time.Duration `yaml:"io_time"`
}

// Report is the sweep's comparative artifact.
type Report struct {
	Name            string           `yaml:"name"`
	Workload        string           `yaml:"workload"`
	Nodes           int              `yaml:"nodes"`
	RanksPerNode    int              `yaml:"ranks_per_node"`
	Scale           float64          `yaml:"scale"`
	Seed            int64            `yaml:"seed"`
	Points          []Point          `yaml:"points"`
	Winner          Winner           `yaml:"winner"`
	Recommendations []Recommendation `yaml:"recommendations"`
	StripeTrials    []Trial          `yaml:"stripe_trials"`
}

// Options configures a sweep execution. The zero value matches the
// vanid service's defaults, so CLI and service reports are byte-identical.
type Options struct {
	// Storage overrides every point's storage configuration (nil keeps
	// the workload default).
	Storage *storage.Config
	// Parallelism bounds concurrent points (0 = min(NumCPU, 4)). The
	// report does not depend on it.
	Parallelism int
	// OnPoint, when set, is called after each point completes.
	OnPoint func(done, total int)
}

// Run expands the grid, simulates every point, and reduces the outcomes
// into the comparative report. Point 0 — the first value of every axis —
// is the baseline speedups are measured against.
func (sw *Sweep) Run(opt Options) (*Report, error) {
	total := sw.NumPoints()
	par := opt.Parallelism
	if par <= 0 {
		par = runtime.NumCPU()
		if par > 4 {
			par = 4
		}
	}
	if par > total {
		par = total
	}

	type outcome struct {
		res  *workloads.Result
		char *core.Characterization
		err  error
	}
	outs := make([]outcome, total)
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		done int
	)
	sem := make(chan struct{}, par)
	for i := range outs {
		i := i
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer func() {
				<-sem
				wg.Done()
			}()
			res, char, err := sw.runPoint(i, opt.Storage)
			outs[i] = outcome{res: res, char: char, err: err}
			if opt.OnPoint != nil {
				mu.Lock()
				done++
				opt.OnPoint(done, total)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	for i, o := range outs {
		if o.err != nil {
			return nil, fmt.Errorf("sweep %s: point %d: %w", sw.Name, i, o.err)
		}
	}

	rep := &Report{
		Name:     sw.Name,
		Workload: sw.WorkloadName(),
		Seed:     sw.Base.Seed,
	}
	rep.Nodes = outs[0].res.Spec.Nodes
	rep.RanksPerNode = outs[0].res.Spec.RanksPerNode
	rep.Scale = outs[0].res.Spec.Scale
	winner := 0
	for i, o := range outs {
		rep.Points = append(rep.Points, Point{
			Index:   i,
			Config:  sw.Settings(i),
			Runtime: o.res.Runtime,
			IOTime:  o.char.Workflow.IOTime,
		})
		if o.char.Workflow.IOTime < outs[winner].char.Workflow.IOTime {
			winner = i
		}
	}
	base := rep.Points[0]
	win := rep.Points[winner]
	rep.Winner = Winner{
		Index:          winner,
		Config:         win.Config,
		Runtime:        win.Runtime,
		IOTime:         win.IOTime,
		IOSpeedup:      speedup(base.IOTime, win.IOTime),
		RuntimeSpeedup: speedup(base.Runtime, win.Runtime),
	}
	for _, r := range advisor.Advise(outs[0].char) {
		rep.Recommendations = append(rep.Recommendations, Recommendation{
			ID: r.ID, Parameter: r.Parameter, Value: r.Value, Rationale: r.Rationale,
		})
	}
	baseCfg := outs[0].res.Spec.Storage
	ropt := replay.DefaultOptions()
	ropt.Storage = baseCfg
	ropt.Seed = sw.Base.Seed
	trials, err := replay.Tune(outs[0].res.Trace,
		replay.StripeSweep(baseCfg, storage.MiB, 4*storage.MiB, 16*storage.MiB), ropt)
	if err != nil {
		return nil, fmt.Errorf("sweep %s: stripe trials: %w", sw.Name, err)
	}
	for _, t := range trials {
		rep.StripeTrials = append(rep.StripeTrials, Trial{
			Name: t.Candidate.Name, Runtime: t.Runtime, IOTime: t.IOTime,
		})
	}
	return rep, nil
}

// runPoint simulates one grid point and characterizes its trace.
func (sw *Sweep) runPoint(point int, storageOverride *storage.Config) (*workloads.Result, *core.Characterization, error) {
	w, err := sw.Workload()
	if err != nil {
		return nil, nil, err
	}
	sp := w.DefaultSpec()
	if storageOverride != nil {
		sp.Storage = *storageOverride
	}
	sw.Apply(point, &sp)
	res, err := workloads.Run(w, sp)
	if err != nil {
		return nil, nil, err
	}
	aopt := core.DefaultOptions()
	cfg := res.Spec.Storage
	aopt.Storage = &cfg
	return res, core.Analyze(res.Trace, aopt), nil
}

// speedup formats a before/after ratio the way the report pins it.
func speedup(before, after time.Duration) string {
	if after <= 0 {
		return "inf"
	}
	return fmt.Sprintf("%.2fx", float64(before)/float64(after))
}
