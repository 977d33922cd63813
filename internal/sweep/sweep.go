// Package sweep runs what-if sweeps: a sweep document (internal/spec) — a
// workload plus a parameter grid — expands into concrete simulation runs,
// and the outcomes reduce into a comparative report: the paper's case-study
// reconfiguration experiments (Figures 7 and 8) as an automated search.
// Reports are rendered with yamlenc so the CLI and the vanid service
// produce byte-identical artifacts for the same sweep document.
package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"vani/internal/advisor"
	"vani/internal/core"
	"vani/internal/replay"
	"vani/internal/spec"
	"vani/internal/storage"
	"vani/internal/trace"
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
	// Parallelism bounds how many simulations run at once — grid points
	// and stripe trials together (0 = min(NumCPU, 4)). The report does
	// not depend on it.
	Parallelism int
	// OnPoint, when set, is called after each point completes.
	OnPoint func(done, total int)
}

// trialStripes are the PFS stripe sizes the stripe trials replay the
// baseline under.
var trialStripes = []int64{storage.MiB, 4 * storage.MiB, 16 * storage.MiB}

// Run expands the grid, simulates every point, and reduces the outcomes
// into the comparative report. Point 0 — the first value of every axis —
// is the baseline speedups are measured against.
func (sw *Sweep) Run(opt Options) (*Report, error) {
	return sw.RunContext(context.Background(), opt)
}

// RunContext is Run that stops when ctx is done: no point or trial starts
// after that, a running point's simulation and analysis and a running
// stripe trial stop midway, and the sweep returns ctx.Err().
//
// Points and stripe trials are tasks of one pool of Parallelism workers.
// The points queue in index order; when point 0 completes, its trace is
// planned for replay once and the trials go to the head of the queue, so
// they overlap the remaining points instead of waiting for the whole grid.
func (sw *Sweep) RunContext(ctx context.Context, opt Options) (*Report, error) {
	total := sw.NumPoints()
	par := opt.Parallelism
	if par <= 0 {
		par = min(runtime.NumCPU(), 4)
	}
	par = min(par, total+len(trialStripes))

	type outcome struct {
		runtime, ioTime time.Duration
		err             error
	}
	var (
		outs      = make([]outcome, total)
		base      workloads.Spec // point 0's
		baseChar  *core.Characterization
		trials    []replay.TrialResult
		trialErrs []error
		pl        = &pool{feeders: 1} // point 0 queues the trials
		mu        sync.Mutex
		done      int
	)
	point := func(i int) error {
		res, char, err := sw.runPoint(ctx, i, opt.Storage)
		if err == nil {
			outs[i].runtime, outs[i].ioTime = res.Runtime, char.Workflow.IOTime
		}
		if i == 0 {
			var tasks []func() error
			if err == nil {
				base, baseChar = res.Spec, char
				trials, trialErrs, tasks = sw.trialTasks(ctx, res.Trace, base.Storage)
			}
			pl.feed(tasks)
		}
		if err == nil {
			// Characterized, and point 0's planned for replay (the plan
			// copies what it needs): the trace's events die here.
			res.Trace.Release()
		}
		outs[i].err = err
		if opt.OnPoint != nil {
			mu.Lock()
			done++
			opt.OnPoint(done, total)
			mu.Unlock()
		}
		return err
	}
	for i := 0; i < total; i++ {
		pl.queue = append(pl.queue, func() error { return point(i) })
	}
	if err := pl.run(ctx, par); err != nil && errors.Is(err, ctx.Err()) {
		return nil, ctx.Err()
	}
	for i, o := range outs {
		if o.err != nil {
			return nil, fmt.Errorf("sweep %s: point %d: %w", sw.Name, i, o.err)
		}
	}
	for _, err := range trialErrs {
		if err != nil {
			return nil, fmt.Errorf("sweep %s: stripe trials: %w", sw.Name, err)
		}
	}

	rep := &Report{
		Name:         sw.Name,
		Workload:     sw.WorkloadName(),
		Nodes:        base.Nodes,
		RanksPerNode: base.RanksPerNode,
		Scale:        base.Scale,
		Seed:         sw.Base.Seed,
	}
	winner := 0
	for i, o := range outs {
		rep.Points = append(rep.Points, Point{
			Index:   i,
			Config:  sw.Settings(i),
			Runtime: o.runtime,
			IOTime:  o.ioTime,
		})
		if o.ioTime < outs[winner].ioTime {
			winner = i
		}
	}
	bp := rep.Points[0]
	win := rep.Points[winner]
	rep.Winner = Winner{
		Index:          winner,
		Config:         win.Config,
		Runtime:        win.Runtime,
		IOTime:         win.IOTime,
		IOSpeedup:      speedup(bp.IOTime, win.IOTime),
		RuntimeSpeedup: speedup(bp.Runtime, win.Runtime),
	}
	for _, r := range advisor.Advise(baseChar) {
		rep.Recommendations = append(rep.Recommendations, Recommendation{
			ID: r.ID, Parameter: r.Parameter, Value: r.Value, Rationale: r.Rationale,
		})
	}
	replay.SortTrials(trials)
	for _, t := range trials {
		rep.StripeTrials = append(rep.StripeTrials, Trial{
			Name: t.Candidate.Name, Runtime: t.Runtime, IOTime: t.IOTime,
		})
	}
	return rep, nil
}

// trialTasks plans the baseline trace for replay and returns one task per
// stripe candidate around the baseline's storage, each replaying the plan
// under ctx into its slot of results and errs.
func (sw *Sweep) trialTasks(ctx context.Context, tr *trace.Trace, baseCfg storage.Config) (results []replay.TrialResult, errs []error, tasks []func() error) {
	plan, err := replay.NewPlan(tr)
	if err != nil {
		return nil, []error{err}, nil
	}
	ropt := replay.DefaultOptions()
	ropt.Storage = baseCfg
	ropt.Seed = sw.Base.Seed
	cands := replay.StripeSweep(baseCfg, trialStripes...)
	results = make([]replay.TrialResult, len(cands))
	errs = make([]error, len(cands))
	for i, c := range cands {
		tasks = append(tasks, func() error {
			results[i], errs[i] = plan.Trial(ctx, c, ropt)
			return errs[i]
		})
	}
	return results, errs, tasks
}

// pool runs a sweep's tasks on a fixed number of workers. A feeder task
// may queue more tasks when it completes (point 0 queues the stripe
// trials); a worker that finds the queue empty while a feeder is pending
// waits for it, running nothing. No task starts once one has failed or
// ctx is done.
type pool struct {
	mu      sync.Mutex
	wake    sync.Cond
	queue   []func() error
	feeders int   // feeder tasks that have not fed yet
	err     error // the first task error, or ctx.Err()
}

// run works the queue on workers goroutines until it is drained or
// stopped, and returns why it stopped (nil when drained).
func (pl *pool) run(ctx context.Context, workers int) error {
	pl.wake.L = &pl.mu
	var wg sync.WaitGroup
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			pl.work(ctx)
		}()
	}
	wg.Wait()
	return pl.err
}

func (pl *pool) work(ctx context.Context) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	for {
		for len(pl.queue) == 0 && pl.feeders > 0 && pl.err == nil {
			pl.wake.Wait()
		}
		if pl.err == nil && len(pl.queue) > 0 {
			pl.err = ctx.Err()
		}
		if pl.err != nil || len(pl.queue) == 0 {
			pl.wake.Broadcast()
			return
		}
		task := pl.queue[0]
		pl.queue = pl.queue[1:]
		pl.mu.Unlock()
		err := task()
		pl.mu.Lock()
		if err != nil && pl.err == nil {
			pl.err = err
		}
	}
}

// feed puts tasks at the head of the queue. Each feeder calls it exactly
// once, with nothing when it has nothing to add.
func (pl *pool) feed(tasks []func() error) {
	pl.mu.Lock()
	pl.queue = append(tasks, pl.queue...)
	pl.feeders--
	pl.wake.Broadcast()
	pl.mu.Unlock()
}

// runPoint simulates one grid point and characterizes its trace; ctx stops
// either midway.
func (sw *Sweep) runPoint(ctx context.Context, point int, storageOverride *storage.Config) (*workloads.Result, *core.Characterization, error) {
	w, err := sw.Workload()
	if err != nil {
		return nil, nil, err
	}
	sp := w.DefaultSpec()
	if storageOverride != nil {
		sp.Storage = *storageOverride
	}
	sw.Apply(point, &sp)
	res, err := w.RunContext(ctx, sp)
	if err != nil {
		return nil, nil, err
	}
	aopt := core.DefaultOptions()
	cfg := res.Spec.Storage
	aopt.Storage = &cfg
	char, err := core.AnalyzeContext(ctx, res.Trace, aopt)
	if err != nil {
		return nil, nil, err
	}
	return res, char, nil
}

// speedup formats a before/after ratio the way the report pins it.
func speedup(before, after time.Duration) string {
	if after <= 0 {
		return "inf"
	}
	return fmt.Sprintf("%.2fx", float64(before)/float64(after))
}
