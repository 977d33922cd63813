package main

import (
	"fmt"
	"net/url"
	"os"
	"time"

	"vani"
	"vani/internal/cliutil"
	"vani/internal/spec"
	"vani/internal/trace"
	"vani/internal/workloads"
)

// recipe is one generated trace: a generator at its pinned scale, run
// through the Go generator or its golden spec, written with or without
// the outer flate layer.
type recipe struct {
	name      string  // class name, and the suffix of per-generator metrics
	workload  string  // generator
	scale     float64 // corpus scale, at sizing.nodes
	wrunScale float64 // produce's scale, at sizing.wrunNodes
	viaSpec   bool    // compile the golden spec (the interpreter path) instead of the generator
	compress  bool    // flate-wrap block payloads
}

// generators are the six exemplar workloads. The corpus scales yield
// about 155 k events on 32 nodes: one size class on purpose, so op times
// differ by workload shape and not by volume. The wrun scales yield about
// 50 k on 16 nodes. montage-mpi has a floor of 252 events per rank and
// hacc one of 84, so they sit at 322 k / 161 k and 154 k / 54 k.
var generators = []recipe{
	{name: "cm1", workload: "cm1", scale: 0.15, wrunScale: 0.05},
	{name: "hacc", workload: "hacc", scale: 0.3, wrunScale: 0.1},
	{name: "cosmoflow", workload: "cosmoflow", scale: 0.035, wrunScale: 0.01},
	{name: "jag", workload: "jag", scale: 0.02, wrunScale: 0.01},
	{name: "montage-mpi", workload: "montage-mpi", scale: 0.005, wrunScale: 0.005},
	{name: "montage-pegasus", workload: "montage-pegasus", scale: 0.035, wrunScale: 0.01},
}

// generate simulates r's generator on nodes nodes at scale.
func generate(r recipe, nodes int, scale float64, seed int64) (*vani.Result, error) {
	var w vani.Workload
	var err error
	if r.viaSpec {
		var doc *spec.Doc
		if doc, err = spec.Golden(r.workload); err == nil {
			w = doc.Compile()
		}
	} else {
		w, err = vani.New(r.workload)
	}
	if err != nil {
		return nil, err
	}
	sp := w.DefaultSpec()
	sp.Nodes, sp.Scale, sp.Seed = nodes, scale, seed
	res, err := vani.Run(w, sp)
	if err != nil {
		return nil, fmt.Errorf("generating %s: %w", r.name, err)
	}
	return res, nil
}

// writeTrace encodes tr to path the way `wrun -o` does and returns the
// bytes written.
func writeTrace(path string, tr *vani.Trace, compress bool) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	if err := vani.WriteTraceWith(f, tr, vani.TraceWriteOptions{Compress: compress}); err != nil {
		f.Close()
		return 0, fmt.Errorf("writing %s: %w", path, err)
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return 0, err
	}
	return info.Size(), f.Close()
}

// analyzerOptions are the options cmd/vani and vanid run with: the
// defaults and the default storage model.
func analyzerOptions(f trace.Filter) vani.AnalyzerOptions {
	opt := vani.DefaultAnalyzerOptions()
	cfg := workloads.DefaultSpec().Storage
	opt.Storage = &cfg
	opt.Filter = f
	return opt
}

// filterSpec is a scan filter in the flag/query spelling the CLI and
// vanid share.
type filterSpec struct {
	name                       string
	window, ranks, levels, ops string
}

func (fs filterSpec) filter() (trace.Filter, error) {
	return cliutil.ParseFilter(fs.window, fs.ranks, fs.levels, fs.ops)
}

// query renders the filter as vanid query parameters.
func (fs filterSpec) query() string {
	q := url.Values{}
	for k, v := range map[string]string{"window": fs.window, "ranks": fs.ranks, "levels": fs.levels, "ops": fs.ops} {
		if v != "" {
			q.Set(k, v)
		}
	}
	return q.Encode()
}

func window(from, to time.Duration) string { return from.String() + ":" + to.String() }

// drillDownFilters are char-filtered's four filters for a run of the
// given virtual runtime: a quarter-runtime window, the first node's
// ranks, POSIX data calls, and a three-dimension conjunction.
func drillDownFilters(runtime time.Duration) []filterSpec {
	return []filterSpec{
		{name: "win25", window: window(runtime/4, runtime/2)},
		{name: "ranks-low", ranks: "0-31"},
		{name: "posix-data", levels: "posix", ops: "data"},
		{name: "multi", window: window(0, runtime/2), ranks: "0-319", ops: "meta"},
	}
}

// requeryFilter is serve-mixed's i-th re-query filter of a hot trace.
// Every i gives a filter vanid has not seen, so the report cache misses,
// yet the rows it keeps barely change, so the work per op stays the same
// however long the run lasts: the window slides by i microseconds.
func requeryFilter(i int, runtime time.Duration) filterSpec {
	shift := time.Duration(i) * time.Microsecond
	if i%2 == 0 {
		return filterSpec{name: "requery-window", window: window(runtime/4+shift, runtime/2+shift)}
	}
	return filterSpec{name: "requery-ranks", ranks: "0-31", window: window(0, runtime+time.Second+shift)}
}
