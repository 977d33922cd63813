// Package vani reproduces "Extracting and characterizing I/O behavior of
// HPC workloads" (Devarajan & Mohror, LLNL, 2022) as a self-contained Go
// library: a simulated HPC storage stack, Recorder-style multilevel
// tracing, the six exemplar workloads and the IOR probe, the Vani-style
// entity/attribute characterization, and the attribute-to-configuration
// advisor with the paper's two optimization case studies.
//
// Every workload is a declarative document (the internal/spec DSL): New
// compiles a golden one by name, ParseSpec or ParseSpecFile your own
// (examples/custom-workload/pic-sim.yaml), and both yield the same
// Workload.
//
// The typical pipeline mirrors the paper's methodology:
//
//	w, _ := vani.New("cosmoflow")          // pick a workload
//	spec := w.DefaultSpec()                // Lassen-like 32-node job
//	res, _ := vani.Run(w, spec)            // simulate + trace (Recorder)
//	c := vani.Characterize(res)            // entities & attributes (Vani)
//	recs := vani.Advise(c)                 // Section IV-D mapping
//	vani.ApplyRecommendations(recs, &spec) // reconfigure the storage stack
//	opt, _ := vani.Run(w, spec)            // re-run optimized (Figures 7-8)
package vani

import (
	"context"
	"fmt"
	"io"
	"os"
	"time"

	"vani/internal/advisor"
	"vani/internal/core"
	"vani/internal/replay"
	"vani/internal/sim"
	"vani/internal/spec"
	"vani/internal/storage"
	"vani/internal/sweep"
	"vani/internal/trace"
	"vani/internal/workloads"
	"vani/internal/yamlenc"
)

// Re-exported types: the facade's vocabulary is the internal packages'
// types under stable names.
type (
	// Spec configures a workload run (nodes, scale, tracing, storage).
	Spec = workloads.Spec
	// Workload is a runnable workload: a compiled spec document, golden
	// (New) or your own (ParseSpec, ParseSpecFile).
	Workload = spec.Workload
	// Result is a completed simulated run with its trace.
	Result = workloads.Result
	// Trace is the Recorder-style multilevel event log.
	Trace = trace.Trace
	// Characterization is the full entity/attribute description.
	Characterization = core.Characterization
	// Recommendation is one advised storage-configuration change.
	Recommendation = advisor.Recommendation
	// StorageConfig holds the storage-stack performance model parameters.
	StorageConfig = storage.Config
)

// New constructs a workload by name: "cm1", "hacc", "cosmoflow", "jag",
// "montage-mpi", "montage-pegasus", or "ior".
func New(name string) (Workload, error) { return spec.New(name) }

// Workloads lists the available workload names.
func Workloads() []string { return spec.Names() }

// Run simulates the workload under spec and returns its trace and runtime.
func Run(w Workload, sp Spec) (*Result, error) { return w.Run(sp) }

// AnalyzerOptions tunes the characterization pipeline: phase gap, figure
// resolution, the Parallelism knob of the chunked scans, an optional
// Filter restricting the analysis to matching events, and an optional
// Stats sink for per-stage wall-clock timings. The output is bit-identical
// at every Parallelism setting.
type AnalyzerOptions = core.Options

// AnalyzerTimings receives per-stage wall-clock timings (trace-merge,
// columnarize, analyze) and the scan-plan counters (blocks pruned, bytes
// decoded) when wired into AnalyzerOptions.Stats.
type AnalyzerTimings = core.Timings

// TraceFilter selects a subset of trace events: a time window over event
// starts, a rank set, a level set, and an operation class. The zero value
// matches everything. On VANITRC2 logs the filter is pushed down to the
// block index — blocks the footer statistics rule out are never read — and
// the result is byte-identical to filtering the full decode in memory.
type TraceFilter = trace.Filter

// Operation classes for TraceFilter.Ops.
const (
	OpClassAll  = trace.OpClassAll
	OpClassData = trace.OpClassData
	OpClassMeta = trace.OpClassMeta
	OpClassIO   = trace.OpClassIO
)

// DefaultAnalyzerOptions returns the settings used for the paper tables.
func DefaultAnalyzerOptions() AnalyzerOptions { return core.DefaultOptions() }

// Characterize analyzes a run into the paper's entities and attributes with
// the default analyzer options and the run's storage model.
func Characterize(res *Result) *Characterization {
	c, _ := CharacterizeContext(context.Background(), res, DefaultAnalyzerOptions())
	return c
}

// CharacterizeContext analyzes a run under explicit analyzer options. A nil
// opt.Storage is filled from the run's spec; opt.Stats, when set, also
// receives the time the tracer spent sorting its event log. The analyzer's chunk-parallel
// workers observe ctx, so a canceled or timed-out caller aborts the
// analysis mid-scan. The returned error is ctx.Err() when the abort was a
// cancellation; with a background context and default options it never
// fails and matches Characterize exactly.
func CharacterizeContext(ctx context.Context, res *Result, opt AnalyzerOptions) (*Characterization, error) {
	if opt.Storage == nil {
		cfg := res.Spec.Storage
		opt.Storage = &cfg
	}
	if opt.Stats != nil {
		opt.Stats.TraceMerge = res.TraceMerge
	}
	return core.AnalyzeContext(ctx, res.Trace, opt)
}

// CharacterizeFileContext analyzes a trace log on disk by decoding its
// blocks, block-parallel through the footer index, straight into column
// chunks — the event log never materializes as a []Event.
//
// When opt.Filter is set, the filter is pushed down the read path: whole
// blocks are pruned via the footer statistics, only the filter's columns
// are decoded up front, and the remaining columns materialize lazily as
// analysis kernels ask for them. The result is byte-identical to analyzing
// the filtered event set in memory.
//
// ctx is threaded through the block reader's physical reads, the column
// scans, and the analyzer's chunk-parallel workers, so a canceled or
// timed-out request stops decoding mid-trace instead of running the log to
// completion. The returned error is ctx.Err() when the abort was a
// cancellation.
func CharacterizeFileContext(ctx context.Context, path string, opt AnalyzerOptions) (*Characterization, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, err
	}
	br, err := trace.NewBlockReader(trace.ReaderAtContext(ctx, f), info.Size())
	if err != nil {
		return nil, wrapReadErr(path, err)
	}
	c, err := core.AnalyzeBlocksContext(ctx, br, opt)
	if err != nil {
		return nil, wrapReadErr(path, err)
	}
	return c, nil
}

// wrapReadErr attributes a read-path failure to its file, but leaves
// context errors bare so callers can distinguish cancellation.
func wrapReadErr(path string, err error) error {
	if trace.IsCtxErr(err) {
		return err
	}
	return fmt.Errorf("reading %s: %w", path, err)
}

// CharacterizeBlocksContext analyzes a block source — a
// BlockReader over an open file, or a shared decoded-block cache like
// vanid's — through the planned-scan path: the filter pushes down to the
// block index, surviving blocks decode and test the filter's columns, and
// the analyzer passes materialize only the columns they read.
// The characterization is byte-identical to CharacterizeFileContext over
// the same log.
func CharacterizeBlocksContext(ctx context.Context, src trace.BlockSource, opt AnalyzerOptions) (*Characterization, error) {
	return core.AnalyzeBlocksContext(ctx, src, opt)
}

// Advise maps a characterization to storage-configuration recommendations
// (Section IV-D).
func Advise(c *Characterization) []Recommendation { return advisor.Advise(c) }

// ApplyRecommendations rewrites spec according to the recommendations and
// returns the identifiers applied.
func ApplyRecommendations(recs []Recommendation, spec *Spec) []string {
	return advisor.Apply(recs, spec)
}

// Impact quantifies one recommendation's isolated effect (advisor.Evaluate).
type Impact = advisor.Impact

// EvaluateRecommendations measures each recommendation independently
// against the baseline run.
func EvaluateRecommendations(w Workload, spec Spec, recs []Recommendation) ([]Impact, error) {
	return advisor.Evaluate(w, spec, recs)
}

// ReplayOptions configures a trace replay (replay.Options).
type ReplayOptions = replay.Options

// ReplayResult is the outcome of a trace replay (replay.Result).
type ReplayResult = replay.Result

// Replay re-executes a captured trace against a candidate storage
// configuration — the what-if half of a self-configuring storage system.
func Replay(tr *Trace, opt ReplayOptions) (*ReplayResult, error) {
	return replay.Run(tr, opt)
}

// TuneCandidate labels one storage configuration for Tune.
type TuneCandidate = replay.Candidate

// TuneResult is one candidate's replayed outcome.
type TuneResult = replay.TrialResult

// Tune replays the trace under every candidate configuration and returns
// the results fastest first.
func Tune(tr *Trace, candidates []TuneCandidate, opt ReplayOptions) ([]TuneResult, error) {
	return replay.Tune(tr, candidates, opt)
}

// ToYAML renders the characterization as the YAML artifact the paper's
// Analyzer produces for storage systems to load.
func ToYAML(c *Characterization) []byte { return yamlenc.Marshal(c) }

// FromYAML loads a characterization previously written by ToYAML — the
// storage-system side of the paper's vision.
func FromYAML(data []byte) (*Characterization, error) {
	var c Characterization
	if err := yamlenc.Decode(data, &c); err != nil {
		return nil, err
	}
	return &c, nil
}

// WriteTrace encodes a trace to w in the on-disk format (VANITRC2 v2.2, the
// block-structured columnar log) with default options.
func WriteTrace(w io.Writer, tr *Trace) error { return trace.WriteV2(w, tr) }

// TraceCodec selects how the trace writer picks per-segment column codecs:
// the cost model (auto) or one forced segment codec.
type TraceCodec = trace.CodecMode

// ParseTraceCodec parses a flag-style codec name ("auto", "raw", "rle",
// "dict", "for").
func ParseTraceCodec(s string) (TraceCodec, error) { return trace.ParseCodecMode(s) }

// TraceWriteOptions configures WriteTraceWith. The zero value is the
// default encoding: auto codecs, no outer compression.
type TraceWriteOptions struct {
	Compress bool       // flate-wrap block payloads (outer layer)
	Codec    TraceCodec // column codec strategy
}

// WriteTraceWith encodes a trace to w under explicit compression and codec
// choices.
func WriteTraceWith(w io.Writer, tr *Trace, opt TraceWriteOptions) error {
	return trace.WriteV2With(w, tr, trace.V2Options{Compress: opt.Compress, Codec: opt.Codec})
}

// ReadTrace decodes a trace written by WriteTrace or WriteTraceWith from a
// stream.
func ReadTrace(r io.Reader) (*Trace, error) { return trace.Read(r) }

// ReadTraceFiltered loads a trace file keeping only events matching the
// filter, consulting the footer index first to skip blocks the per-block
// statistics rule out. Event order is preserved, so the result equals
// FilterEvents over the full decode.
func ReadTraceFiltered(path string, f TraceFilter) (*Trace, error) {
	br, err := trace.OpenBlockReader(path)
	if err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	defer br.Close()
	tr, err := br.ReadTrace(f)
	if err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	return tr, nil
}

// CaseStudy is the outcome of a baseline-vs-optimized comparison, the
// experiment design of Figures 7 and 8.
type CaseStudy struct {
	Workload         string
	Nodes            int
	BaselineRuntime  time.Duration
	OptimizedRuntime time.Duration
	BaselineIOTime   time.Duration
	OptimizedIOTime  time.Duration
	Recommendations  []Recommendation
	Applied          []string
}

// JobSpeedup returns baseline/optimized job runtime.
func (cs *CaseStudy) JobSpeedup() float64 {
	if cs.OptimizedRuntime == 0 {
		return 0
	}
	return float64(cs.BaselineRuntime) / float64(cs.OptimizedRuntime)
}

// IOSpeedup returns baseline/optimized I/O wall-clock, the paper's
// headline metric ("improve I/O performance up to 4.6x / 8x").
func (cs *CaseStudy) IOSpeedup() float64 {
	if cs.OptimizedIOTime == 0 {
		return 0
	}
	return float64(cs.BaselineIOTime) / float64(cs.OptimizedIOTime)
}

// Optimize runs the full paper loop for one workload: simulate the
// baseline, characterize it, derive recommendations, apply them, and
// re-run. This reproduces the Section V case studies.
func Optimize(w Workload, spec Spec) (*CaseStudy, error) {
	base, err := Run(w, spec)
	if err != nil {
		return nil, fmt.Errorf("baseline run: %w", err)
	}
	c := Characterize(base)
	recs := Advise(c)
	tuned := spec
	applied := ApplyRecommendations(recs, &tuned)
	opt, err := Run(w, tuned)
	if err != nil {
		return nil, fmt.Errorf("optimized run: %w", err)
	}
	co := Characterize(opt)
	return &CaseStudy{
		Workload:         w.Name(),
		Nodes:            spec.Nodes,
		BaselineRuntime:  base.Runtime,
		OptimizedRuntime: opt.Runtime,
		BaselineIOTime:   c.Workflow.IOTime,
		OptimizedIOTime:  co.Workflow.IOTime,
		Recommendations:  recs,
		Applied:          applied,
	}, nil
}

// ProbeSharedBW measures the shared storage's achievable aggregate
// bandwidth with an IOR-like benchmark: one writer rank per node streaming
// large sequential transfers to file-per-process files, caches off. This
// is the "64GB/s using 32 node IOR" measurement of Table IX. A modeled
// I/O failure inside the benchmark surfaces as an error (via the engine's
// Fail/Err facility) rather than a panic.
func ProbeSharedBW(cfg StorageConfig, nodes int) (float64, error) {
	cfg.CacheEnabled = false
	cfg.JitterFrac = 0
	e := sim.NewEngine()
	sys := storage.New(e, cfg, nodes, sim.NewRNG(1))
	const perNode = 4 * storage.GiB
	const chunk = 16 * storage.MiB
	for n := 0; n < nodes; n++ {
		n := n
		e.Spawn("ior", func(p *sim.Proc) {
			path := fmt.Sprintf("%s/ior/out.%04d", cfg.PFSDir, n)
			f, err := sys.Open(p, n, path, true)
			if err != nil {
				e.Fail(fmt.Errorf("shared-bw probe: open %s: %w", path, err))
				return
			}
			for off := int64(0); off < perNode; off += chunk {
				if err := f.Write(p, off, chunk); err != nil {
					e.Fail(fmt.Errorf("shared-bw probe: write %s: %w", path, err))
					return
				}
			}
			f.Close(p)
		})
	}
	elapsed := e.Run()
	if err := e.Err(); err != nil {
		return 0, err
	}
	if elapsed <= 0 {
		return 0, nil
	}
	return float64(perNode*int64(nodes)) / elapsed.Seconds(), nil
}

// ProbeNodeLocalBW measures one node's node-local storage bandwidth with
// sequential large writes (Table VIII's "Max I/O bw/node"). Modeled I/O
// failures surface as errors, as in ProbeSharedBW.
func ProbeNodeLocalBW(cfg StorageConfig) (float64, error) {
	e := sim.NewEngine()
	sys := storage.New(e, cfg, 1, sim.NewRNG(1))
	const total = 8 * storage.GiB
	const chunk = 16 * storage.MiB
	e.Spawn("probe", func(p *sim.Proc) {
		path := cfg.NodeLocalDir + "/probe"
		f, err := sys.Open(p, 0, path, true)
		if err != nil {
			e.Fail(fmt.Errorf("node-local probe: open %s: %w", path, err))
			return
		}
		for off := int64(0); off < total; off += chunk {
			if err := f.Write(p, off, chunk); err != nil {
				e.Fail(fmt.Errorf("node-local probe: write %s: %w", path, err))
				return
			}
		}
		f.Close(p)
	})
	elapsed := e.Run()
	if err := e.Err(); err != nil {
		return 0, err
	}
	if elapsed <= 0 {
		return 0, nil
	}
	return float64(total) / elapsed.Seconds(), nil
}

// WorkloadDoc is a parsed declarative workload spec (the internal/spec
// DSL): parameters, directories, setup, and a run program that compiles
// onto the simulator as a Workload.
type WorkloadDoc = spec.Doc

// ErrBadSpec wraps every validation failure from ParseSpec/ParseSweep,
// so callers can distinguish malformed documents from I/O errors.
var ErrBadSpec = spec.ErrBadSpec

// ParseSpec parses a declarative workload spec (YAML or JSON). The
// returned document's Compile method yields a Workload.
func ParseSpec(data []byte) (*WorkloadDoc, error) { return spec.Parse(data) }

// ParseSpecFile reads and parses a declarative workload spec from disk.
func ParseSpecFile(path string) (*WorkloadDoc, error) { return spec.ParseFile(path) }

// Sweep is a parsed what-if sweep document: a workload (an inline spec or
// a workload name) crossed with a parameter grid.
type Sweep = sweep.Sweep

// SweepOptions configures a sweep execution; the zero value matches the
// vanid service, so CLI and service reports are byte-identical.
type SweepOptions = sweep.Options

// SweepReport is a sweep's comparative artifact: every grid point's
// runtime and I/O time, the winning configuration with speedups versus
// the baseline point, the advisor's verdicts on the baseline, and
// replayed stripe-size trials on the baseline trace.
type SweepReport = sweep.Report

// SweepSetting is one applied grid coordinate in a sweep report.
type SweepSetting = spec.SweepSetting

// ParseSweep parses a sweep document (YAML or JSON).
func ParseSweep(data []byte) (*Sweep, error) { return sweep.Parse(data) }

// ParseSweepFile reads and parses a sweep document from disk.
func ParseSweepFile(path string) (*Sweep, error) { return sweep.ParseFile(path) }

// SweepToYAML renders a sweep report as its canonical YAML artifact —
// byte-identical between `vani sweep` and vanid's POST /v1/sweep.
func SweepToYAML(rep *SweepReport) []byte { return yamlenc.Marshal(rep) }
