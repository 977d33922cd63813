package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// config is one run of one workload. The zero sizing is the pinned
// benchmark; the harness tests shrink it to toy scale.
type config struct {
	workload string
	seed     int64
	seconds  float64 // length of the timed phase; whole rounds run until it is spent
	trace    bool    // false: end-to-end metrics; true: the traced per-layer pass
	traceOut string  // directory for span files ("" = the run's temp dir)
	setups   int     // times setup runs; setup_s is their median
	warm     int     // untimed warm-up rounds (page cache, heap, pools)
	minOps   int     // timed ops a run reaches whatever seconds says, so p90 has 10 samples beyond it
	size     sizing
	out      io.Writer // the named-metric lines
}

// sizing holds every input size. scale > 0 overrides the recipes' pinned
// scales (the toy smoke test); 0 keeps them.
type sizing struct {
	nodes      int     // job size of corpus traces
	wrunNodes  int     // job size of produce's wrun ops
	scale      float64 // flat generator scale, 0 = per-recipe pinned scales
	smallNodes int     // job size of serve-mixed's small traces
	smallScale float64
	fleet      int     // small traces stored before timing; the fleet query's fixed set
	pool       int     // distinct small traces the never-seen uploads derive from
	sweepNodes int     // 0 = as testdata/casestudy.yaml says
	sweepScale float64 // 0 = as testdata/casestudy.yaml says
	probeReps  int     // repetitions of each standalone layer probe
}

// pinned is the benchmark's own sizing (bench/README.md states the event
// counts it yields).
var pinned = sizing{nodes: 32, wrunNodes: 16, smallNodes: 8, smallScale: 0.25, fleet: 16, pool: 8, probeReps: 3}

// toy is the smoke test's sizing: every path runs, nothing is large.
var toy = sizing{nodes: 2, wrunNodes: 2, scale: 0.002, smallNodes: 1, smallScale: 0.002, fleet: 3, pool: 2,
	sweepNodes: 2, sweepScale: 0.001, probeReps: 1}

// scaleOf is the scale a recipe pinned at p runs at.
func (sz sizing) scaleOf(p float64) float64 {
	if sz.scale > 0 {
		return sz.scale
	}
	return p
}

// A workload generates its inputs, runs rounds of ops and checks what
// they returned. Rounds are identical in content, so every count taken
// over whole rounds is a ratio that repeats exactly however many rounds
// the time budget allowed.
type workload interface {
	// setup makes the inputs from the seed, the reference outputs, and
	// boots whatever serves the ops: everything before the first timed op.
	setup(ctx context.Context) error
	// round performs one round of ops through r.
	round(ctx context.Context, r *round)
	// finish runs the checks that need the whole run and shuts the
	// workload's servers down. An error means wrong output.
	finish(ctx context.Context) error
	// close stops what setup started (files live in the run's temp dir and
	// go with it); safe after a failed setup.
	close()
	// encoded is the space leg: bytes and events of the traces encoded
	// for this workload.
	encoded() (bytes, events int64)
	// layers derives the workload's per-layer metrics from the untraced
	// and traced passes and runs its standalone layer probes.
	layers(ctx context.Context, plain, traced phase, spans []span) (map[string]float64, error)
}

func newWorkload(cfg config, dir string) (workload, error) {
	switch cfg.workload {
	case "char-full":
		return &charWL{cfg: cfg, dir: dir}, nil
	case "char-filtered":
		return &charWL{cfg: cfg, dir: dir, filtered: true}, nil
	case "serve-mixed":
		return &serveWL{cfg: cfg, dir: dir}, nil
	case "produce":
		return &produceWL{cfg: cfg, dir: dir}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", cfg.workload, strings.Join(workloadNames(), ", "))
}

// sample is one timed op.
type sample struct {
	class  string
	dur    time.Duration
	events int64 // trace events the op's reply covers
	failed bool
}

// phase is a run of rounds: its ops, the wall time and allocation of the
// rounds' timed parts.
type phase struct {
	samples []sample
	ends    []roundEnd // one per round that ran ops
	rounds  int
	wall    time.Duration
	alloc   uint64 // runtime.MemStats.TotalAlloc delta
	errs    []string

	nextOp  int
	lastRef time.Duration
}

// roundEnd closes one round: its samples are samples[prev.upto:upto].
type roundEnd struct {
	upto int
	wall time.Duration
	slow float64 // the machine reference's slowdown around the round
}

// perRound applies f to every round.
func (p *phase) perRound(f func(samples []sample, e roundEnd) float64) []float64 {
	var out []float64
	from := 0
	for _, e := range p.ends {
		out = append(out, f(p.samples[from:e.upto], e))
		from = e.upto
	}
	return out
}

// slowdown is the run's reading of the machine reference: the median of
// the rounds' slowdowns.
func (p *phase) slowdown() float64 {
	return median(sorted(p.perRound(func(_ []sample, e roundEnd) float64 { return e.slow })))
}

func durations(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = ms(s.dur)
	}
	return sorted(out)
}

func (p *phase) events() (n int64) {
	for _, s := range p.samples {
		n += s.events
	}
	return n
}

func (p *phase) failed() (n int) {
	for _, s := range p.samples {
		if s.failed {
			n++
		}
	}
	return n
}

// durs returns the op latencies in ms, of one class or ("") of all.
func (p *phase) durs(class string) []float64 {
	var out []float64
	for _, s := range p.samples {
		if class == "" || s.class == class {
			out = append(out, ms(s.dur))
		}
	}
	return out
}

// classP50 is the median latency, in ms, of the ops whose class starts
// with prefix.
func (p *phase) classP50(prefix string) float64 {
	var xs []float64
	for _, s := range p.samples {
		if strings.HasPrefix(s.class, prefix) {
			xs = append(xs, ms(s.dur))
		}
	}
	return median(sorted(xs))
}

// round collects the ops of one round. Several client goroutines may call
// do at once.
type round struct {
	p   *phase
	tr  *tracer
	ref *reference

	mu       sync.Mutex
	samples  []sample
	verifies []verify
}

type verify struct {
	sample int
	fn     func() error
}

// opCtx lets an op record spans under its root span.
type opCtx struct {
	tr       *tracer
	op, root int
}

// traced reports whether this op runs in the traced pass.
func (o opCtx) traced() bool { return o.tr != nil }

// span times one call into a layer.
func (o opCtx) span(name string, fn func()) { o.tr.in(name, o.root, o.op, fn) }

// do times fn as one op of the given class covering events trace events.
// fn returns an optional check of what the op produced; checks run after
// the round's timed part so they cost the op nothing. An op that errors
// or fails its check counts as failed.
func (r *round) do(class string, events int64, fn func(o opCtx) (check func() error, err error)) {
	r.mu.Lock()
	r.p.nextOp++
	id := r.p.nextOp
	r.mu.Unlock()

	o := opCtx{tr: r.tr, op: id}
	o.root = r.tr.start("op:"+class, 0, id)
	t0 := time.Now()
	check, err := fn(o)
	d := time.Since(t0)
	r.tr.end(o.root)

	r.mu.Lock()
	defer r.mu.Unlock()
	r.samples = append(r.samples, sample{class: class, dur: d, events: events, failed: err != nil})
	if err != nil {
		r.p.fail(fmt.Errorf("%s: %w", class, err))
	} else if check != nil {
		r.verifies = append(r.verifies, verify{sample: len(r.samples) - 1, fn: check})
	}
}

// timed runs the part of a round that counts: wall time and allocation
// are taken around fn, the machine reference is read before and after it,
// the ops' checks run after it.
func (r *round) timed(fn func()) {
	var m0, m1 runtime.MemStats
	before := r.p.lastRef // the reading that closed the previous round opens this one
	if before == 0 {
		before = r.ref.measure()
	}
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	fn()
	wall := time.Since(t0)
	r.p.wall += wall
	runtime.ReadMemStats(&m1)
	r.p.alloc += m1.TotalAlloc - m0.TotalAlloc
	after := r.ref.measure()
	r.p.lastRef = after

	for _, v := range r.verifies {
		if err := v.fn(); err != nil {
			r.samples[v.sample].failed = true
			r.p.fail(fmt.Errorf("%s: %w", r.samples[v.sample].class, err))
		}
	}
	r.p.samples = append(r.p.samples, r.samples...)
	r.p.ends = append(r.p.ends, roundEnd{upto: len(r.p.samples), wall: wall, slow: slowdown(before, after)})
	r.samples, r.verifies = nil, nil
}

func (p *phase) fail(err error) {
	if len(p.errs) < 8 { // enough to diagnose, not a flood
		p.errs = append(p.errs, err.Error())
	}
}

// runPhase runs whole rounds until more reports enough.
func runPhase(ctx context.Context, w workload, tr *tracer, ref *reference, enough func(p *phase) bool) phase {
	var p phase
	for !enough(&p) && ctx.Err() == nil {
		w.round(ctx, &round{p: &p, tr: tr, ref: ref})
		p.rounds++
	}
	return p
}

// result is what one run of one workload reports.
type result struct {
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]metricV `json:"metrics"`
}

type metricV struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runWorkload is one child's life: set up (several times, for a steady
// setup_s), warm up, run the timed phase, check, report.
func runWorkload(ctx context.Context, cfg config) (result, error) {
	if cfg.out == nil {
		cfg.out = io.Discard
	}
	tmp, err := os.MkdirTemp("", "vani-bench-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(tmp)

	ref := newReference()
	defer ref.close()

	var w workload
	var setupS []float64
	for i := 0; i < cfg.setups; i++ {
		if w != nil {
			w.close()
		}
		dir := filepath.Join(tmp, fmt.Sprintf("setup%d", i))
		if err := os.Mkdir(dir, 0o755); err != nil {
			return result{}, err
		}
		c := cfg
		if i < cfg.setups-1 {
			c.out = io.Discard // only the setup that is kept prints its references
		}
		if w, err = newWorkload(c, dir); err != nil {
			return result{}, err
		}
		t0 := time.Now()
		err := w.setup(ctx)
		setupS = append(setupS, time.Since(t0).Seconds())
		if err != nil {
			w.close()
			return result{}, fmt.Errorf("%s: setup: %w", cfg.workload, err)
		}
	}
	defer w.close()

	budget := time.Duration(cfg.seconds * float64(time.Second))
	rounds := func(n int) func(*phase) bool { return func(p *phase) bool { return p.rounds >= n } }
	runPhase(ctx, w, nil, ref, rounds(cfg.warm))
	resetPeakRSS()

	var res result
	if !cfg.trace {
		p := runPhase(ctx, w, nil, ref, func(p *phase) bool {
			return p.wall >= budget && len(p.samples) >= cfg.minOps && p.rounds > 0
		})
		ferr := w.finish(ctx)
		res = endToEndResult(cfg, w, p, setupS)
		reportErrs(cfg.out, cfg.workload, p.errs, ferr)
		res.Correct = res.Failed == 0 && ferr == nil
		return res, nil
	}

	// The traced run: a third of the budget untraced, the same number of
	// rounds traced, then the standalone probes. Its end-to-end numbers
	// are not reported; the untraced pass exists to price the tracing.
	plain := runPhase(ctx, w, nil, ref, func(p *phase) bool { return p.wall >= budget/3 && p.rounds > 0 })
	tr := newTracer()
	traced := runPhase(ctx, w, tr, ref, rounds(plain.rounds))
	spans := tr.snapshot()
	layers, lerr := w.layers(ctx, plain, traced, spans)
	ferr := w.finish(ctx)
	if lerr != nil {
		return result{}, fmt.Errorf("%s: layer probes: %w", cfg.workload, lerr)
	}

	outDir := cfg.traceOut
	if outDir == "" {
		outDir = tmp
	} else if err := os.MkdirAll(outDir, 0o755); err != nil {
		return result{}, err
	}
	spanFile := filepath.Join(outDir, fmt.Sprintf("%s.seed%d.spans.json", cfg.workload, cfg.seed))
	if err := writeSpans(spanFile, spans); err != nil {
		return result{}, err
	}
	fmt.Fprintf(cfg.out, "%s spans %d written to %s\n", cfg.workload, len(spans), spanFile)

	res = perLayerResult(cfg, plain, traced, spans, layers)
	reportErrs(cfg.out, cfg.workload, append(plain.errs, traced.errs...), ferr)
	res.Correct = res.Failed == 0 && ferr == nil
	return res, nil
}

func reportErrs(out io.Writer, workload string, errs []string, ferr error) {
	for _, e := range errs {
		fmt.Fprintf(out, "%s FAILED op %s\n", workload, e)
	}
	if ferr != nil {
		fmt.Fprintf(out, "%s FAILED final check: %v\n", workload, ferr)
	}
}

// endToEndResult turns the untraced timed phase into the end-to-end
// metrics and prints them with their distributions. The three timing
// metrics are taken per round — a round's throughput, its median op, its
// p90 op — at reference speed (each round's times divided by the
// slowdown the machine reference saw around it) and reported as the
// median over the rounds: rounds are identical in content, so this
// estimates the same quantity as pooling all ops while a stretch of
// rounds the machine ran slowly moves it less. setup_s is divided by the
// run's median slowdown. The same medians as measured are printed beside
// them as raw.*.
func endToEndResult(cfg config, w workload, p phase, setupS []float64) result {
	all := sorted(p.durs(""))
	events := p.events()
	encBytes, encEvents := w.encoded()
	throughput := func(ss []sample, e roundEnd) float64 {
		var ev int64
		for _, s := range ss {
			if !s.failed {
				ev += s.events
			}
		}
		return ratio(float64(ev), e.wall.Seconds())
	}
	p50 := func(ss []sample, _ roundEnd) float64 { return median(durations(ss)) }
	p90 := func(ss []sample, _ roundEnd) float64 { return percentile(durations(ss), 90) }
	perRound := map[string][]float64{
		"events_per_s": p.perRound(func(ss []sample, e roundEnd) float64 { return throughput(ss, e) * e.slow }),
		"op_p50_ms":    p.perRound(func(ss []sample, e roundEnd) float64 { return p50(ss, e) / e.slow }),
		"op_p90_ms":    p.perRound(func(ss []sample, e roundEnd) float64 { return p90(ss, e) / e.slow }),
	}
	slow := p.slowdown()
	raw := map[string]float64{
		"setup_s":      median(sorted(setupS)),
		"events_per_s": median(sorted(p.perRound(throughput))),
		"op_p50_ms":    median(sorted(p.perRound(p50))),
		"op_p90_ms":    median(sorted(p.perRound(p90))),
	}
	vals := map[string]float64{
		"setup_s":                 median(sorted(setupS)) / slow,
		"alloc_bytes_per_event":   ratio(float64(p.alloc), float64(events)),
		"peak_rss_mb":             peakRSSMiB(),
		"encoded_bytes_per_event": ratio(float64(encBytes), float64(encEvents)),
	}
	res := result{Attempted: len(p.samples), Failed: p.failed(), Metrics: map[string]metricV{}}
	name := cfg.workload
	for _, m := range endToEnd {
		note := ""
		if rs, ok := perRound[m.Name]; ok {
			d := summarize(rs)
			vals[m.Name] = d.Median
			note = fmt.Sprintf(" (median of %d rounds, q1=%.6g q3=%.6g)", d.N, d.Q1, d.Q3)
		} else if m.Name == "setup_s" {
			note = fmt.Sprintf(" (median of %d)", len(setupS))
		}
		res.Metrics[m.Name] = metricV{Value: vals[m.Name], Unit: m.Unit}
		fmt.Fprintf(cfg.out, "%s %s %.6g %s%s\n", name, m.Name, vals[m.Name], m.Unit, note)
	}
	for _, m := range endToEnd {
		if v, ok := raw[m.Name]; ok {
			fmt.Fprintf(cfg.out, "%s raw.%s %.6g %s (as measured, not at reference speed)\n", name, m.Name, v, m.Unit)
		}
	}
	fmt.Fprintf(cfg.out, "%s reference_slowdown %.6g ratio (median over rounds; 1 = the quiet reference machine)\n", name, slow)
	// The distributions behind the three, round by round.
	for _, m := range endToEnd {
		if rs, ok := perRound[m.Name]; ok {
			fmt.Fprintf(cfg.out, "%s rounds.%s", name, m.Name)
			for _, v := range rs {
				fmt.Fprintf(cfg.out, " %.6g", v)
			}
			fmt.Fprintln(cfg.out)
		}
	}
	// The same over all ops pooled, with the tail the sample supports.
	q1, q3 := quartiles(all)
	tail := tailPercentile(len(all))
	fmt.Fprintf(cfg.out, "%s pooled.op_p50_ms %.6g ms (n=%d q1=%.3f q3=%.3f)\n", name, median(all), len(all), q1, q3)
	fmt.Fprintf(cfg.out, "%s pooled.op_p90_ms %.6g ms (n=%d)\n", name, percentile(all, 90), len(all))
	fmt.Fprintf(cfg.out, "%s pooled.op_tail_ms %.6g ms (p%g, the highest percentile with 10 of n=%d samples beyond it)\n",
		name, percentile(all, tail), tail, len(all))
	fmt.Fprintf(cfg.out, "%s pooled.events_per_s %.6g events/s\n", name, ratio(float64(events), p.wall.Seconds()))
	fmt.Fprintf(cfg.out, "%s ops_per_s %.6g 1/s\n", name, ratio(float64(len(all)-res.Failed), p.wall.Seconds()))
	fmt.Fprintf(cfg.out, "%s rounds %d count\n", name, p.rounds)
	fmt.Fprintf(cfg.out, "%s ops_attempted %d count\n", name, res.Attempted)
	fmt.Fprintf(cfg.out, "%s ops_failed %d count\n", name, res.Failed)
	fmt.Fprintf(cfg.out, "%s fail_ratio %.6g ratio\n", name, ratio(float64(res.Failed), float64(res.Attempted)))
	printClasses(cfg.out, name, &p)
	return res
}

// printClasses prints each op class's latency distribution.
func printClasses(out io.Writer, workload string, p *phase) {
	seen := map[string]bool{}
	var classes []string
	for _, s := range p.samples {
		if !seen[s.class] {
			seen[s.class] = true
			classes = append(classes, s.class)
		}
	}
	sort.Strings(classes)
	for _, c := range classes {
		d := summarize(p.durs(c))
		fmt.Fprintf(out, "%s class.%s.p50_ms %.6g ms (n=%d q1=%.3f q3=%.3f)\n", workload, c, d.Median, d.N, d.Q1, d.Q3)
	}
}

// perLayerResult assembles the traced run's report: the workload's own
// layer metrics, zero for every layer it does not enter, and the
// harness's validity figures.
func perLayerResult(cfg config, plain, traced phase, spans []span, layers map[string]float64) result {
	// Both passes ran the same rounds, so their summed op times compare
	// like with like; a median over a mix of op classes would not.
	pm, tm := sum(plain.durs("")), sum(traced.durs(""))
	layers["bench.trace_overhead_pct"] = ratio(tm-pm, pm) * 100
	layers["bench.reference_slowdown"] = (plain.slowdown() + traced.slowdown()) / 2
	layers["bench.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
	layers["bench.nproc"] = float64(runtime.NumCPU())

	// Self times of the layer spans against the traced op time: what the
	// outside spans leave unexplained is the ops' own glue.
	byName := selfByName(spans)
	var names []string
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	var glue, layerTotal float64
	for _, n := range names {
		total := sum(byName[n])
		if strings.HasPrefix(n, "op:") {
			glue += total
			continue
		}
		layerTotal += total
		d := summarize(byName[n])
		fmt.Fprintf(cfg.out, "%s span.%s.self_p50_ms %.6g ms (n=%d q1=%.3f q3=%.3f sum=%.3f)\n",
			cfg.workload, n, d.Median, d.N, d.Q1, d.Q3, total)
	}
	fmt.Fprintf(cfg.out, "%s span.layers_self_sum_ms %.6g ms (%.2f%% of the traced op time %.6g ms; the ops' own glue is the rest)\n",
		cfg.workload, layerTotal, ratio(layerTotal, layerTotal+glue)*100, layerTotal+glue)

	res := result{
		Attempted: len(plain.samples) + len(traced.samples),
		Failed:    plain.failed() + traced.failed(),
		Metrics:   map[string]metricV{},
	}
	for _, m := range perLayer {
		v := layers[m.Name] // 0: this workload does not enter the layer
		res.Metrics[m.Name] = metricV{Value: v, Unit: m.Unit}
		if _, ok := layers[m.Name]; ok {
			fmt.Fprintf(cfg.out, "%s %s %.6g %s\n", cfg.workload, m.Name, v, m.Unit)
		}
	}
	for n := range layers {
		if !isPerLayer(n) {
			panic("bench: layer metric " + n + " is not declared in metrics.go")
		}
	}
	printClasses(cfg.out, cfg.workload, &plain)
	return res
}

// resetPeakRSS makes VmHWM start over from what is resident now, so the
// peak reported at exit is that of the ops and not of the harness
// generating their inputs: setup's garbage goes back to the system, then
// Linux is asked to reset the mark. Where it refuses, the mark stays and
// the figure includes set-up, the same way on every run of that machine.
func resetPeakRSS() {
	debug.FreeOSMemory()
	os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) //nolint:errcheck // see above
}

// peakRSSMiB is VmHWM of this process, the high-water mark of its
// resident set. Where /proc is missing it falls back to the memory the Go
// runtime obtained from the system.
func peakRSSMiB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				f := strings.Fields(rest)
				if len(f) >= 1 {
					if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}

// lastLevelCache reports the size of the highest cache level Linux
// exposes for cpu0, as sysfs spells it ("unknown" elsewhere).
func lastLevelCache() string {
	size := "unknown"
	for i := 0; ; i++ {
		data, err := os.ReadFile(fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/size", i))
		if err != nil {
			return size
		}
		size = strings.TrimSpace(string(data))
	}
}
