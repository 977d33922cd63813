package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"vani"
	"vani/internal/replay"
	"vani/internal/storage"
	"vani/internal/trace"
)

// casestudy is the bench's own copy of examples/sweep-casestudy: the
// CosmoFlow what-if grid of Figure 7 (8 points, 64 nodes), at scale 0.005
// so a sweep is one op among a hundred.
//
//go:embed testdata/casestudy.yaml
var casestudy []byte

// produceWL is produce: `wrun -o` for the six generators, for cm1
// through its golden spec and for cm1 behind outer flate, then one sweep.
type produceWL struct {
	cfg config
	dir string

	wruns  []wrunRef
	sweepY []byte

	mergeMS []float64 // tracer shard-merge time of every wrun op
}

// wrunRef is one wrun op and what its first run produced.
type wrunRef struct {
	recipe recipe
	sha    [sha256.Size]byte
	bytes  int64
	events int64
}

func wrunRecipes() []recipe {
	viaSpec, flate := generators[0], generators[0]
	viaSpec.name, viaSpec.viaSpec = "cm1-spec", true
	flate.name, flate.compress = "cm1-flate", true
	return append(append([]recipe(nil), generators...), viaSpec, flate)
}

// wrun simulates one recipe and writes its trace, as `wrun -o` does.
func (w *produceWL) wrun(o opCtx, r recipe) (path string, res *vani.Result, n int64, err error) {
	sz := w.cfg.size
	o.span("workloads.run", func() { res, err = generate(r, sz.wrunNodes, sz.scaleOf(r.wrunScale), w.cfg.seed) })
	if err != nil {
		return "", nil, 0, err
	}
	path = filepath.Join(w.dir, r.name+".trc")
	o.span("trace.encode", func() { n, err = writeTrace(path, res.Trace, r.compress) })
	return path, res, n, err
}

// sweep parses the case-study document and runs its grid.
func (w *produceWL) sweep(o opCtx) (y []byte, rep *vani.SweepReport, err error) {
	var sw *vani.Sweep
	o.span("spec.parse", func() { sw, err = vani.ParseSweep(casestudy) })
	if err != nil {
		return nil, nil, err
	}
	sw.Base.Seed = w.cfg.seed
	if sz := w.cfg.size; sz.sweepNodes > 0 {
		sw.Base.Nodes, sw.Base.Scale = sz.sweepNodes, sz.sweepScale
	}
	o.span("spec.sweep", func() { rep, err = sw.Run(vani.SweepOptions{}) })
	if err != nil {
		return nil, nil, err
	}
	return vani.SweepToYAML(rep), rep, nil
}

// setup is the reference round: every op once, its output recorded.
func (w *produceWL) setup(context.Context) error {
	for _, r := range wrunRecipes() {
		path, res, n, err := w.wrun(opCtx{}, r)
		if err != nil {
			return err
		}
		sum, err := fileSHA(path)
		if err != nil {
			return err
		}
		w.wruns = append(w.wruns, wrunRef{recipe: r, sha: sum, bytes: n, events: int64(len(res.Trace.Events))})
		fmt.Fprintf(w.cfg.out, "%s ref wrun/%s sha256=%x events=%d bytes=%d\n", w.cfg.workload, r.name, sum, len(res.Trace.Events), n)
	}
	y, rep, err := w.sweep(opCtx{})
	if err != nil {
		return err
	}
	w.sweepY = y
	fmt.Fprintf(w.cfg.out, "%s ref sweep sha256=%x winner_io_speedup=%s\n", w.cfg.workload, sha256.Sum256(y), rep.Winner.IOSpeedup)
	if w.cfg.size.sweepNodes > 0 {
		return nil // toy grids are too small for the paper's numbers
	}
	speedup, err := strconv.ParseFloat(strings.TrimSuffix(rep.Winner.IOSpeedup, "x"), 64)
	if err != nil || speedup < 2.2 || speedup > 4.6 {
		return fmt.Errorf("sweep winner's I/O speedup %q lies outside the paper's 2.2-4.6x band", rep.Winner.IOSpeedup)
	}
	return nil
}

func fileSHA(path string) (sum [sha256.Size]byte, err error) {
	f, err := os.Open(path)
	if err != nil {
		return sum, err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return sum, err
	}
	copy(sum[:], h.Sum(nil))
	return sum, nil
}

func (w *produceWL) round(_ context.Context, r *round) {
	r.timed(func() {
		for i := range w.wruns {
			ref := &w.wruns[i]
			r.do("wrun/"+ref.recipe.name, ref.events, func(o opCtx) (func() error, error) {
				path, res, _, err := w.wrun(o, ref.recipe)
				if err != nil {
					return nil, err
				}
				w.mergeMS = append(w.mergeMS, ms(res.TraceMerge))
				// The next round overwrites the file, so the check keeps a copy
				// of nothing: it runs right after this round's timed part.
				return func() error { return checkWrun(path, ref) }, nil
			})
		}
		r.do("sweep", 0, func(o opCtx) (func() error, error) {
			y, _, err := w.sweep(o)
			return func() error {
				if !bytes.Equal(y, w.sweepY) {
					return fmt.Errorf("sweep report differs from the first one")
				}
				return nil
			}, err
		})
	})
}

// checkWrun holds a wrun file to determinism (the bytes of the first run)
// and to readability (the decoder returns every event).
func checkWrun(path string, ref *wrunRef) error {
	sum, err := fileSHA(path)
	if err != nil {
		return err
	}
	if sum != ref.sha {
		return fmt.Errorf("trace bytes differ from the first run's")
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	tr, err := vani.ReadTrace(f)
	if err != nil {
		return err
	}
	if int64(len(tr.Events)) != ref.events {
		return fmt.Errorf("decoder returned %d events, the run had %d", len(tr.Events), ref.events)
	}
	return nil
}

func (w *produceWL) finish(context.Context) error { return nil }

func (w *produceWL) close() {}

func (w *produceWL) encoded() (b, ev int64) {
	for _, r := range w.wruns {
		b += r.bytes
		ev += r.events
	}
	return b, ev
}

func (w *produceWL) layers(ctx context.Context, plain, traced phase, spans []span) (map[string]float64, error) {
	self := selfByName(spans)
	m := map[string]float64{
		"class.wrun_p50_ms":  plain.classP50("wrun/"),
		"class.sweep_p50_ms": plain.classP50("sweep"),
		"trace.merge_ms":     median(sorted(w.mergeMS)),
		"spec.parse_ms":      median(sorted(self["spec.parse"])),
	}

	// Simulation time by generator: the workloads.run span of each class.
	runMS := msByClass(spans, "workloads.run")
	for _, r := range w.wruns[:len(generators)] {
		n := r.recipe.name
		m["workloads.run_events_per_s."+n] = ratio(float64(r.events), median(sorted(runMS["wrun/"+n]))/1e3)
		m["trace.encoded_bytes_per_event."+n] = ratio(float64(r.bytes), float64(r.events))
	}
	m["spec.interp_overhead"] = ratio(median(sorted(runMS["wrun/cm1-spec"])), median(sorted(runMS["wrun/cm1"])))

	if err := w.probes(m); err != nil {
		return nil, err
	}
	return m, nil
}

type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) { c.n += int64(len(p)); return len(p), nil }

// probes time the encoder and the replay tuner alone.
func (w *produceWL) probes(m map[string]float64) error {
	reps := w.cfg.size.probeReps
	var traces []*vani.Trace
	for _, r := range generators {
		res, err := generate(r, w.cfg.size.wrunNodes, w.cfg.size.scaleOf(r.wrunScale), w.cfg.seed)
		if err != nil {
			return err
		}
		traces = append(traces, res.Trace)
	}
	for _, arm := range []struct {
		name     string
		compress bool
	}{{"trace.encode_mb_s", false}, {"trace.encode_flate_mb_s", true}} {
		var rates []float64
		for i := 0; i < reps; i++ {
			var cw countingWriter
			t0 := time.Now()
			for _, tr := range traces {
				if err := trace.WriteV2With(&cw, tr, trace.V2Options{Compress: arm.compress}); err != nil {
					return err
				}
			}
			rates = append(rates, ratio(float64(cw.n)/1e6, time.Since(t0).Seconds()))
		}
		m[arm.name] = median(sorted(rates))
	}

	// The sweep's stripe trials: replay.Tune of its three candidates over
	// a CosmoFlow baseline at the sweep's job size.
	sw, err := vani.ParseSweep(casestudy)
	if err != nil {
		return err
	}
	nodes, scale := sw.Base.Nodes, sw.Base.Scale
	if sz := w.cfg.size; sz.sweepNodes > 0 {
		nodes, scale = sz.sweepNodes, sz.sweepScale
	}
	base, err := generate(generators[2], nodes, scale, w.cfg.seed)
	if err != nil {
		return err
	}
	var tuneMS []float64
	for i := 0; i < reps; i++ {
		ropt := replay.DefaultOptions()
		ropt.Storage = base.Spec.Storage
		ropt.Seed = w.cfg.seed
		t0 := time.Now()
		_, err := replay.Tune(base.Trace, replay.StripeSweep(base.Spec.Storage, storage.MiB, 4*storage.MiB, 16*storage.MiB), ropt)
		if err != nil {
			return err
		}
		tuneMS = append(tuneMS, ms(time.Since(t0)))
	}
	m["replay.tune_ms"] = median(sorted(tuneMS))
	return nil
}
