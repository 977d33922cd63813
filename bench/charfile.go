package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"vani"
	"vani/internal/colstore"
	"vani/internal/core"
	"vani/internal/parallel"
	"vani/internal/trace"
	"vani/internal/yamlenc"
)

// charWL is char-full and char-filtered: characterize-file over the
// corpus, unfiltered or under the four drill-down filters.
type charWL struct {
	cfg      config
	dir      string
	filtered bool

	files []corpusFile
	ops   []charOp

	builderMS []float64 // in-memory columnarize times of the reference runs

	// traced-pass accumulators
	scan       colstore.ScanCounters
	coreAlloc  uint64
	coreMalloc uint64
	coreOps    int
}

// corpusFile is one encoded trace of the corpus.
type corpusFile struct {
	recipe recipe
	path   string
	bytes  int64
	events int64
}

// charOp is one characterize-file call and the YAML it must produce.
type charOp struct {
	class  string
	file   *corpusFile
	filter trace.Filter
	ref    []byte
}

// corpusRecipes is the corpus: the six generators, plus cm1 once more
// behind the outer flate layer so the decompress stage is on the path.
// Seven classes also keep the median op inside one class instead of on
// the boundary between two.
func corpusRecipes() []recipe {
	flate := generators[0]
	flate.name, flate.compress = "cm1-flate", true
	return append(append([]recipe(nil), generators...), flate)
}

func (w *charWL) setup(ctx context.Context) error {
	recipes := corpusRecipes()
	w.files = make([]corpusFile, len(recipes))
	perFile := make([][]charOp, len(recipes))
	builder := make([][]float64, len(recipes))
	errs := make([]error, len(recipes))
	// cm1-flate re-encodes cm1's run; only the six generators simulate.
	parallel.ForEach(0, len(generators), func(i int) {
		errs[i] = func() error {
			res, err := generate(recipes[i], w.cfg.size.nodes, w.cfg.size.scaleOf(recipes[i].scale), w.cfg.seed)
			if err != nil {
				return err
			}
			idx := []int{i}
			if i == 0 {
				idx = append(idx, len(recipes)-1)
			}
			for _, k := range idx {
				f := &w.files[k]
				f.recipe = recipes[k]
				f.path = filepath.Join(w.dir, f.recipe.name+".trc")
				f.events = int64(len(res.Trace.Events))
				if f.bytes, err = writeTrace(f.path, res.Trace, f.recipe.compress); err != nil {
					return err
				}
			}
			// References come from the in-memory path: row-built table, no
			// codecs, no block reader.
			filters := []filterSpec{{name: ""}}
			if w.filtered {
				filters = drillDownFilters(res.Runtime)
			}
			for _, fs := range filters {
				flt, err := fs.filter()
				if err != nil {
					return err
				}
				opt := analyzerOptions(flt)
				var tm vani.AnalyzerTimings
				opt.Stats = &tm
				c, err := vani.CharacterizeContext(ctx, res, opt)
				if err != nil {
					return err
				}
				ref := vani.ToYAML(c)
				builder[i] = append(builder[i], ms(tm.Columnarize))
				for _, k := range idx {
					class := w.files[k].recipe.name
					if fs.name != "" {
						class = fs.name + "/" + class
					}
					perFile[k] = append(perFile[k], charOp{class: class, file: &w.files[k], filter: flt, ref: ref})
				}
			}
			return nil
		}()
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	for k := range perFile {
		w.ops = append(w.ops, perFile[k]...)
		w.builderMS = append(w.builderMS, builder[k]...)
	}
	for _, op := range w.ops {
		fmt.Fprintf(w.cfg.out, "%s ref %s sha256=%x events=%d bytes=%d\n",
			w.cfg.workload, op.class, sha256.Sum256(op.ref), op.file.events, op.file.bytes)
	}
	return nil
}

func (w *charWL) round(ctx context.Context, r *round) {
	r.timed(func() {
		for i := range w.ops {
			op := &w.ops[i]
			r.do(op.class, op.file.events, func(o opCtx) (func() error, error) {
				var y []byte
				var err error
				if o.traced() {
					y, err = w.staged(ctx, o, op)
				} else {
					var c *vani.Characterization
					if c, err = vani.CharacterizeFileContext(ctx, op.file.path, analyzerOptions(op.filter)); err == nil {
						y = vani.ToYAML(c)
					}
				}
				if err != nil {
					return nil, err
				}
				return func() error {
					if !bytes.Equal(y, op.ref) {
						return fmt.Errorf("report differs from the in-memory reference (%d vs %d bytes)", len(y), len(op.ref))
					}
					return nil
				}, nil
			})
		}
	})
}

// staged replays pipeline.File's stages through the layers' public
// functions, one span each. Columns materialize lazily, so decode that
// core's Require calls trigger lands in core's span.
func (w *charWL) staged(ctx context.Context, o opCtx, op *charOp) ([]byte, error) {
	opt := analyzerOptions(op.filter)
	var (
		br  *trace.FileBlockReader
		tb  *colstore.Table
		c   *core.Characterization
		y   []byte
		err error
	)
	o.span("trace.open", func() { br, err = trace.OpenBlockReader(op.file.path) })
	if err != nil {
		return nil, err
	}
	defer br.Close()
	stats := &colstore.ScanStats{}
	o.span("colstore.plan", func() {
		tb, err = colstore.FromBlocksSpecContext(ctx, br, opt.Parallelism, colstore.ScanSpec{Filter: opt.Filter}, stats)
	})
	if err != nil {
		return nil, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	o.span("core.analyze", func() { c, err = core.AnalyzeTableContext(ctx, br.Header(), tb, opt) })
	runtime.ReadMemStats(&m1)
	if err != nil {
		return nil, err
	}
	o.span("yamlenc.marshal", func() { y = yamlenc.Marshal(c) })

	w.coreAlloc += m1.TotalAlloc - m0.TotalAlloc
	w.coreMalloc += m1.Mallocs - m0.Mallocs
	w.coreOps++
	addScan(&w.scan, stats.Snapshot())
	return y, nil
}

// addScan sums the counters the per-layer ratios are made of.
func addScan(dst *colstore.ScanCounters, sc colstore.ScanCounters) {
	dst.BlocksTotal += sc.BlocksTotal
	dst.BlocksPruned += sc.BlocksPruned
	dst.RowsTotal += sc.RowsTotal
	dst.RowsKept += sc.RowsKept
	dst.PayloadBytes += sc.PayloadBytes
	dst.DecodedBytes += sc.DecodedBytes
	dst.KernelsServed += sc.KernelsServed
	dst.KernelsFallback += sc.KernelsFallback
	dst.GroupServed += sc.GroupServed
	dst.GroupFallback += sc.GroupFallback
	dst.TLServed += sc.TLServed
	dst.TLFallback += sc.TLFallback
	dst.RunIsectServed += sc.RunIsectServed
	dst.RunIsectFallback += sc.RunIsectFallback
}

func (w *charWL) finish(context.Context) error { return nil }

func (w *charWL) close() {}

func (w *charWL) encoded() (b, ev int64) {
	for _, f := range w.files {
		b += f.bytes
		ev += f.events
	}
	return b, ev
}

func (w *charWL) layers(ctx context.Context, plain, traced phase, spans []span) (map[string]float64, error) {
	self := selfByName(spans)
	p50 := func(name string) float64 { return median(sorted(self[name])) }
	served := func(s, f int64) float64 { return ratio(float64(s), float64(s+f)) }

	var opMS float64
	for _, s := range spans {
		if s.Parent == 0 {
			opMS += ms(s.End - s.Start)
		}
	}
	tracedEvents := float64(traced.events())
	sc := w.scan
	m := map[string]float64{
		"trace.open_ms":      p50("trace.open"),
		"colstore.plan_ms":   p50("colstore.plan"),
		"core.analyze_ms":    p50("core.analyze"),
		"core.analyze_share": ratio(sum(self["core.analyze"]), opMS),
		"yamlenc.marshal_ms": p50("yamlenc.marshal"),

		"colstore.blocks_pruned_ratio":   ratio(float64(sc.BlocksPruned), float64(sc.BlocksTotal)),
		"colstore.rows_kept_ratio":       ratio(float64(sc.RowsKept), tracedEvents),
		"colstore.decoded_bytes_ratio":   ratio(float64(sc.DecodedBytes), float64(sc.PayloadBytes)),
		"colstore.kernels_served_ratio":  served(sc.KernelsServed, sc.KernelsFallback),
		"colstore.group_served_ratio":    served(sc.GroupServed, sc.GroupFallback),
		"colstore.tl_served_ratio":       served(sc.TLServed, sc.TLFallback),
		"colstore.runisect_served_ratio": served(sc.RunIsectServed, sc.RunIsectFallback),
		"colstore.builder_ms":            median(sorted(w.builderMS)),

		"core.alloc_bytes_per_event": ratio(float64(w.coreAlloc), tracedEvents),
		"core.allocs_per_op":         ratio(float64(w.coreMalloc), float64(w.coreOps)),
	}
	if w.filtered {
		return m, nil
	}

	// core time per event by workload shape: the analyze spans of each
	// generator's unfiltered op.
	analyzeByClass := msByClass(spans, "core.analyze")
	var analyzeMS float64 // one corpus round of core at the medians
	for _, f := range w.files[:len(generators)] {
		med := median(sorted(analyzeByClass[f.recipe.name]))
		analyzeMS += med
		m["core.ns_per_event."+f.recipe.name] = ratio(med*1e6, float64(f.events))
		m["trace.encoded_bytes_per_event."+f.recipe.name] = ratio(float64(f.bytes), float64(f.events))
	}

	if err := w.probes(ctx, m, analyzeMS); err != nil {
		return nil, err
	}
	return m, nil
}

// probes are the standalone layer measurements on the corpus bytes: what
// outside timing of the staged op cannot separate.
func (w *charWL) probes(ctx context.Context, m map[string]float64, analyzeMS float64) error {
	files := w.files[:len(generators)]
	reps := w.cfg.size.probeReps
	nproc := runtime.GOMAXPROCS(0)
	var encodedBytes float64
	for _, f := range files {
		encodedBytes += float64(f.bytes)
	}

	// trace decode: plan every block and materialize all columns.
	var tables []*colstore.Table
	decode := func(par int, keep bool) (time.Duration, error) {
		t0 := time.Now()
		for _, f := range files {
			br, err := trace.OpenBlockReader(f.path)
			if err != nil {
				return 0, err
			}
			tb, err := colstore.FromBlocksSpecContext(ctx, br, par, colstore.ScanSpec{}, nil)
			if err == nil {
				err = tb.MaterializeContext(ctx, par, trace.AllCols)
			}
			br.Close()
			if err != nil {
				return 0, err
			}
			if keep {
				tables = append(tables, tb)
			}
		}
		return time.Since(t0), nil
	}
	for _, arm := range []struct {
		name string
		par  int
	}{{"trace.decode_mb_s.par1", 1}, {"trace.decode_mb_s.parN", nproc}} {
		var secs []float64
		for i := 0; i < reps; i++ {
			d, err := decode(arm.par, false)
			if err != nil {
				return err
			}
			secs = append(secs, d.Seconds())
		}
		m[arm.name] = ratio(encodedBytes/1e6, median(sorted(secs)))
	}

	// The memory-bandwidth reference: one thread summing the same decoded
	// columns core scans.
	if _, err := decode(nproc, true); err != nil {
		return err
	}
	var colBytes int64
	var sumSecs []float64
	for i := 0; i < reps+2; i++ {
		t0 := time.Now()
		var n int64
		for _, tb := range tables {
			n += sumTable(tb)
		}
		sumSecs = append(sumSecs, time.Since(t0).Seconds())
		colBytes = n
	}
	tables = nil
	m["mem.sum_mb_s"] = ratio(float64(colBytes)/1e6, median(sorted(sumSecs)))
	m["core.frac_of_membw"] = ratio(ratio(float64(colBytes)/1e6, analyzeMS/1e3), m["mem.sum_mb_s"])
	fmt.Fprintf(w.cfg.out, "%s mem.sum array %d bytes of decoded columns; last-level cache %s\n",
		w.cfg.workload, colBytes, lastLevelCache())

	// core's parallel speedup: a corpus round of the end-to-end op at one
	// worker against one at nproc. Meaningless on one core, so omitted.
	if nproc > 1 {
		roundAt := func(par int) (float64, error) {
			var secs []float64
			for i := 0; i < reps; i++ {
				t0 := time.Now()
				for _, f := range files {
					opt := analyzerOptions(trace.Filter{})
					opt.Parallelism = par
					if _, err := vani.CharacterizeFileContext(ctx, f.path, opt); err != nil {
						return 0, err
					}
				}
				secs = append(secs, time.Since(t0).Seconds())
			}
			return median(sorted(secs)), nil
		}
		seq, err := roundAt(1)
		if err != nil {
			return err
		}
		par, err := roundAt(nproc)
		if err != nil {
			return err
		}
		m["core.par_speedup"] = ratio(seq, par)
	}

	// The consumer side of the YAML: a storage system loading the report.
	var decodeMS []float64
	for i := 0; i < reps; i++ {
		for _, op := range w.ops[:len(files)] {
			t0 := time.Now()
			if _, err := vani.FromYAML(op.ref); err != nil {
				return fmt.Errorf("loading %s's report: %w", op.class, err)
			}
			decodeMS = append(decodeMS, ms(time.Since(t0)))
		}
	}
	m["yamlenc.decode_ms"] = median(sorted(decodeMS))
	return nil
}

// sumTable adds up every value of every column and returns the bytes it
// read. The sum is kept alive through sink so the loops are not removed.
func sumTable(tb *colstore.Table) (bytes int64) {
	var acc int64
	tb.ForEachChunk(func(c *colstore.Chunk) {
		for _, col := range [][]uint8{c.Level, c.Op, c.Lib} {
			for _, v := range col {
				acc += int64(v)
			}
			bytes += int64(len(col))
		}
		for _, col := range [][]int32{c.Rank, c.Node, c.App, c.File} {
			for _, v := range col {
				acc += int64(v)
			}
			bytes += 4 * int64(len(col))
		}
		for _, col := range [][]int64{c.Offset, c.Size, c.Start, c.End} {
			for _, v := range col {
				acc += v
			}
			bytes += 8 * int64(len(col))
		}
	})
	sink = acc
	return bytes
}

var sink int64
