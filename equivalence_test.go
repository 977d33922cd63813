package vani

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"vani/internal/colstore"
	"vani/internal/trace"
)

// equivSpec builds a small-but-nontrivial spec for equivalence runs: large
// enough to cross chunk boundaries in the busier workloads, small enough
// to keep the 6-workload × seeds × parallelism sweep fast.
func equivSpec(w Workload, seed int64) Spec {
	spec := w.DefaultSpec()
	spec.Nodes = 4
	spec.RanksPerNode = 4
	spec.Scale = 0.02
	spec.Seed = seed
	return spec
}

// characterizeWith analyzes a run in memory under opt.
func characterizeWith(t *testing.T, res *Result, opt AnalyzerOptions) *Characterization {
	t.Helper()
	c, err := CharacterizeContext(context.Background(), res, opt)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// characterizeYAML runs the analyzer at the given parallelism and renders
// the characterization as its YAML artifact — the byte stream equivalence
// is asserted over.
func characterizeYAML(t *testing.T, res *Result, par int) []byte {
	t.Helper()
	opt := DefaultAnalyzerOptions()
	opt.Parallelism = par
	return ToYAML(characterizeWith(t, res, opt))
}

// TestParallelismEquivalence is the tentpole's contract: for every
// workload and multiple seeds, the characterization YAML is byte-identical
// between the sequential path (Parallelism=1) and parallel worker pools.
func TestParallelismEquivalence(t *testing.T) {
	for _, name := range Workloads() {
		for _, seed := range []int64{1, 2} {
			w, err := New(name)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(w, equivSpec(w, seed))
			if err != nil {
				t.Fatalf("%s seed=%d: %v", name, seed, err)
			}
			want := characterizeYAML(t, res, 1)
			for _, par := range []int{0, 2, 4, 8} {
				got := characterizeYAML(t, res, par)
				if !bytes.Equal(want, got) {
					t.Errorf("%s seed=%d: YAML differs between Parallelism=1 and Parallelism=%d",
						name, seed, par)
				}
			}
		}
	}
}

// TestCharacterizeFileMatchesInMemory: streaming a written trace off disk
// through CharacterizeFileContext (blocks → column chunks, no []Event) must
// produce a byte-identical characterization to the in-memory path.
func TestCharacterizeFileMatchesInMemory(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"hacc", "montage-pegasus"} {
		w, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(w, equivSpec(w, 1))
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name+".trc")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := WriteTrace(f, res.Trace); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}

		cfg := res.Spec.Storage
		want := ToYAML(Characterize(res))
		for _, par := range []int{1, 4} {
			opt := DefaultAnalyzerOptions()
			opt.Storage = &cfg
			opt.Parallelism = par
			var timings AnalyzerTimings
			opt.Stats = &timings
			c, err := CharacterizeFileContext(context.Background(), path, opt)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got := ToYAML(c); !bytes.Equal(want, got) {
				t.Errorf("%s: streamed characterization differs from in-memory (par=%d)", name, par)
			}
		}
	}
}

// TestFormatEquivalence is the on-disk format's contract: the same workload
// characterized through a log, plain and under the outer flate layer — at
// sequential and parallel decode — produces a YAML artifact byte-identical
// to the in-memory analysis.
func TestFormatEquivalence(t *testing.T) {
	dir := t.TempDir()
	writeAs := func(t *testing.T, path string, f func(*os.File) error) {
		t.Helper()
		out, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := f(out); err != nil {
			t.Fatal(err)
		}
		if err := out.Close(); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"hacc", "cosmoflow"} {
		w, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(w, equivSpec(w, 1))
		if err != nil {
			t.Fatal(err)
		}
		want := ToYAML(Characterize(res))

		variants := map[string]func(*os.File) error{
			"v2":      func(f *os.File) error { return WriteTrace(f, res.Trace) },
			"v2flate": func(f *os.File) error { return trace.WriteV2With(f, res.Trace, trace.V2Options{Compress: true}) },
		}
		cfg := res.Spec.Storage
		for variant, write := range variants {
			path := filepath.Join(dir, name+"-"+variant+".trc")
			writeAs(t, path, write)
			for _, par := range []int{1, 4} {
				opt := DefaultAnalyzerOptions()
				opt.Storage = &cfg
				opt.Parallelism = par
				c, err := CharacterizeFileContext(context.Background(), path, opt)
				if err != nil {
					t.Fatalf("%s %s par=%d: %v", name, variant, par, err)
				}
				if got := ToYAML(c); !bytes.Equal(want, got) {
					t.Errorf("%s: %s characterization differs from in-memory (par=%d)", name, variant, par)
				}
			}
		}
	}
}

// TestCodecMatrixEquivalence is the codec contract: every workload trace,
// encoded under every segment-codec strategy — the cost model and each
// codec forced on, with and without the flate outer layer — characterizes
// to a YAML artifact byte-identical to the in-memory analysis, at
// sequential, fixed-parallel and NumCPU decode. The variants drive every
// segment decoder under the filter tests and the unifier, and all of them
// must be indistinguishable byte-for-byte.
func TestCodecMatrixEquivalence(t *testing.T) {
	dir := t.TempDir()
	variants := map[string]trace.V2Options{
		"v22auto":    {Codec: trace.CodecAuto},
		"v22flate":   {Codec: trace.CodecAuto, Compress: true},
		"v22raw":     {Codec: trace.CodecForceRaw},
		"v22rle":     {Codec: trace.CodecForceRLE},
		"v22dict":    {Codec: trace.CodecForceDict},
		"v22for":     {Codec: trace.CodecForceFOR},
		"v22forflat": {Codec: trace.CodecForceFOR, Compress: true},
	}
	pars := []int{1, 4, runtime.NumCPU()}
	for _, name := range Workloads() {
		w, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(w, equivSpec(w, 1))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cfg := res.Spec.Storage
		refOpt := DefaultAnalyzerOptions()
		refOpt.Storage = &cfg
		want := ToYAML(characterizeWith(t, res, refOpt))

		check := func(variant, path string) {
			t.Helper()
			for _, par := range pars {
				opt := DefaultAnalyzerOptions()
				opt.Storage = &cfg
				opt.Parallelism = par
				c, err := CharacterizeFileContext(context.Background(), path, opt)
				if err != nil {
					t.Fatalf("%s %s par=%d: %v", name, variant, par, err)
				}
				if got := ToYAML(c); !bytes.Equal(want, got) {
					t.Errorf("%s: %s characterization differs from in-memory (par=%d)",
						name, variant, par)
				}
			}
		}

		for variant, vopt := range variants {
			path := filepath.Join(dir, name+"-"+variant+".trc")
			f, err := os.Create(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := trace.WriteV2With(f, res.Trace, vopt); err != nil {
				t.Fatalf("%s %s: %v", name, variant, err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			check(variant, path)
		}
	}
}

// TestFilteredCodecMatrixEquivalence extends the codec matrix to filtered
// scans. With a filter pushed down, the surviving chunks are
// selection-backed — chosen by testing the filter on decoded rows under
// every codec; the YAML must stay byte-identical to in-memory filtering
// across codecs, filter shapes (residual window, exact rank
// selection, op class, and their combination) and sequential / fixed /
// NumCPU parallelism.
func TestFilteredCodecMatrixEquivalence(t *testing.T) {
	dir := t.TempDir()
	w, err := New("hacc")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(w, equivSpec(w, 1))
	if err != nil {
		t.Fatal(err)
	}
	end := res.Trace.Events[len(res.Trace.Events)-1].Start
	filters := map[string]TraceFilter{
		"window":   {From: end / 4, To: end / 2},
		"ranks":    {Ranks: []int32{0, 1, 2, 3}},
		"ops":      {Ops: OpClassData},
		"combined": {From: end / 8, To: 3 * end / 4, Ranks: []int32{0, 2, 4, 6, 8, 10}, Ops: OpClassIO},
	}
	variants := map[string]trace.V2Options{
		"v22auto": {Codec: trace.CodecAuto},
		"v22raw":  {Codec: trace.CodecForceRaw},
		"v22rle":  {Codec: trace.CodecForceRLE},
		"v22dict": {Codec: trace.CodecForceDict},
		"v22for":  {Codec: trace.CodecForceFOR},
	}
	pars := []int{1, 4, runtime.NumCPU()}
	cfg := res.Spec.Storage
	paths := map[string]string{}
	for variant, vopt := range variants {
		path := filepath.Join(dir, variant+".trc")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := trace.WriteV2With(f, res.Trace, vopt); err != nil {
			t.Fatalf("%s: %v", variant, err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		paths[variant] = path
	}
	for fname, filter := range filters {
		refOpt := DefaultAnalyzerOptions()
		refOpt.Storage = &cfg
		refOpt.Filter = filter
		want := ToYAML(characterizeWith(t, res, refOpt))
		for variant, path := range paths {
			for _, par := range pars {
				opt := DefaultAnalyzerOptions()
				opt.Storage = &cfg
				opt.Parallelism = par
				opt.Filter = filter
				c, err := CharacterizeFileContext(context.Background(), path, opt)
				if err != nil {
					t.Fatalf("%s %s par=%d: %v", fname, variant, par, err)
				}
				if got := ToYAML(c); !bytes.Equal(want, got) {
					t.Errorf("%s: %s filtered characterization differs from in-memory (par=%d)",
						fname, variant, par)
				}
			}
		}
	}
}

// TestCodecSizeGuard is the size regression gate CI runs on the cost
// model: on every example workload trace, auto mode with the outer flate
// layer engaged must land within 5% of forced-raw segments under flate —
// plain deflated varints, the encoding the codecs have to beat (auto
// competes against the all-raw payload post-flate per block, so it can only
// lose by frame overhead). A cost-model regression — a codec
// mispriced, the flate-aware fallback dropped — shows up here before it
// shows up in the published bench record.
func TestCodecSizeGuard(t *testing.T) {
	const maxRatio = 1.05
	for _, name := range Workloads() {
		w, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(w, equivSpec(w, 1))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		size := func(opt trace.V2Options) int {
			var buf bytes.Buffer
			if err := trace.WriteV2With(&buf, res.Trace, opt); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return buf.Len()
		}
		auto := size(trace.V2Options{Compress: true})
		rawFlate := size(trace.V2Options{Codec: trace.CodecForceRaw, Compress: true})
		ratio := float64(auto) / float64(rawFlate)
		t.Logf("%-16s auto-flate=%d raw-flate=%d ratio=%.3f", name, auto, rawFlate, ratio)
		if ratio > maxRatio {
			t.Errorf("%s: auto encoding is %d bytes, %.1f%% larger than raw segments under flate (%d bytes); limit is %.0f%%",
				name, auto, (ratio-1)*100, rawFlate, (maxRatio-1)*100)
		}
	}
}

// TestFilterPushdownEquivalence is the scan planner's contract: a filtered
// characterization read off disk — with block pruning and the row filter
// engaged — is byte-identical to filtering the full decode in memory, for
// every trace layout (plain and compressed, non-default block geometry) and at sequential and parallel decode. Every
// layout's planned table has one chunk per block (assertChunkPerBlock), so
// the non-default geometry is what the analyzer scans.
func TestFilterPushdownEquivalence(t *testing.T) {
	dir := t.TempDir()
	w, err := New("hacc")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(w, equivSpec(w, 1))
	if err != nil {
		t.Fatal(err)
	}
	end := res.Trace.Events[len(res.Trace.Events)-1].Start
	filters := map[string]TraceFilter{
		"none":     {},
		"window":   {From: end / 4, To: end / 2},
		"ranks":    {Ranks: []int32{0, 1, 2, 3}},
		"levels":   {Levels: []trace.Level{trace.LevelPosix}},
		"ops":      {Ops: OpClassData},
		"combined": {From: end / 8, To: 3 * end / 4, Ranks: []int32{0, 2, 4, 6, 8, 10}, Ops: OpClassIO},
		"nothing":  {From: 100 * end, To: 200 * end},
	}
	variants := map[string]func(*os.File) error{
		"v2":        func(f *os.File) error { return WriteTrace(f, res.Trace) },
		"v2flate":   func(f *os.File) error { return trace.WriteV2With(f, res.Trace, trace.V2Options{Compress: true}) },
		"v2blk1000": func(f *os.File) error { return trace.WriteV2With(f, res.Trace, trace.V2Options{BlockEvents: 1000}) },
	}
	cfg := res.Spec.Storage
	paths := map[string]string{}
	for variant, write := range variants {
		path := filepath.Join(dir, variant+".trc")
		out, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := write(out); err != nil {
			t.Fatal(err)
		}
		if err := out.Close(); err != nil {
			t.Fatal(err)
		}
		paths[variant] = path
		assertChunkPerBlock(t, path)
	}
	for fname, filter := range filters {
		// Reference: in-memory analysis of the filtered event log.
		refOpt := DefaultAnalyzerOptions()
		refOpt.Storage = &cfg
		refOpt.Filter = filter
		want := ToYAML(characterizeWith(t, res, refOpt))
		for variant, path := range paths {
			for _, par := range []int{1, 4} {
				opt := DefaultAnalyzerOptions()
				opt.Storage = &cfg
				opt.Parallelism = par
				opt.Filter = filter
				var timings AnalyzerTimings
				opt.Stats = &timings
				c, err := CharacterizeFileContext(context.Background(), path, opt)
				if err != nil {
					t.Fatalf("%s %s par=%d: %v", fname, variant, par, err)
				}
				if got := ToYAML(c); !bytes.Equal(want, got) {
					t.Errorf("%s: %s characterization differs from in-memory filtering (par=%d)",
						fname, variant, par)
				}
				s := timings.Scan
				if s.RowsKept > s.RowsTotal || s.BlocksPruned > s.BlocksTotal || s.DecodedBytes > s.PayloadBytes {
					t.Errorf("%s %s: inconsistent scan counters %+v", fname, variant, s)
				}
			}
		}
	}
}

// assertChunkPerBlock plans the unfiltered scan of the log at path, as the
// file path does, and fails unless the table has one chunk per block — what
// a fall-back to one big chunk breaks (colstore's assertGeometry holds the
// full rule).
func assertChunkPerBlock(t *testing.T, path string) {
	t.Helper()
	br, err := trace.OpenBlockReader(path)
	if err != nil {
		t.Fatal(err)
	}
	defer br.Close()
	tb, err := colstore.FromBlocksSpecContext(context.Background(), br, 2, colstore.ScanSpec{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Release()
	if nb, nc := br.NumBlocks(), tb.NumChunks(); nc != nb {
		t.Fatalf("%s: %d chunks from %d blocks of %d events", path, nc, nb, br.BlockEvents())
	}
}

// TestScanCountersReported: a narrow window over a multi-block v2 log
// reports pruned blocks and a decoded-bytes figure well under the full
// payload through AnalyzerOptions.Stats.
func TestScanCountersReported(t *testing.T) {
	tr := syntheticTrace(3*16384 + 100)
	path := filepath.Join(t.TempDir(), "big.trc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteTrace(f, tr); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	end := tr.Events[len(tr.Events)-1].Start

	full := DefaultAnalyzerOptions()
	var fullStats AnalyzerTimings
	full.Stats = &fullStats
	if _, err := CharacterizeFileContext(context.Background(), path, full); err != nil {
		t.Fatal(err)
	}
	if fullStats.Scan.BlocksTotal < 4 || fullStats.Scan.BlocksPruned != 0 {
		t.Fatalf("full scan counters: %+v", fullStats.Scan)
	}
	// Every column of the full scan decodes inside the plan, which
	// columnarize times: the decode clock ran, and — summed over workers —
	// for no longer than the workers had.
	if d := time.Duration(fullStats.Scan.DecodeNanos); d <= 0 ||
		d > time.Duration(runtime.GOMAXPROCS(0))*fullStats.Columnarize {
		t.Errorf("full scan decode time %s against columnarize %s", d, fullStats.Columnarize)
	}

	opt := DefaultAnalyzerOptions()
	opt.Filter = TraceFilter{From: end / 4, To: end / 2}
	var timings AnalyzerTimings
	opt.Stats = &timings
	if _, err := CharacterizeFileContext(context.Background(), path, opt); err != nil {
		t.Fatal(err)
	}
	s := timings.Scan
	if s.BlocksPruned == 0 {
		t.Error("windowed scan pruned no blocks")
	}
	if s.DecodedBytes >= fullStats.Scan.DecodedBytes {
		t.Errorf("windowed scan decoded %d bytes, full scan %d: pushdown saved nothing",
			s.DecodedBytes, fullStats.Scan.DecodedBytes)
	}
	if s.RowsKept >= s.RowsTotal {
		t.Errorf("windowed scan kept %d of %d read rows", s.RowsKept, s.RowsTotal)
	}
}

// writeVariants are the two shapes a file takes on disk: block payloads as
// encoded, and under the outer flate layer.
var writeVariants = map[string]TraceWriteOptions{"v2": {}, "v2flate": {Compress: true}}

// syntheticTrace builds a time-ordered multi-block trace without running a
// workload: enough rows to span several blocks.
func syntheticTrace(n int) *Trace {
	tr := trace.NewTracer()
	tr.SetMeta(trace.Meta{Workload: "synthetic", Nodes: 4, Ranks: 16, PFSDir: "/p/gpfs1"})
	file := tr.FileID("/p/gpfs1/data")
	for i := 0; i < n; i++ {
		start := time.Duration(i) * time.Microsecond
		op := trace.OpWrite
		if i%3 == 0 {
			op = trace.OpRead
		}
		tr.Record(trace.Event{
			Level: trace.LevelPosix, Op: op, Rank: int32(i % 16),
			File: file, Offset: int64(i) * 4096, Size: 4096,
			Start: start, End: start + time.Microsecond,
		})
	}
	return tr.Finish()
}

// TestReadTraceFiltered: the filtered loader equals filtering a full load
// and prunes nothing it should keep.
func TestReadTraceFiltered(t *testing.T) {
	dir := t.TempDir()
	w, err := New("ior")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(w, equivSpec(w, 5))
	if err != nil {
		t.Fatal(err)
	}
	end := res.Trace.Events[len(res.Trace.Events)-1].Start
	filter := TraceFilter{From: end / 3, To: 2 * end / 3, Ops: OpClassData}
	want := trace.FilterEvents(res.Trace.Events, filter)
	for name, wopt := range writeVariants {
		path := filepath.Join(dir, name+".trc")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := WriteTraceWith(f, res.Trace, wopt); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		got, err := ReadTraceFiltered(path, filter)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(got.Events) != len(want) {
			t.Fatalf("%s: loaded %d events, want %d", name, len(got.Events), len(want))
		}
		for i := range want {
			if got.Events[i] != want[i] {
				t.Fatalf("%s: event %d differs", name, i)
			}
		}
		if got.Meta.Workload != res.Trace.Meta.Workload {
			t.Errorf("%s: header metadata lost", name)
		}
	}
}

// TestTraceFormatRoundTripFacade: the facade's writer and its stream reader
// agree, and the codec flag parser knows its names.
func TestTraceFormatRoundTripFacade(t *testing.T) {
	w, err := New("ior")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(w, equivSpec(w, 3))
	if err != nil {
		t.Fatal(err)
	}
	for name, wopt := range writeVariants {
		var buf bytes.Buffer
		if err := WriteTraceWith(&buf, res.Trace, wopt); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := ReadTrace(&buf)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(got.Events) != len(res.Trace.Events) {
			t.Errorf("%s: %d events round-tripped, want %d", name, len(got.Events), len(res.Trace.Events))
		}
	}
	if c, err := ParseTraceCodec("auto"); err != nil || c != trace.CodecAuto {
		t.Errorf("ParseTraceCodec(auto) = %v, %v", c, err)
	}
	if _, err := ParseTraceCodec("v21"); err == nil {
		t.Error("ParseTraceCodec accepted the retired v21 layout")
	}
}

// TestCharacterizeFileErrors: missing and corrupt trace files surface as
// errors, not panics.
func TestCharacterizeFileErrors(t *testing.T) {
	ctx, opt := context.Background(), DefaultAnalyzerOptions()
	if _, err := CharacterizeFileContext(ctx, filepath.Join(t.TempDir(), "nope.trc"), opt); err == nil {
		t.Error("missing file did not error")
	}
	bad := filepath.Join(t.TempDir(), "bad.trc")
	if err := os.WriteFile(bad, []byte("not a trace"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := CharacterizeFileContext(ctx, bad, opt); err == nil {
		t.Error("corrupt file did not error")
	}

	// A log every decoder accepts, one of whose events names a file past
	// the header's interned table: malformed.
	tr := syntheticTrace(20)
	tr.Events[10].File = int32(len(tr.Files)) + 7
	for name, wopt := range writeVariants {
		path := filepath.Join(t.TempDir(), name+".trc")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := WriteTraceWith(f, tr, wopt); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		_, err = CharacterizeFileContext(context.Background(), path, DefaultAnalyzerOptions())
		if !errors.Is(err, trace.ErrBadFormat) {
			t.Errorf("%s: out-of-range file id: err = %v, want ErrBadFormat", name, err)
		}
	}
}

// TestStageTimingsPopulated: the verbose pipeline exposes non-trivial
// per-stage timings through AnalyzerOptions.Stats.
func TestStageTimingsPopulated(t *testing.T) {
	w, err := New("hacc")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(w, equivSpec(w, 1))
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultAnalyzerOptions()
	var timings AnalyzerTimings
	opt.Stats = &timings
	if c := characterizeWith(t, res, opt); c == nil {
		t.Fatal("nil characterization")
	}
	if timings.TraceMerge <= 0 {
		t.Error("TraceMerge timing not recorded")
	}
	if timings.Columnarize <= 0 {
		t.Error("Columnarize timing not recorded")
	}
	if timings.Analyze <= 0 {
		t.Error("Analyze timing not recorded")
	}
}

// TestConcurrentCharacterizeFile hammers CharacterizeFileContext over the same
// on-disk log from many goroutines at once: every call must produce a
// byte-identical YAML artifact. This is the contract vanid's worker pool
// rests on — concurrent jobs over one stored trace share nothing mutable.
func TestConcurrentCharacterizeFile(t *testing.T) {
	dir := t.TempDir()
	tr := syntheticTrace(3*16384 + 77)
	for name, wopt := range writeVariants {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(dir, name+".trc")
			f, err := os.Create(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := WriteTraceWith(f, tr, wopt); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}

			opt := DefaultAnalyzerOptions()
			opt.Filter = TraceFilter{Ranks: []int32{0, 1, 2, 3}, Ops: OpClassData}
			want, err := CharacterizeFileContext(context.Background(), path, opt)
			if err != nil {
				t.Fatal(err)
			}
			wantYAML := ToYAML(want)

			const goroutines = 8
			results := make([][]byte, goroutines)
			errs := make([]error, goroutines)
			var wg sync.WaitGroup
			wg.Add(goroutines)
			for g := 0; g < goroutines; g++ {
				go func(g int) {
					defer wg.Done()
					o := DefaultAnalyzerOptions()
					o.Filter = TraceFilter{Ranks: []int32{0, 1, 2, 3}, Ops: OpClassData}
					o.Parallelism = 1 + g%4
					c, err := CharacterizeFileContext(context.Background(), path, o)
					if err != nil {
						errs[g] = err
						return
					}
					results[g] = ToYAML(c)
				}(g)
			}
			wg.Wait()
			for g := 0; g < goroutines; g++ {
				if errs[g] != nil {
					t.Fatalf("goroutine %d: %v", g, errs[g])
				}
				if !bytes.Equal(results[g], wantYAML) {
					t.Errorf("goroutine %d (par=%d): YAML differs from serial run", g, 1+g%4)
				}
			}
		})
	}
}

// TestCharacterizeFileContextCanceled: an already-canceled context aborts
// the decode with a bare context.Canceled.
func TestCharacterizeFileContextCanceled(t *testing.T) {
	dir := t.TempDir()
	tr := syntheticTrace(2 * 16384)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, wopt := range writeVariants {
		path := filepath.Join(dir, name+".trc")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := WriteTraceWith(f, tr, wopt); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		_, err = CharacterizeFileContext(ctx, path, DefaultAnalyzerOptions())
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", name, err)
		}
	}
}

// TestCharacterizeContextMatches: the context variant with a background
// context and default options produces the same characterization as
// Characterize.
func TestCharacterizeContextMatches(t *testing.T) {
	w, err := New("hacc")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(w, equivSpec(w, 9))
	if err != nil {
		t.Fatal(err)
	}
	want := ToYAML(Characterize(res))
	if got := ToYAML(characterizeWith(t, res, DefaultAnalyzerOptions())); !bytes.Equal(want, got) {
		t.Error("CharacterizeContext YAML differs from Characterize")
	}
}
