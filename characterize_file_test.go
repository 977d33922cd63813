package vani

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe" // Sizeof, and go:linkname

	"vani/internal/core"
	"vani/internal/spec"
	"vani/internal/trace"
	"vani/internal/yamlenc"
)

// generated caches simulated runs across tests and -count repetitions.
var generated struct {
	mu sync.Mutex
	m  map[string]*trace.Trace
}

// simulate runs a generator on nodes nodes at the given scale.
func simulate(t *testing.T, name string, seed int64, nodes int, scale float64) *trace.Trace {
	t.Helper()
	key := fmt.Sprintf("%s/%d/%d/%g", name, seed, nodes, scale)
	generated.mu.Lock()
	defer generated.mu.Unlock()
	if tr := generated.m[key]; tr != nil {
		return tr
	}
	w, err := spec.New(name)
	if err != nil {
		t.Fatal(err)
	}
	spec := w.DefaultSpec()
	spec.Nodes, spec.Scale, spec.Seed = nodes, scale, seed
	res, err := w.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if generated.m == nil {
		generated.m = map[string]*trace.Trace{}
	}
	generated.m[key] = res.Trace
	return res.Trace
}

// writeLog encodes tr as a block log under dir and returns its path and bytes.
func writeLog(t *testing.T, dir, name string, tr *trace.Trace) (string, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteV2(&buf, tr); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name+".trc")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path, buf.Bytes()
}

// reference is the in-memory characterization of tr: a row-built table, no
// codec, no block reader, no column pool.
func reference(t *testing.T, tr *trace.Trace, opt core.Options) []byte {
	t.Helper()
	c, err := core.AnalyzeContext(context.Background(), tr, opt)
	if err != nil {
		t.Fatal(err)
	}
	return yamlenc.Marshal(c)
}

// TestFileRepeatsByteIdentical: every call after the first decodes into
// columns the call before it released; the report never notices.
func TestFileRepeatsByteIdentical(t *testing.T) {
	tr := simulate(t, "hacc", 1, 8, 0.1)
	path, _ := writeLog(t, t.TempDir(), "hacc", tr)
	for _, filter := range []trace.Filter{{}, {Ranks: []int32{0, 1, 2, 3, 4, 5, 6, 7}, Ops: trace.OpClassData}} {
		opt := core.DefaultOptions()
		opt.Filter = filter
		want := reference(t, tr, opt)
		inUse := trace.ColumnsInUse()
		for i := 0; i < 5; i++ {
			c, err := CharacterizeFileContext(context.Background(), path, opt)
			if err != nil {
				t.Fatal(err)
			}
			if got := yamlenc.Marshal(c); !bytes.Equal(got, want) {
				t.Fatalf("call %d: report differs from the in-memory characterization", i)
			}
			if got := trace.ColumnsInUse(); got != inUse {
				t.Fatalf("call %d left %d pooled columns out", i, got-inUse)
			}
		}
	}
}

// TestConcurrentFilesShareThePool: eight requests over eight different
// traces at once, each releasing into the pools the others draw from. Run
// under -race -count=10 in CI: one request's Release against another's
// growSet is the interleaving the pools exist for.
func TestConcurrentFilesShareThePool(t *testing.T) {
	dir := t.TempDir()
	// Two to four blocks each: enough for chunks to differ, small enough
	// for ten repetitions under the race detector.
	scales := map[string]float64{"hacc": 0.1, "cm1": 0.1, "jag": 0.03, "montage-pegasus": 0.01}
	type job struct {
		path string
		want []byte
	}
	var jobs []job
	for name, scale := range scales {
		for seed := int64(1); seed <= 2; seed++ {
			tr := simulate(t, name, seed, 8, scale)
			path, _ := writeLog(t, dir, fmt.Sprintf("%s-%d", name, seed), tr)
			jobs = append(jobs, job{path, reference(t, tr, core.DefaultOptions())})
		}
	}
	inUse := trace.ColumnsInUse()
	var wg sync.WaitGroup
	for _, j := range jobs {
		wg.Add(1)
		go func(j job) {
			defer wg.Done()
			for i := 0; i < 2; i++ {
				opt := core.DefaultOptions()
				opt.Parallelism = 2
				c, err := CharacterizeFileContext(context.Background(), j.path, opt)
				if err != nil {
					t.Errorf("%s: %v", j.path, err)
					return
				}
				if got := yamlenc.Marshal(c); !bytes.Equal(got, j.want) {
					t.Errorf("%s call %d: report differs from the in-memory characterization", j.path, i)
					return
				}
			}
		}(j)
	}
	wg.Wait()
	if got := trace.ColumnsInUse(); got != inUse {
		t.Errorf("%d pooled columns still out after every request returned", got-inUse)
	}
}

// accPoison is internal/core's poisonAccs switch: while it is set, every
// pass-2 accumulator an analysis hands back to the pool is overwritten with
// values no cleared accumulator holds. Linking to it keeps the switch out of
// core's API.
//
//go:linkname accPoison vani/internal/core.poisonAccs
var accPoison atomic.Bool

// TestReportsSurviveRecycledAccumulators: hacc, cm1 and a filtered hacc,
// two requests each at once and three times over, so every analysis runs
// on pass-2 accumulators (file counters, touch lists, seen tables, stream
// and cluster scratch) that other analyses of other slot counts just handed
// back, poisoned on the way in. Every report must equal its in-memory
// characterization, when it is made and again once every request is done:
// reset clears all an analysis reads, and no report aliases a recycled
// accumulator. Run under -race -count=10 in CI: the pool is shared by
// concurrent analyses, as the column pools are.
func TestReportsSurviveRecycledAccumulators(t *testing.T) {
	dir := t.TempDir()
	type job struct {
		path string
		opt  core.Options
		want []byte
	}
	var jobs []job
	for _, w := range []struct {
		name   string
		filter trace.Filter
	}{
		{"hacc", trace.Filter{}},
		{"cm1", trace.Filter{}},
		{"hacc", trace.Filter{Ranks: []int32{0, 1, 2, 3, 4, 5, 6, 7}, Ops: trace.OpClassData}},
	} {
		tr := simulate(t, w.name, 1, 8, 0.1)
		path, _ := writeLog(t, dir, w.name, tr)
		opt := core.DefaultOptions()
		opt.Filter, opt.Parallelism = w.filter, 2
		jobs = append(jobs, job{path, opt, reference(t, tr, opt)})
	}
	accPoison.Store(true)
	defer accPoison.Store(false)
	reports := make([][]*core.Characterization, 2*len(jobs))
	var wg sync.WaitGroup
	for g := range reports {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			j := jobs[g%len(jobs)]
			for i := 0; i < 3; i++ {
				c, err := CharacterizeFileContext(context.Background(), j.path, j.opt)
				if err != nil {
					t.Errorf("%s: %v", j.path, err)
					return
				}
				if got := yamlenc.Marshal(c); !bytes.Equal(got, j.want) {
					t.Errorf("%s (filter %+v) call %d: report differs from the in-memory characterization", j.path, j.opt.Filter, i)
				}
				reports[g] = append(reports[g], c)
			}
		}(g)
	}
	wg.Wait()
	for g, cs := range reports {
		j := jobs[g%len(jobs)]
		for i, c := range cs {
			if got := yamlenc.Marshal(c); !bytes.Equal(got, j.want) {
				t.Errorf("%s (filter %+v) call %d: report changed after later analyses recycled its accumulators", j.path, j.opt.Filter, i)
			}
		}
	}
}

// expiringCtx reports cancellation from its n-th Err call on: the scan and
// the analyzer poll Err between blocks and chunks, so sweeping n lands the
// abort in every stage.
type expiringCtx struct {
	context.Context
	left atomic.Int64
}

func (c *expiringCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestErrorsReturnEveryColumn: a request that dies mid-scan — a segment
// that stops decoding in block 1, a context canceled at any poll — still
// hands back every column its chunks had adopted and every decode
// temporary; none stays out, none is leaked to the error path.
func TestErrorsReturnEveryColumn(t *testing.T) {
	tr := simulate(t, "cm1", 1, 8, 0.1)
	dir := t.TempDir()
	path, data := writeLog(t, dir, "cm1", tr)
	br, err := trace.NewBlockReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if br.NumBlocks() < 3 {
		t.Fatalf("fixture has %d blocks; the corruption wants one in the middle", br.NumBlocks())
	}
	// Block 1's size segment keeps its codec id and loses its body to 0xff:
	// whatever the codec, its first varint now overflows. The footer still
	// describes the block, so the scan reads it and pass 2 trips over it
	// after pass 1 adopted six columns of every chunk.
	bi := br.BlockAt(1)
	off := bi.Offset + 1
	_, k := binary.Uvarint(data[off:])
	off += int64(k)
	_, k = binary.Uvarint(data[off:])
	off += int64(k)
	sizeCol := 0
	for trace.ColSet(1)<<sizeCol != trace.ColSize {
		off += bi.ColLens[sizeCol]
		sizeCol++
	}
	corrupt := bytes.Clone(data)
	for i := off + 1; i < off+bi.ColLens[sizeCol]; i++ {
		corrupt[i] = 0xff
	}
	bad := filepath.Join(dir, "corrupt.trc")
	if err := os.WriteFile(bad, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	filters := []trace.Filter{{}, {Ranks: []int32{1, 2, 3}}, {Ops: trace.OpClassData, Levels: []trace.Level{trace.LevelPosix}}}
	inUse := trace.ColumnsInUse()
	for _, filter := range filters {
		opt := core.DefaultOptions()
		opt.Filter = filter
		if _, err := CharacterizeFileContext(context.Background(), bad, opt); !errors.Is(err, trace.ErrBadFormat) {
			t.Fatalf("corrupt block error = %v, want ErrBadFormat", err)
		}
		if got := trace.ColumnsInUse(); got != inUse {
			t.Fatalf("the corrupt block left %d pooled columns out", got-inUse)
		}
		canceled := 0
		for polls := int64(0); polls < 60; polls += 5 {
			ctx := &expiringCtx{Context: context.Background()}
			ctx.left.Store(polls)
			_, err := CharacterizeFileContext(ctx, path, opt)
			if err != nil && !errors.Is(err, context.Canceled) {
				t.Fatalf("canceled at poll %d: error %v", polls, err)
			}
			if err != nil {
				canceled++
			}
			if got := trace.ColumnsInUse(); got != inUse {
				t.Fatalf("a cancellation at poll %d left %d pooled columns out", polls, got-inUse)
			}
		}
		if canceled < 3 {
			t.Fatalf("only %d of the swept cancellations landed inside a request", canceled)
		}
	}
}

// TestSteadyStateAllocBudget: once one call has filled the pools, a
// characterization of a corpus-shaped trace allocates at most a budget per
// event. cm1 as the benchmark corpus runs it (32 nodes, ≈154 k events)
// allocates at most 3 B per event unfiltered, 8 under a posix data-op
// filter and 6 under a filter on ranks 0-31 (each ≈1–3; 36.6 and 32.6
// while a filtered block's kept rows were copied out fresh). Without
// recycled columns the unfiltered call is ≈75, and ≈4.6 with pass 2's
// accumulators made afresh for every analysis, so that budget fails if
// either pool silently stops working; a filtered scan's pooled selection
// scratch is pinned by colstore's TestSelectRowsAllocatesOnlyTheSelection
// instead. hacc at 32 nodes × 0.3 (1,280 file-per-process files) allocates
// at most 10 B per event, alone or after other analyses, about 3: with a
// map per file set and per worker it is ≈33, with fresh accumulators ≈40,
// and 13–16 when accumulators came back unsized by the analysis or
// stranded on another P. The collector is held off from the call that fills
// the pools to the end of the measured one, so what the test measures is
// the request's own garbage and not whether a cycle happened to empty a
// pool in between.
func TestSteadyStateAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is skewed under the race detector")
	}
	for _, arm := range []struct {
		name     string
		workload string
		scale    float64
		filter   trace.Filter
		budget   float64
	}{
		{"unfiltered", "cm1", 0.15, trace.Filter{}, 3},
		{"posix data", "cm1", 0.15, trace.Filter{Levels: []trace.Level{trace.LevelPosix}, Ops: trace.OpClassData}, 8},
		{"ranks 0-31", "cm1", 0.15, trace.Filter{Ranks: ranksUpTo(31)}, 6},
		{"hacc", "hacc", 0.3, trace.Filter{}, 10},
	} {
		t.Run(arm.name, func(t *testing.T) {
			tr := simulate(t, arm.workload, 1, 32, arm.scale)
			path, _ := writeLog(t, t.TempDir(), arm.workload, tr)
			opt := core.DefaultOptions()
			opt.Filter = arm.filter
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			if _, err := CharacterizeFileContext(context.Background(), path, opt); err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := CharacterizeFileContext(context.Background(), path, opt); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			perEvent := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(tr.Events))
			t.Logf("%d events, %.1f B/event", len(tr.Events), perEvent)
			if perEvent > arm.budget {
				t.Errorf("steady-state CharacterizeFileContext allocates %.1f B/event, budget %.0f", perEvent, arm.budget)
			}
		})
	}
}

// ranksUpTo returns the ranks 0 to hi.
func ranksUpTo(hi int32) []int32 {
	rs := make([]int32, hi+1)
	for i := range rs {
		rs[i] = int32(i)
	}
	return rs
}

// headerBytes is what a decoded trace header owns: the Trace value, its
// app, file and sample tables, their strings and the sample values.
func headerBytes(h *trace.Trace) int64 {
	n := int64(unsafe.Sizeof(*h))
	for _, a := range h.Apps {
		n += int64(unsafe.Sizeof(a)) + int64(len(a))
	}
	for i := range h.Files {
		f := &h.Files[i]
		n += int64(unsafe.Sizeof(*f)) + int64(len(f.Path)+len(f.Target)+len(f.Format)+len(f.DataType))
	}
	for i := range h.Samples {
		s := &h.Samples[i]
		n += int64(unsafe.Sizeof(*s)) + int64(len(s.Name)) + 8*int64(len(s.Values))
	}
	return n
}

// TestBlockReaderOpenAllocBudget: once a first open has filled the header
// reader's pool, opening a log allocates at most 1.5 times the bytes its
// decoded header owns. hacc at 32 nodes × 0.3 interns 1,280 files; with
// the read buffer, the string arena and the pending-string list made
// afresh for every open, it allocates about three times what the header
// holds.
func TestBlockReaderOpenAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is skewed under the race detector")
	}
	tr := simulate(t, "hacc", 1, 32, 0.3)
	_, data := writeLog(t, t.TempDir(), "hacc", tr)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	open := func() *trace.BlockReader {
		br, err := trace.NewBlockReader(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			t.Fatal(err)
		}
		return br
	}
	open()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	br := open()
	runtime.ReadMemStats(&after)
	got, owned := int64(after.TotalAlloc-before.TotalAlloc), headerBytes(br.Header())
	t.Logf("%d files, header owns %d B, open allocates %d B (%.2fx)", len(br.Header().Files), owned, got, float64(got)/float64(owned))
	if float64(got) > 1.5*float64(owned) {
		t.Errorf("NewBlockReader allocates %d B for a header owning %d B, budget 1.5x", got, owned)
	}
}
