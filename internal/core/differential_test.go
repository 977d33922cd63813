package core

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"slices"
	"testing"
	"time"

	"vani/internal/colstore"
	"vani/internal/spec"
	"vani/internal/trace"
)

// plannedTable encodes the trace as v2.2 and plans a scan of it under the
// filter — the table the file and daemon paths hand the analyzer. It
// asserts the geometry the test asked for: unfiltered, one chunk per block,
// so a seam test cannot silently analyze one big chunk (colstore's
// assertGeometry holds the full rule).
func plannedTable(t *testing.T, tr *trace.Trace, vopt trace.V2Options, f trace.Filter) *colstore.Table {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteV2With(&buf, tr, vopt); err != nil {
		t.Fatal(err)
	}
	br, err := trace.NewBlockReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	tb, err := colstore.FromBlocksSpecContext(context.Background(), br, 2, colstore.ScanSpec{Filter: f}, nil)
	if err != nil {
		t.Fatal(err)
	}
	be, nb, nc := br.BlockEvents(), br.NumBlocks(), tb.NumChunks()
	if vopt.BlockEvents != 0 && be != vopt.BlockEvents {
		t.Fatalf("log written at %d events per block reads as %d", vopt.BlockEvents, be)
	}
	if f.Empty() && nc != nb {
		t.Fatalf("%d chunks from %d blocks of %d events", nc, nb, be)
	}
	return tb
}

// TestDenseScanMatchesOracle pins the production scan to the reference
// analyzer of oracle_test.go: every workload, under the drill-down filter
// set, analyzed from an eagerly built table and from a planned v2.2
// table (cost-model codecs, and forced-raw so every chunk takes the row
// bodies), at sequential and parallel settings, must produce exactly the
// oracle's characterization — figure panels included.
func TestDenseScanMatchesOracle(t *testing.T) {
	for _, w := range spec.All() {
		tr, spec := smallRun(t, w)
		end := tr.Events[len(tr.Events)-1].Start
		filters := map[string]trace.Filter{
			"none":     {},
			"window":   {From: end / 4, To: end / 2},
			"ranks":    {Ranks: []int32{0, 1, 2, 3}},
			"levels":   {Levels: []trace.Level{trace.LevelPosix}},
			"ops":      {Ops: trace.OpClassData},
			"combined": {From: end / 8, To: 3 * end / 4, Ranks: []int32{0, 2, 4, 6, 8, 10}, Ops: trace.OpClassIO},
		}
		for fname, f := range filters {
			opt := DefaultOptions()
			opt.Storage = &spec.Storage
			opt.Filter = f
			want := oracleAnalyze(tr, opt)
			check := func(arm string, got *Characterization, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("%s %s %s: %v", w.Name(), fname, arm, err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Errorf("%s %s: %s characterization differs from the oracle", w.Name(), fname, arm)
				}
			}
			for _, par := range []int{1, 4} {
				opt.Parallelism = par
				c, err := AnalyzeContext(context.Background(), tr, opt)
				check("eager", c, err)
				c, err = AnalyzeTableContext(context.Background(), tr, plannedTable(t, tr, trace.V2Options{}, f), opt)
				check("planned v2.2", c, err)
				c, err = AnalyzeTableContext(context.Background(), tr, plannedTable(t, tr, trace.V2Options{Codec: trace.CodecForceRaw}, f), opt)
				check("planned raw", c, err)
			}
		}
	}
}

// TestFileSetShapesMatchOracle: the per-file rank, node and app sets that
// stitch derives from the sorted touch list, on hand-built traces whose
// files take the shapes the workloads leave out — a writer node among
// several reader nodes, readers only on the writer's node, two writer
// nodes, a rank that only opens the file, apps that read what each other
// wrote. Each must match the oracle at every parallelism and through a
// planned table, and flag a cross-node read-after-write exactly when one
// is there.
func TestFileSetShapesMatchOracle(t *testing.T) {
	// An access is (rank, app, op); rank r runs on node r/2.
	type access struct {
		rank, app int32
		op        trace.Op
	}
	w, r, open := trace.OpWrite, trace.OpRead, trace.OpOpen
	for _, tc := range []struct {
		name     string
		accesses []access
		crossRAW bool
	}{
		{"readers on the writer's node", []access{{0, 0, w}, {1, 0, r}, {0, 0, r}}, false},
		{"writer node among reader nodes", []access{{0, 0, w}, {1, 0, r}, {2, 0, r}}, true},
		{"reader on another node", []access{{0, 0, w}, {3, 0, r}}, true},
		{"two writer nodes", []access{{0, 0, w}, {2, 0, w}, {0, 0, r}}, true},
		{"writers only", []access{{0, 0, w}, {2, 0, w}, {4, 0, open}}, false},
		{"apps read each other's output", []access{{0, 0, w}, {1, 1, r}, {1, 1, w}, {0, 0, r}, {2, 1, r}, {5, 0, open}}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := trace.NewTracer()
			apps := []int32{rec.AppID("a"), rec.AppID("b")}
			files := []int32{rec.FileID("/f"), rec.FileID("/g")}
			var now time.Duration
			for round := 0; round < 3; round++ {
				for i, ac := range tc.accesses {
					// The same pattern on both files, with the apps swapped on /g.
					for fi, f := range files {
						now += time.Microsecond
						rec.Record(trace.Event{
							Level: trace.LevelPosix, Op: ac.op, Rank: ac.rank, Node: ac.rank / 2,
							App: apps[(int(ac.app)+fi)%2], File: f, Offset: int64(round*len(tc.accesses)+i) * 4096,
							Size: 4096, Start: now, End: now + time.Microsecond,
						})
					}
				}
			}
			tr := rec.Finish()
			want := oracleAnalyze(tr, DefaultOptions())
			if want.Workflow.CrossNodeRAW != tc.crossRAW {
				t.Fatalf("oracle: cross-node read-after-write %v, want %v", want.Workflow.CrossNodeRAW, tc.crossRAW)
			}
			for _, par := range []int{1, 4} {
				opt := DefaultOptions()
				opt.Parallelism = par
				if got := Analyze(tr, opt); !reflect.DeepEqual(want, got) {
					t.Errorf("par %d: characterization differs from the oracle", par)
				}
				got, err := AnalyzeTableContext(context.Background(), tr, plannedTable(t, tr, trace.V2Options{BlockEvents: 2}, trace.Filter{}), opt)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Errorf("par %d, planned at 2 events per block: characterization differs from the oracle", par)
				}
			}
		})
	}
}

// chunkRows is one chunk's row subsets as pass 2's bodies left them in the
// worker's scratch.
type chunkRows struct{ primary, posix []rowRange }

// scanRows runs pass 2's body alone over every chunk of a table and returns
// copies of the scratch ranges it emitted.
func scanRows(t *testing.T, tr *trace.Trace, tb *colstore.Table) []chunkRows {
	t.Helper()
	opt := DefaultOptions()
	a := &analysis{ctx: context.Background(), tr: tr, tb: tb, opt: opt, par: 1}
	if err := a.pass1(); err != nil {
		t.Fatal(err)
	}
	p := a.newPass2Acc()
	out := make([]chunkRows, tb.NumChunks())
	for k := range out {
		a.scanChunk(k, p)
		out[k] = chunkRows{slices.Clone(p.primary), slices.Clone(p.posix)}
	}
	return out
}

// TestRowRanges pins the row-subset representation: a subset is a list of
// ranges that coalesce on adjacency alone. An unfiltered single-level chunk
// whose every row is primary I/O is one range however its ranks and files
// interleave; in a level-interleaved
// chunk the primary ranges break exactly at the non-member rows.
func TestRowRanges(t *testing.T) {
	// Rank and file change every keyRun rows: 1 interleaves them per row.
	build := func(n, keyRun int, level func(i int) trace.Level) *trace.Trace {
		tc := trace.NewTracer()
		app := tc.AppID("app")
		files := []int32{tc.FileID("/a"), tc.FileID("/b"), tc.FileID("/c")}
		for i := 0; i < n; i++ {
			op := trace.OpWrite
			if i%2 == 1 {
				op = trace.OpRead
			}
			start := time.Duration(i+1) * time.Microsecond
			tc.Record(trace.Event{
				Level: level(i), Op: op, Rank: int32(i / keyRun % 7), Node: int32(i / keyRun % 7 / 4),
				App: app, File: files[i/keyRun%len(files)], Offset: int64(i) * 512, Size: 512,
				Start: start, End: start + time.Microsecond,
			})
		}
		return tc.Finish()
	}
	n := colstore.ChunkRows + 1000

	t.Run("single-level", func(t *testing.T) {
		for _, keyRun := range []int{1, 600} {
			tr := build(n, keyRun, func(int) trace.Level { return trace.LevelPosix })
			for name, tb := range map[string]*colstore.Table{
				"eager":   colstore.FromEvents(tr.Events, 1),
				"planned": plannedTable(t, tr, trace.V2Options{}, trace.Filter{}),
			} {
				rows := scanRows(t, tr, tb)
				if len(rows) != 2 {
					t.Fatalf("%s: %d chunks, want 2", name, len(rows))
				}
				for k, r := range rows {
					want := []rowRange{{0, tb.ChunkAt(k).N}}
					if !reflect.DeepEqual(r.primary, want) || !reflect.DeepEqual(r.posix, want) {
						t.Errorf("keyRun=%d %s chunk %d: primary %v posix %v, want one range %v each",
							keyRun, name, k, r.primary, r.posix, want)
					}
				}
			}
		}
	})

	t.Run("level-interleaved", func(t *testing.T) {
		// Every fifth row repeats the file's I/O one level down: those rows
		// are POSIX-level but not primary (the stream's primary level is the
		// middleware's), the other four in five are primary but not POSIX.
		member := func(i int) bool { return i%5 != 4 }
		tr := build(n, 1, func(i int) trace.Level {
			if member(i) {
				return trace.LevelMiddleware
			}
			return trace.LevelPosix
		})
		for name, tb := range map[string]*colstore.Table{
			"eager":   colstore.FromEvents(tr.Events, 1),
			"planned": plannedTable(t, tr, trace.V2Options{}, trace.Filter{}),
		} {
			rows := scanRows(t, tr, tb)
			base := 0
			for k, r := range rows {
				var wantPrim, wantPosix []rowRange
				for j := 0; j < tb.ChunkAt(k).N; j++ {
					if member(base + j) {
						wantPrim = appendRange(wantPrim, j, j+1)
					} else {
						wantPosix = appendRange(wantPosix, j, j+1)
					}
				}
				base += tb.ChunkAt(k).N
				if !reflect.DeepEqual(r.primary, wantPrim) {
					t.Errorf("%s chunk %d: primary ranges do not break exactly at non-member rows", name, k)
				}
				if !reflect.DeepEqual(r.posix, wantPosix) {
					t.Errorf("%s chunk %d: posix ranges are not the single non-primary rows", name, k)
				}
				for _, pr := range r.primary {
					if pr.hi-pr.lo > 4 {
						t.Errorf("%s chunk %d: primary range %v spans a non-member row", name, k, pr)
					}
				}
			}
		}
	})
}

// craftedOutOfRange returns a small trace with one event whose File id
// points past the header's interned table.
func craftedOutOfRange(t *testing.T) *trace.Trace {
	t.Helper()
	w, err := spec.New("ior")
	if err != nil {
		t.Fatal(err)
	}
	spec := w.DefaultSpec()
	spec.Nodes, spec.RanksPerNode, spec.Scale = 1, 2, 0.001
	res, err := w.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trace
	if len(tr.Events) > 20 {
		tr.Events = tr.Events[:20]
	}
	tr.Events[len(tr.Events)/2].File = int32(len(tr.Files)) + 7
	return tr
}

// TestOutOfRangeIDsAreBadFormat: an event whose File or App id points past
// the header's interned table used to index the table directly and panic.
// The unifier compares each key column's range with its table before
// anything is sized, so every table shape returns an ErrBadFormat-wrapped
// error instead.
func TestOutOfRangeIDsAreBadFormat(t *testing.T) {
	tr := craftedOutOfRange(t)
	tables := map[string]*colstore.Table{
		"eager":       colstore.FromEvents(tr.Events, 1),
		"planned":     plannedTable(t, tr, trace.V2Options{}, trace.Filter{}),
		"planned-raw": plannedTable(t, tr, trace.V2Options{Codec: trace.CodecForceRaw}, trace.Filter{}),
	}
	for name, tb := range tables {
		if _, err := AnalyzeTableContext(context.Background(), tr, tb, DefaultOptions()); !errors.Is(err, trace.ErrBadFormat) {
			t.Errorf("%s: file id past the table: err = %v, want ErrBadFormat", name, err)
		}
	}
	if _, err := AnalyzeContext(context.Background(), tr, DefaultOptions()); !errors.Is(err, trace.ErrBadFormat) {
		t.Errorf("AnalyzeContext: err = %v, want ErrBadFormat", err)
	}

	bad := craftedOutOfRange(t)
	mid := len(bad.Events) / 2
	bad.Events[mid].File = 0
	bad.Events[mid].App = int32(len(bad.Apps)) + 3
	if _, err := AnalyzeContext(context.Background(), bad, DefaultOptions()); !errors.Is(err, trace.ErrBadFormat) {
		t.Errorf("app id past the table: err = %v, want ErrBadFormat", err)
	}
	bad.Events[mid].App = 0
	bad.Events[mid].File = -2
	if _, err := AnalyzeContext(context.Background(), bad, DefaultOptions()); !errors.Is(err, trace.ErrBadFormat) {
		t.Errorf("file id below -1: err = %v, want ErrBadFormat", err)
	}
}
