package trace_test

import (
	"bytes"
	"context"
	"testing"
	"time"

	"vani/internal/colstore"
	"vani/internal/core"
	"vani/internal/pipeline"
	"vani/internal/trace"
	"vani/internal/yamlenc"
)

// tenantTrace builds a five-block log shaped like a small job: ranks in
// runs (so a rank filter selects from run summaries and synthesizes its
// column), two levels and four ops interleaved (so level and op filters
// narrow a keep bitmap), monotone starts (so a time window keeps interior
// blocks whole and cuts the edge ones). salt moves every value, so two
// tenants' traces share no row.
func tenantTrace(salt int) *trace.Trace {
	tr := trace.NewTracer()
	tr.SetMeta(trace.Meta{Workload: "tenant", Nodes: 4, Ranks: 16, PFSDir: "/p"})
	app := tr.AppID("solver")
	files := []int32{tr.FileID("/p/a"), tr.FileID("/p/b"), tr.FileID("/p/c")}
	ops := []trace.Op{trace.OpOpen, trace.OpWrite, trace.OpRead, trace.OpClose}
	n := 4*trace.DefaultBlockEvents + 5000
	for i := 0; i < n; i++ {
		level := trace.LevelPosix
		if i%5 == 0 {
			level = trace.LevelMiddleware
		}
		rank := int32((i/700 + salt) % 16)
		start := time.Duration(i)*time.Microsecond + time.Duration(salt)
		tr.Record(trace.Event{
			Level: level, Op: ops[(i+salt)%len(ops)], Rank: rank, Node: rank / 4,
			App: app, File: files[(i/3+salt)%len(files)],
			Offset: int64(i%4096) * 512, Size: int64(i%13+salt) * 256,
			Start: start, End: start + time.Duration(i%7+1)*100,
		})
	}
	return tr.Finish()
}

func blockLog(t *testing.T, tr *trace.Trace) *trace.BlockReader {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteV2(&buf, tr); err != nil {
		t.Fatal(err)
	}
	br, err := trace.NewBlockReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	return br
}

// TestReportsSurviveRecycledColumns is the pool's security property end to
// end. Recycled column slices are neither zeroed nor private to a trace,
// so with every returned slice poisoned: each drill-down shape — whole
// blocks, selection-backed chunks, a synthesized filter column, a window
// that mixes both — characterizes through the planned scan, releases its
// table, and does so again into the slices it just gave back, to the bytes
// of the in-memory reference that never saw a codec or a pool; a table
// that is never released reports the same; and alternating two tenants'
// traces through the same pools leaves each report its own.
func TestReportsSurviveRecycledColumns(t *testing.T) {
	trace.PoisonRecycled(true)
	defer trace.PoisonRecycled(false)
	ctx := context.Background()
	span := time.Duration(4*trace.DefaultBlockEvents+5000) * time.Microsecond
	shapes := []struct {
		name   string
		filter trace.Filter
	}{
		{"whole blocks", trace.Filter{}},
		{"rank runs, synthesized column", trace.Filter{Ranks: []int32{2, 3, 11}}},
		{"level and op bitmap", trace.Filter{Levels: []trace.Level{trace.LevelPosix}, Ops: trace.OpClassData}},
		{"window over interior and edge blocks", trace.Filter{From: span / 5, To: span * 4 / 5}},
		{"window, ranks and ops", trace.Filter{To: span / 2, Ranks: []int32{0, 1, 2, 3, 4, 5}, Ops: trace.OpClassMeta}},
	}
	tenants := []*trace.Trace{tenantTrace(0), tenantTrace(3)}
	logs := []*trace.BlockReader{blockLog(t, tenants[0]), blockLog(t, tenants[1])}
	inUse := trace.ColumnsInUse()
	for _, sh := range shapes {
		var want [2][]byte
		for i, tr := range tenants {
			opt := core.DefaultOptions()
			opt.Filter = sh.filter
			c, err := core.AnalyzeContext(ctx, tr, opt)
			if err != nil {
				t.Fatalf("%s: reference: %v", sh.name, err)
			}
			want[i] = yamlenc.Marshal(c)
		}
		if bytes.Equal(want[0], want[1]) {
			t.Fatalf("%s: the two tenants' references are identical; the test proves nothing", sh.name)
		}
		for round := 0; round < 3; round++ {
			for _, par := range []int{1, 4} {
				for i, br := range logs {
					opt := core.DefaultOptions()
					opt.Filter, opt.Parallelism = sh.filter, par
					var tm core.Timings
					opt.Stats = &tm
					c, err := pipeline.Blocks(ctx, br, opt)
					if err != nil {
						t.Fatalf("%s: %v", sh.name, err)
					}
					// Rendered after Blocks released the table: a
					// characterization aliasing a chunk would print poison.
					if got := yamlenc.Marshal(c); !bytes.Equal(got, want[i]) {
						t.Fatalf("%s round %d par %d tenant %d: report differs from the in-memory reference", sh.name, round, par, i)
					}
					if !sh.filter.Empty() && tm.Scan.RowsKept >= tm.Scan.RowsTotal {
						t.Fatalf("%s: the filter kept %d of %d rows; no chunk was selection-backed", sh.name, tm.Scan.RowsKept, tm.Scan.RowsTotal)
					}
				}
			}
		}
		if got := trace.ColumnsInUse(); got != inUse {
			t.Fatalf("%s: %d pooled columns never came back", sh.name, got-inUse)
		}
		// A table nobody releases: the same report, its columns left to the GC.
		opt := core.DefaultOptions()
		opt.Filter = sh.filter
		tb, err := colstore.FromBlocksSpecContext(ctx, logs[0], 2, colstore.ScanSpec{Filter: sh.filter}, nil)
		if err != nil {
			t.Fatal(err)
		}
		c, err := core.AnalyzeTableContext(ctx, logs[0].Header(), tb, opt)
		if err != nil {
			t.Fatal(err)
		}
		if got := yamlenc.Marshal(c); !bytes.Equal(got, want[0]) {
			t.Fatalf("%s: an unreleased table's report differs from the reference", sh.name)
		}
		inUse = trace.ColumnsInUse() // the unreleased table keeps its columns out
	}
}
