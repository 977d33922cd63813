package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"vani"
)

// The same seed deals the same op sequence, and every round holds exactly
// the mix.
func TestScheduleDeterministic(t *testing.T) {
	deal := func(seed int64, rounds int) [][]serveOp {
		w := &serveWL{rng: rand.New(rand.NewSource(seed))}
		var out [][]serveOp
		for i := 0; i < rounds; i++ {
			out = append(out, w.schedule())
		}
		return out
	}
	a, b := deal(1, 3), deal(1, 3)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("seed 1 dealt two different schedules")
	}
	if reflect.DeepEqual(a, deal(2, 3)) {
		t.Error("seeds 1 and 2 dealt the same schedule")
	}
	if reflect.DeepEqual(a[0], a[1]) {
		t.Error("rounds 0 and 1 are the same shuffle")
	}

	seen := map[string]map[int]bool{"requery": {}, "miss": {}}
	for r, ops := range a {
		counts := map[string]int{}
		for _, op := range ops {
			counts[op.class]++
			if idx, ok := seen[op.class]; ok {
				if idx[op.n] {
					t.Errorf("round %d reuses %s index %d: not a never-seen input", r, op.class, op.n)
				}
				idx[op.n] = true
			}
		}
		want := map[string]int{"compact": 1}
		total := 1
		for _, m := range serveMix {
			want[m.class] = m.n
			total += m.n
		}
		if !reflect.DeepEqual(counts, want) {
			t.Errorf("round %d class counts = %v, want %v", r, counts, want)
		}
		if ops[(total-1)/2].class != "compact" {
			t.Errorf("round %d: compaction is not in the middle", r)
		}
	}
}

func TestFilterBuilders(t *testing.T) {
	const T = 80 * time.Second
	byName := map[string]vani.TraceFilter{}
	for _, fs := range drillDownFilters(T) {
		f, err := fs.filter()
		if err != nil {
			t.Fatalf("%s: %v", fs.name, err)
		}
		if f.Empty() {
			t.Errorf("%s filters nothing", fs.name)
		}
		byName[fs.name] = f
	}
	if f := byName["win25"]; f.From != T/4 || f.To != T/2 {
		t.Errorf("win25 window = [%v, %v)", f.From, f.To)
	}
	if f := byName["multi"]; f.From != 0 || f.To != T/2 || f.Ops != vani.OpClassMeta || len(f.Ranks) != 320 {
		t.Errorf("multi = %+v", f)
	}
	if f := byName["posix-data"]; f.Ops != vani.OpClassData || len(f.Levels) != 1 {
		t.Errorf("posix-data = %+v", f)
	}
	if len(byName) != 4 {
		t.Errorf("want 4 drill-down filters, have %d", len(byName))
	}

	// Re-query filters never repeat, parse, and survive the trip through
	// the query string vanid parses.
	seen := map[string]bool{}
	for i := 0; i < 500; i++ {
		fs := requeryFilter(i, T)
		if _, err := fs.filter(); err != nil {
			t.Fatalf("requery %d: %v", i, err)
		}
		q := fs.query()
		if seen[q] {
			t.Fatalf("requery %d repeats filter %s", i, q)
		}
		seen[q] = true
		if !strings.Contains(q, "window=") {
			t.Errorf("requery %d has no window: %s", i, q)
		}
	}
}

// BENCHMARK.json declares what metrics.go declares.
func TestBenchmarkJSONMatchesDeclarations(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Paths, []string{"bench"}) {
		t.Errorf("paths = %v", doc.Paths)
	}
	if len(doc.Workloads) != len(workloadDefs) {
		t.Fatalf("%d workloads declared, want %d", len(doc.Workloads), len(workloadDefs))
	}
	for i, w := range workloadDefs {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d = %+v, want %+v", i, doc.Workloads[i], w)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics declared, want %d", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better {
				t.Errorf("%s metric %d = %+v, want %+v", kind, i, g, m)
			}
			if bounded && (g.Bound == nil || *g.Bound != m.Bound) {
				t.Errorf("%s: bound of %s differs from %v", kind, m.Name, m.Bound)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s: %s carries a bound", kind, m.Name)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer, false)
}

// Every workload runs at toy scale, one round, untraced and traced, with
// its checks on: an API change that breaks the harness fails here. Under
// -short only the untraced runs are made, which keeps -race near ten
// seconds.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			if traced && testing.Short() {
				continue
			}
			t.Run(fmt.Sprintf("%s/traced=%v", name, traced), func(t *testing.T) {
				t.Parallel()
				cfg := config{
					workload: name, seed: 1, seconds: 0.001, trace: traced, traceOut: t.TempDir(),
					setups: 1, warm: 0, minOps: 1, size: toy,
				}
				res, err := runWorkload(context.Background(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Errorf("correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
				}
				want := endToEnd
				if traced {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics reported, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					v, ok := res.Metrics[m.Name]
					if !ok || v.Unit != m.Unit {
						t.Errorf("metric %s missing or in unit %q", m.Name, v.Unit)
					}
					if !traced && v.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, must never be 0", m.Name, v.Value)
					}
				}
			})
		}
	}
}
