package sweep

import (
	"bytes"
	"strings"
	"testing"

	"vani/internal/spec"
	"vani/internal/yamlenc"
)

const tinySweep = `
version: 1
name: tiny
base:
  nodes: 2
  ranks_per_node: 2
  scale: 0.01
  seed: 3
grid:
  - param: staging
    values:
      - pfs
      - node-local
  - param: cache
    values:
      - true
      - false
workload: cosmoflow
`

// TestSweepRunDeterministic pins the sweep contract: the report is a pure
// function of the sweep document — parallelism must not change a byte,
// and the winner improves on the baseline.
func TestSweepRunDeterministic(t *testing.T) {
	var reports [][]byte
	for _, par := range []int{1, 4} {
		sw, err := Parse([]byte(tinySweep))
		if err != nil {
			t.Fatal(err)
		}
		var calls int
		rep, err := sw.Run(Options{
			Parallelism: par,
			OnPoint:     func(done, total int) { calls++ },
		})
		if err != nil {
			t.Fatal(err)
		}
		if calls != 4 {
			t.Errorf("par=%d: OnPoint fired %d times, want 4", par, calls)
		}
		if len(rep.Points) != 4 {
			t.Fatalf("par=%d: %d points, want 4", par, len(rep.Points))
		}
		if rep.Nodes != 2 || rep.RanksPerNode != 2 || rep.Seed != 3 {
			t.Errorf("par=%d: report header %+v", par, rep)
		}
		if rep.Winner.IOTime > rep.Points[0].IOTime {
			t.Errorf("par=%d: winner I/O %s exceeds baseline %s", par, rep.Winner.IOTime, rep.Points[0].IOTime)
		}
		if len(rep.StripeTrials) == 0 {
			t.Errorf("par=%d: no stripe trials", par)
		}
		reports = append(reports, yamlenc.Marshal(rep))
	}
	if !bytes.Equal(reports[0], reports[1]) {
		t.Error("report YAML differs across Parallelism settings")
	}
}

func TestSweepInlineWorkload(t *testing.T) {
	golden, err := spec.GoldenBytes("cm1")
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString("version: 1\nname: inline\nbase:\n  nodes: 2\n  scale: 0.01\ngrid:\n  - param: cache\n    values:\n      - true\nworkload:\n")
	for _, line := range strings.Split(strings.TrimRight(string(golden), "\n"), "\n") {
		b.WriteString("  " + line + "\n")
	}
	sw, err := Parse([]byte(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if sw.WorkloadName() != "cm1" {
		t.Errorf("WorkloadName = %q, want cm1", sw.WorkloadName())
	}
	if _, err := sw.Run(Options{}); err != nil {
		t.Fatal(err)
	}
}
