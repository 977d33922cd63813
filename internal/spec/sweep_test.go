package spec

import (
	"errors"
	"strings"
	"testing"

	"vani/internal/workloads"
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

func TestParseSweep(t *testing.T) {
	sw, err := ParseSweep([]byte(tinySweep))
	if err != nil {
		t.Fatal(err)
	}
	if sw.Name != "tiny" || sw.WorkloadName() != "cosmoflow" {
		t.Errorf("got name %q workload %q", sw.Name, sw.WorkloadName())
	}
	if sw.NumPoints() != 4 {
		t.Errorf("NumPoints = %d, want 4", sw.NumPoints())
	}
	if sw.Base.Nodes != 2 || sw.Base.RanksPerNode != 2 || sw.Base.Scale != 0.01 || sw.Base.Seed != 3 {
		t.Errorf("base = %+v", sw.Base)
	}
	// First axis slowest: point 2 is staging=node-local, cache=true.
	got := sw.Settings(2)
	if got[0].Value != "node-local" || got[1].Value != "true" {
		t.Errorf("point 2 settings = %v", got)
	}
}

func TestParseSweepErrors(t *testing.T) {
	cases := []struct{ name, doc string }{
		{"bad version", "version: 2\nname: x\ngrid:\n  - param: cache\n    values:\n      - true\nworkload: cm1"},
		{"missing grid", "version: 1\nname: x\nworkload: cm1"},
		{"unknown axis", "version: 1\nname: x\ngrid:\n  - param: bogus\n    values:\n      - 1\nworkload: cm1"},
		{"duplicate axis", "version: 1\nname: x\ngrid:\n  - param: cache\n    values:\n      - true\n  - param: cache\n    values:\n      - false\nworkload: cm1"},
		{"empty values", "version: 1\nname: x\ngrid:\n  - param: cache\n    values: []\nworkload: cm1"},
		{"bad staging value", "version: 1\nname: x\ngrid:\n  - param: staging\n    values:\n      - tape\nworkload: cm1"},
		{"negative size", "version: 1\nname: x\ngrid:\n  - param: stripe_size\n    values:\n      - 0 - 4KiB\nworkload: cm1"},
		{"bad scale", "version: 1\nname: x\nbase:\n  scale: 1.5\ngrid:\n  - param: cache\n    values:\n      - true\nworkload: cm1"},
		{"bad workload type", "version: 1\nname: x\ngrid:\n  - param: cache\n    values:\n      - true\nworkload: 7"},
		{"bad inline workload", "version: 1\nname: x\ngrid:\n  - param: cache\n    values:\n      - true\nworkload:\n  version: 1"},
		{"unknown key", "version: 1\nname: x\nbogus: 1\ngrid:\n  - param: cache\n    values:\n      - true\nworkload: cm1"},
	}
	for _, c := range cases {
		if _, err := ParseSweep([]byte(c.doc)); !errors.Is(err, ErrBadSpec) {
			t.Errorf("%s: err = %v, want ErrBadSpec", c.name, err)
		}
	}
}

func TestParseSweepTooManyPoints(t *testing.T) {
	var b strings.Builder
	b.WriteString("version: 1\nname: x\ngrid:\n")
	// 3 axes x 16 values = 4096 points > 256.
	for _, p := range []string{"stripe_size", "stdio_buffer", "readahead"} {
		b.WriteString("  - param: " + p + "\n    values:\n")
		for i := 1; i <= 16; i++ {
			b.WriteString("      - " + strings.Repeat("1", i) + "KiB\n")
		}
	}
	b.WriteString("workload: cm1\n")
	if _, err := ParseSweep([]byte(b.String())); !errors.Is(err, ErrBadSpec) {
		t.Errorf("err = %v, want ErrBadSpec", err)
	}
}

// TestSweepAxisApplication checks that the base and each axis reach the
// right field of the run spec a point configures.
func TestSweepAxisApplication(t *testing.T) {
	sw, err := ParseSweep([]byte(`
version: 1
name: axes
base:
  nodes: 2
  scale: 0.01
grid:
  - param: stripe_size
    values:
      - 2MiB
  - param: stdio_buffer
    values:
      - 64KiB
  - param: readahead
    values:
      - 0
  - param: hdf5_chunked
    values:
      - true
  - param: relaxed_consistency
    values:
      - true
  - param: write_compression
    values:
      - true
workload: cm1
`))
	if err != nil {
		t.Fatal(err)
	}
	sp := workloads.DefaultSpec()
	sw.Apply(0, &sp)
	if sp.Nodes != 2 || sp.Scale != 0.01 {
		t.Errorf("base did not reach the run spec: %d nodes, scale %v", sp.Nodes, sp.Scale)
	}
	if sp.Storage.PFSStripeSize != 2<<20 || sp.Iface.StdioBufSize != 64<<10 ||
		sp.Storage.ReadAhead != 0 || !sp.Iface.HDF5Chunked ||
		!sp.Storage.RelaxedConsistency || !sp.Iface.CompressionEnabled {
		t.Errorf("axis values did not reach the run spec: %+v %+v", sp.Storage, sp.Iface)
	}
}
