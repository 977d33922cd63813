package spec

import (
	"testing"

	"vani/internal/cluster"
	"vani/internal/sim"
	"vani/internal/workloads"
)

// TestRenderRepeatAllocatesNothing: rendering a template whose value has
// not changed — a literal, a zero-padded rank, a machine dir, a spec dir
// resolved through its optimized variant — reuses the renderer's buffer
// and returns the string it returned last time.
func TestRenderRepeatAllocatesNothing(t *testing.T) {
	doc, err := Parse([]byte(`version: 1
name: render
app: r
dirs:
  ckpt:
    path: "@pfs/ckpt"
    optimized: "@bb/ckpt/${rank % 4}"
run:
  - stat:
      path: /p/gpfs1/r/config
  - stat:
      path: /p/gpfs1/r/out.${rank:05}
  - stat:
      path: "@pfs/r/${rank:05}.bin"
  - stat:
      path: "@ckpt/part.${rank:05}"
`))
	if err != nil {
		t.Fatal(err)
	}
	sp := workloads.DefaultSpec()
	sp.Machine, sp.Optimized = cluster.Cori(), true
	r := renderer{c: doc.Compile().(*compiled), spec: &sp}
	look := func(id string) (int64, bool) { return 7, id == "rank" }
	for _, o := range doc.run {
		first := r.render(o.path, look)
		if allocs := testing.AllocsPerRun(100, func() { r.render(o.path, look) }); allocs != 0 {
			t.Errorf("%s: %v allocations per repeated render, want 0", o.path.src, allocs)
		}
		if again := r.render(o.path, look); again != first {
			t.Errorf("%s: rendered %q, then %q", o.path.src, first, again)
		}
	}
	if got := r.render(doc.run[3].path, look); got != "/var/opt/cray/dws/ckpt/3/part.00007" {
		t.Errorf("optimized @ckpt on Cori rendered %q", got)
	}
	sp.Machine = cluster.Lassen() // no shared burst buffer: @ckpt falls back to path
	if got := r.render(doc.run[3].path, look); got != "/p/gpfs1/ckpt/part.00007" {
		t.Errorf("optimized @ckpt on Lassen rendered %q", got)
	}
}

// TestAppendPaddedMatchesFmt: the renderer's zero padding is fmt's %0*d.
func TestAppendPaddedMatchesFmt(t *testing.T) {
	for _, c := range []struct {
		v    int64
		pad  int
		want string
	}{
		{7, 5, "00007"}, {12345, 5, "12345"}, {123456, 5, "123456"}, {0, 3, "000"},
		{-42, 5, "-0042"}, {-42, 2, "-42"}, {5, 0, "5"}, {-9223372036854775808, 0, "-9223372036854775808"},
	} {
		if got := string(appendPadded(nil, c.v, c.pad)); got != c.want {
			t.Errorf("appendPadded(%d, %d) = %q, want %q", c.v, c.pad, got, c.want)
		}
	}
}

// openClose is a Go workload that opens and closes one file n times per
// rank through the interface layer directly: the allocation floor an
// interpreted open/close pair is measured against.
type openClose struct{ n int }

func (w openClose) Name() string                { return "open-close" }
func (w openClose) AppName() string             { return "oc" }
func (w openClose) DefaultSpec() workloads.Spec { return workloads.DefaultSpec() }
func (w openClose) Setup(*workloads.Env)        {}
func (w openClose) Spawn(env *workloads.Env) {
	cl := env.Client("oc", 0)
	env.E.Spawn("open-close", func(p *sim.Proc) {
		path := "/p/gpfs1/oc/f"
		for i := 0; i < w.n; i++ {
			f, err := cl.PosixOpen(p, path, i == 0)
			if err != nil {
				panic(err)
			}
			if err := f.Close(p); err != nil {
				panic(err)
			}
		}
	})
}

// TestReopenAllocatesNoHandle: an interpreted open/close pair allocates no
// more than the same pair called straight on the interface layer, so the
// rank's handle slots and its rendered path are reused, not rebuilt.
func TestReopenAllocatesNoHandle(t *testing.T) {
	doc, err := Parse([]byte(`version: 1
name: open-close
app: oc
params:
  n:
    count: 1
run:
  - open:
      iface: posix
      path: /p/gpfs1/oc/f
      create: true
  - close: {}
  - loop:
      var: i
      from: 1
      until: n
      do:
        - open:
            iface: posix
            path: /p/gpfs1/oc/f
        - close: {}
`))
	if err != nil {
		t.Fatal(err)
	}
	sp := workloads.DefaultSpec()
	sp.Nodes, sp.RanksPerNode, sp.TraceEnabled = 1, 1, false
	perPair := func(w func(n int) workloads.Workload) float64 {
		run := func(n int) float64 {
			return testing.AllocsPerRun(5, func() {
				if _, err := workloads.Run(w(n), sp); err != nil {
					t.Fatal(err)
				}
			})
		}
		return (run(2000) - run(1000)) / 1000
	}
	direct := perPair(func(n int) workloads.Workload { return openClose{n} })
	interp := perPair(func(n int) workloads.Workload {
		if err := doc.Set("n", int64(n)); err != nil {
			t.Fatal(err)
		}
		return doc.Compile()
	})
	t.Logf("allocations per open/close pair: %.3f interpreted, %.3f direct", interp, direct)
	if interp > direct+0.01 {
		t.Errorf("an interpreted open/close pair allocates %.3f times, the interface layer alone %.3f", interp, direct)
	}
}
