package spec

import (
	"strings"
	"testing"

	"vani/internal/trace"
)

func TestDocSet(t *testing.T) {
	doc, err := Golden("cosmoflow")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		param string
		v     int64
		want  string
	}{
		{"no_such_param", 1, "no param"},
		{"ckpt_every", 3, "is an expression"},
		{"gpu_per_file", -1, "negative"},
		{"file_size", -1, "negative"},
		{"checkpoints", 1<<40 + 1, "out of range"},
	} {
		if err := doc.Set(c.param, c.v); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Set(%s, %d) = %v, want an error saying %q", c.param, c.v, err, c.want)
		}
	}

	// A set value reaches workloads compiled afterwards: cm1's rank 0 writes
	// write_per_step in 4 KiB transfers, one step at this scale.
	doc, err = Golden("cm1")
	if err != nil {
		t.Fatal(err)
	}
	if err := doc.Set("write_per_step", 3*4096); err != nil {
		t.Fatal(err)
	}
	w := doc.Compile()
	sp := w.DefaultSpec()
	sp.Nodes, sp.RanksPerNode, sp.Scale = 2, 2, 0.01
	res, err := w.Run(sp)
	if err != nil {
		t.Fatal(err)
	}
	writes := 0
	for _, ev := range res.Trace.Events {
		if ev.Level == trace.LevelPosix && ev.Op == trace.OpWrite {
			writes++
		}
	}
	if writes != 3 {
		t.Errorf("%d POSIX writes after Set(write_per_step, 12 KiB), want 3", writes)
	}
}
