package vani

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestCustomWorkloadTrace pins examples/custom-workload/pic-sim.yaml to the
// traces of the Go program it replaced: the same events, byte for byte, in
// the on-disk format. The hashes were taken from that program — Lassen
// defaults with a 4 h limit, 20 steps, a checkpoint every 5, 30 s of
// compute per step — so they cannot share a bug with the interpreter.
func TestCustomWorkloadTrace(t *testing.T) {
	for _, c := range []struct {
		nodes, rpn int
		ckptBytes  int64
		seed       int64
		events     int
		sha256     string
	}{
		{4, 4, 4 << 20, 1, 2260, "89efc552fbb65c64a65883e734d5f39d73357d79955165dc58ce13af5962e099"},
		{4, 4, 4 << 20, 2, 2260, "e40a653f4bcc6367aaca2b8e0e6e74168a57842dd04f04b76da6f513b1678bf4"},
		{8, 16, 64 << 20, 1, 112276, "382f5aaed3ee7b68c85fca6366d947186e9c97b41d5ef3469e59be327a3da4ce"},
		{8, 16, 64 << 20, 2, 112276, "db85753991f7cc9d0a5d48c3808f7d59aa6f4da0140159d8be364857eab09e8c"},
	} {
		if testing.Short() && c.nodes > 4 {
			continue
		}
		doc, err := ParseSpecFile("examples/custom-workload/pic-sim.yaml")
		if err != nil {
			t.Fatal(err)
		}
		if err := doc.Set("ckpt_bytes", c.ckptBytes); err != nil {
			t.Fatal(err)
		}
		w := doc.Compile()
		sp := w.DefaultSpec()
		sp.Nodes, sp.RanksPerNode, sp.Scale, sp.Seed = c.nodes, c.rpn, 1, c.seed
		res, err := Run(w, sp)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteTrace(&buf, res.Trace); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if n, got := len(res.Trace.Events), hex.EncodeToString(sum[:]); n != c.events || got != c.sha256 {
			t.Errorf("%d×%d, %d MiB, seed %d: %d events, sha256 %s; want %d, %s",
				c.nodes, c.rpn, c.ckptBytes>>20, c.seed, n, got, c.events, c.sha256)
		}
	}
}
