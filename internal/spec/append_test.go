package spec

import (
	"fmt"
	"slices"
	"testing"

	"vani/internal/trace"
)

// TestAppendUsesTheNodesOwnFile: a pwrite with append starts at the size of
// the file its rank has open, as the rank's node sees it. On a node-local
// file every node has a file of its own: the rank on node k appends k+1
// times to its node's out.bin, and writes at 0, 4 KiB, …, k·4 KiB — not at
// node 0's size.
func TestAppendUsesTheNodesOwnFile(t *testing.T) {
	doc, err := Parse([]byte(`version: 1
name: append-local
app: al
run:
  - open:
      iface: posix
      path: /dev/shm/al/out.bin
      create: true
  - loop:
      var: k
      count: node + 1
      do:
        - pwrite:
            append: true
            total: 4KiB
  - close: {}
`))
	if err != nil {
		t.Fatal(err)
	}
	w := doc.Compile()
	sp := w.DefaultSpec()
	sp.Nodes, sp.RanksPerNode = 3, 1
	res, err := w.Run(sp)
	if err != nil {
		t.Fatal(err)
	}
	offsets := map[int32][]int64{}
	for _, ev := range res.Trace.Events {
		if ev.Level == trace.LevelPosix && ev.Op == trace.OpWrite {
			offsets[ev.Node] = append(offsets[ev.Node], ev.Offset)
		}
	}
	for node := int32(0); node < 3; node++ {
		var want []int64
		for k := int64(0); k <= int64(node); k++ {
			want = append(want, k*4096)
		}
		got := offsets[node]
		slices.Sort(got)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("node %d appended at %v, want %v", node, got, want)
		}
	}
}
