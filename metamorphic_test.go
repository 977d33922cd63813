package vani

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"vani/internal/core"
	"vani/internal/spec"
	"vani/internal/trace"
	"vani/internal/yamlenc"
)

// TestRankRelabelingWithinNodes is a metamorphic relation: permuting the
// ranks of each node among themselves, in every event and with the event
// order kept, changes no count, byte, set size or classification of the
// characterization. Only the per-rank bandwidth panel names other ranks,
// and it equals the original's with its ranks mapped through the
// permutation. The relation needs no second analyzer, so it cannot share a
// bug with one; it exercises every per-file rank, node and app set. Each
// of the seven workloads is checked in memory (core.Analyze) and through
// an encoded log (CharacterizeFileContext).
func TestRankRelabelingWithinNodes(t *testing.T) {
	for _, name := range spec.Names() {
		t.Run(name, func(t *testing.T) {
			w, err := spec.New(name)
			if err != nil {
				t.Fatal(err)
			}
			sp := w.DefaultSpec()
			sp.Nodes, sp.Scale, sp.Seed = 4, 0.05, 1
			// ior runs one rank per node: give each node ranks to permute.
			sp.RanksPerNode = max(sp.RanksPerNode, 4)
			res, err := w.Run(sp)
			if err != nil {
				t.Fatal(err)
			}
			tr := res.Trace
			relabeled, perm := relabelRanksWithinNodes(tr, rand.New(rand.NewSource(7)))
			moved := 0
			for r, p := range perm {
				if r != p {
					moved++
				}
			}
			if moved == 0 {
				t.Fatal("the permutation moves no rank")
			}
			opt := core.DefaultOptions()
			opt.Parallelism = 2
			checkRelabeled(t, "in memory", core.Analyze(tr, opt), core.Analyze(relabeled, opt), perm)

			dir := t.TempDir()
			path, _ := writeLog(t, dir, name, tr)
			relPath, _ := writeLog(t, dir, name+"-relabeled", relabeled)
			want, err := CharacterizeFileContext(context.Background(), path, opt)
			if err != nil {
				t.Fatal(err)
			}
			got, err := CharacterizeFileContext(context.Background(), relPath, opt)
			if err != nil {
				t.Fatal(err)
			}
			checkRelabeled(t, "through a log", want, got, perm)
		})
	}
}

// relabelRanksWithinNodes returns a copy of tr whose events carry permuted
// ranks, each rank sent to a rank of its own node, and the permutation. A
// rank that appears on more than one node, and rank -1, keep their label.
func relabelRanksWithinNodes(tr *trace.Trace, rng *rand.Rand) (*trace.Trace, map[int32]int32) {
	nodeOf := map[int32]int32{}
	for i := range tr.Events {
		e := &tr.Events[i]
		if n, ok := nodeOf[e.Rank]; ok && n != e.Node {
			nodeOf[e.Rank] = -1 // on several nodes
		} else if !ok {
			nodeOf[e.Rank] = e.Node
		}
	}
	byNode := map[int32][]int32{}
	perm := map[int32]int32{}
	for r, n := range nodeOf {
		perm[r] = r
		if r >= 0 && n >= 0 {
			byNode[n] = append(byNode[n], r)
		}
	}
	nodes := make([]int32, 0, len(byNode))
	for n := range byNode {
		nodes = append(nodes, n)
	}
	slices.Sort(nodes)
	for _, n := range nodes {
		ranks := byNode[n]
		slices.Sort(ranks)
		to := slices.Clone(ranks)
		rng.Shuffle(len(to), func(i, j int) { to[i], to[j] = to[j], to[i] })
		for i, r := range ranks {
			perm[r] = to[i]
		}
	}
	out := *tr
	out.Events = slices.Clone(tr.Events)
	for i := range out.Events {
		out.Events[i].Rank = perm[out.Events[i].Rank]
	}
	return &out, perm
}

// checkRelabeled requires got, the characterization of the relabeled
// trace, to equal want in every field, the per-rank bandwidth panel after
// want's ranks are mapped through perm.
func checkRelabeled(t *testing.T, how string, want, got *core.Characterization, perm map[int32]int32) {
	t.Helper()
	mapped := slices.Clone(want.Figure.RankBW)
	for i := range mapped {
		mapped[i].Rank = perm[mapped[i].Rank]
	}
	slices.SortFunc(mapped, func(x, y core.RankBandwidth) int { return int(x.Rank - y.Rank) })
	if !reflect.DeepEqual(got.Figure.RankBW, mapped) {
		t.Errorf("%s: per-rank bandwidth is not the original's relabeled", how)
	}
	w, g := *want, *got
	w.Figure.RankBW, g.Figure.RankBW = nil, nil
	if !reflect.DeepEqual(w, g) {
		t.Errorf("%s: relabeling ranks within nodes changed the characterization:\n%s", how, firstDiff(&w, &g))
	}
}

// firstDiff names the first line where the two reports' YAML differs.
func firstDiff(a, b *core.Characterization) string {
	al, bl := bytes.Split(yamlenc.Marshal(a), []byte("\n")), bytes.Split(yamlenc.Marshal(b), []byte("\n"))
	for i := 0; i < min(len(al), len(bl)); i++ {
		if !bytes.Equal(al[i], bl[i]) {
			return fmt.Sprintf("line %d: %s | %s", i+1, al[i], bl[i])
		}
	}
	return "the YAML is equal: a field it does not print differs"
}
