package spec

import (
	"testing"
	"time"

	"vani/internal/trace"
	"vani/internal/workloads"
)

// runTasks runs a tasks block on nodes x rpn slots and returns the run's
// compute events by task rank, and its runtime.
func runTasks(t *testing.T, tasks string, nodes, rpn int) (map[int32]trace.Event, *workloads.Result) {
	t.Helper()
	doc, err := Parse([]byte("version: 1\nname: dag\napp: dag\nparams:\n  unit:\n    time: 1s\ntasks:\n" + tasks))
	if err != nil {
		t.Fatal(err)
	}
	w := doc.Compile()
	sp := w.DefaultSpec()
	sp.Nodes, sp.RanksPerNode = nodes, rpn
	res, err := w.Run(sp)
	if err != nil {
		t.Fatal(err)
	}
	byRank := map[int32]trace.Event{}
	for _, ev := range res.Trace.Events {
		if ev.Op == trace.OpCompute {
			byRank[ev.Rank] = ev
		}
	}
	return byRank, res
}

// stageDoc is a stage computing for secs seconds (an expression), with
// extra lines (count, var, after) before its body.
func stageDoc(name, extra, secs string) string {
	return "  - stage: " + name + "\n" + extra + "    do:\n      - compute:\n          time: (" + secs + ") * unit\n"
}

func TestTasksChainRunsInOrder(t *testing.T) {
	ev, res := runTasks(t, stageDoc("a", "", "1")+
		stageDoc("b", "    after:\n      - stage: a\n", "1")+
		stageDoc("c", "    after:\n      - stage: b\n", "1"), 1, 4)
	if res.Runtime != 3*time.Second {
		t.Errorf("chain finished at %v, want 3s", res.Runtime)
	}
	for rank, app := range []string{"a", "b", "c"} {
		e := ev[int32(rank)]
		if got := res.Trace.AppName(e.App); got != app || e.Start != time.Duration(rank)*time.Second {
			t.Errorf("rank %d: app %s started at %v, want %s at %ds", rank, got, e.Start, app, rank)
		}
	}
}

func TestTasksFanOutRunsInParallel(t *testing.T) {
	ev, res := runTasks(t, stageDoc("src", "", "1")+
		stageDoc("w", "    count: 4\n    after:\n      - stage: src\n", "2")+
		stageDoc("sink", "    after:\n      - stage: w\n", "1"), 2, 4)
	if res.Runtime != 4*time.Second { // 1 + 2 (four at once) + 1
		t.Errorf("fan-out finished at %v, want 4s", res.Runtime)
	}
	for rank := int32(1); rank <= 4; rank++ {
		if ev[rank].Start != time.Second {
			t.Errorf("w rank %d started at %v, want 1s", rank, ev[rank].Start)
		}
	}
	if ev[5].Start != 3*time.Second {
		t.Errorf("sink started at %v, want 3s", ev[5].Start)
	}
}

func TestTasksSlotLimitThrottles(t *testing.T) {
	_, res := runTasks(t, stageDoc("t", "    count: 4\n", "1"), 1, 2)
	if res.Runtime != 2*time.Second { // 4 tasks, 2 slots, 1s each
		t.Errorf("throttled run finished at %v, want 2s", res.Runtime)
	}
}

// TestTasksSlotPool: one slot per node (rpn 1), so a task's node is its
// slot. Slots start out lowest first; a waiter takes the slot released
// first, not the lowest; and released slots with no waiter are handed out
// again in the order they came back.
func TestTasksSlotPool(t *testing.T) {
	ev, res := runTasks(t, stageDoc("t", "    count: 4\n    var: i\n", "i == 0 ? 2 : 1")+
		stageDoc("u", "    count: 2\n    after:\n      - stage: t\n", "1"), 2, 1)
	for _, c := range []struct {
		rank, node int32
		start      time.Duration
	}{
		{0, 0, 0}, {1, 1, 0}, // the initial slots, lowest first
		{2, 1, time.Second},     // t1 releases slot 1 before t0 releases 0
		{3, 0, 2 * time.Second}, // t0's slot, to the next waiter
		{4, 1, 3 * time.Second}, // t2 returned slot 1 to the free list before t3 returned 0
		{5, 0, 3 * time.Second},
	} {
		if e := ev[c.rank]; e.Node != c.node || e.Start != c.start {
			t.Errorf("rank %d on node %d at %v, want node %d at %v", c.rank, e.Node, e.Start, c.node, c.start)
		}
	}
	if res.Runtime != 4*time.Second {
		t.Errorf("finished at %v, want 4s", res.Runtime)
	}
}

func TestTasksDiamond(t *testing.T) {
	ev, res := runTasks(t, stageDoc("top", "", "1")+
		stageDoc("left", "    after:\n      - stage: top\n", "1")+
		stageDoc("right", "    after:\n      - stage: top\n", "2")+
		stageDoc("bottom", "    after:\n      - stage: left\n      - stage: right\n", "1"), 1, 4)
	if res.Runtime != 4*time.Second {
		t.Errorf("diamond finished at %v, want 4s", res.Runtime)
	}
	if ev[3].Start != 3*time.Second {
		t.Errorf("bottom started at %v, want 3s (after the slower parent)", ev[3].Start)
	}
}

// TestTasksThenAndRanges: a then-stage's instance is numbered right after
// its parent's and runs after it, only where its when holds; a whole-stage
// dependency on it waits for the instances that run, and index and range
// entries name single instances and half-open runs of them.
func TestTasksThenAndRanges(t *testing.T) {
	ev, res := runTasks(t, "  - stage: p\n    count: 3\n    var: j\n    do:\n      - compute:\n          time: (j + 1) * unit\n"+
		"    then:\n      - stage: q\n        when: j != 1\n        do:\n          - compute:\n              time: unit\n"+
		stageDoc("all", "    after:\n      - stage: q\n", "1")+
		stageDoc("one", "    after:\n      - stage: p\n        index: 1\n", "1")+
		stageDoc("run", "    after:\n      - stage: p\n        from: 0\n        until: 2\n", "1"), 1, 8)
	for _, c := range []struct {
		rank  int32
		app   string
		start time.Duration
	}{
		{0, "p", 0}, {1, "q", time.Second}, {2, "p", 0}, {3, "p", 0}, {4, "q", 3 * time.Second},
		{5, "all", 4 * time.Second}, {6, "one", 2 * time.Second}, {7, "run", 2 * time.Second},
	} {
		e, ok := ev[c.rank]
		if got := res.Trace.AppName(e.App); !ok || got != c.app || e.Start != c.start {
			t.Errorf("rank %d: %s at %v, want %s at %v", c.rank, got, e.Start, c.app, c.start)
		}
	}
	if len(ev) != 8 {
		t.Errorf("%d tasks ran, want 8 (q[1]'s when is false)", len(ev))
	}
}
