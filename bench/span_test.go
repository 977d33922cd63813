package main

import (
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	const u = time.Millisecond
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100 * u},
		// sequential children
		{ID: 2, Parent: 1, Name: "a", Start: 10 * u, End: 30 * u},
		{ID: 3, Parent: 1, Name: "b", Start: 30 * u, End: 60 * u},
		// nested: a grandchild shortens its parent, not the root
		{ID: 4, Parent: 3, Name: "b.inner", Start: 35 * u, End: 45 * u},
		// a second root whose children overlap each other and stick out
		{ID: 5, Name: "op", Start: 200 * u, End: 300 * u},
		{ID: 6, Parent: 5, Name: "c", Start: 210 * u, End: 250 * u},
		{ID: 7, Parent: 5, Name: "c", Start: 230 * u, End: 270 * u}, // overlaps 6 by 20
		{ID: 8, Parent: 5, Name: "c", Start: 290 * u, End: 320 * u}, // sticks out by 20
		{ID: 9, Parent: 5, Name: "c", Start: 240 * u, End: 245 * u}, // wholly inside 6 and 7
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{
		1: 50 * u, // 100 - 20 - 30
		2: 20 * u,
		3: 20 * u, // 30 - 10
		4: 10 * u,
		5: 30 * u, // 100 - union[210,270] - [290,300]
		6: 40 * u,
		8: 30 * u,
	} {
		if self[id] != want {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}
	by := selfByName(spans)
	if len(by["op"]) != 2 || len(by["c"]) != 4 {
		t.Errorf("selfByName groups = %v", by)
	}
}

func TestMsByClass(t *testing.T) {
	const u = time.Millisecond
	spans := []span{
		{ID: 1, Op: 1, Name: "op:wrun/cm1", Start: 0, End: 50 * u},
		{ID: 2, Op: 1, Parent: 1, Name: "workloads.run", Start: 0, End: 40 * u},
		{ID: 3, Op: 1, Parent: 1, Name: "trace.encode", Start: 40 * u, End: 50 * u},
		{ID: 4, Op: 2, Name: "op:wrun/jag", Start: 50 * u, End: 80 * u},
		{ID: 5, Op: 2, Parent: 4, Name: "workloads.run", Start: 50 * u, End: 75 * u},
		{ID: 6, Op: 3, Name: "op:wrun/cm1", Start: 80 * u, End: 130 * u},
		{ID: 7, Op: 3, Parent: 6, Name: "workloads.run", Start: 80 * u, End: 122 * u},
	}
	got := msByClass(spans, "workloads.run")
	if len(got) != 2 || len(got["wrun/cm1"]) != 2 || got["wrun/cm1"][1] != 42 || got["wrun/jag"][0] != 25 {
		t.Errorf("msByClass = %v", got)
	}
}

func TestTracerRecordsParentAndOp(t *testing.T) {
	tr := newTracer()
	root := tr.start("op:x", 0, 7)
	tr.in("layer", root, 7, func() {})
	tr.end(root)
	spans := tr.snapshot()
	if len(spans) != 2 || spans[1].Parent != root || spans[1].Op != 7 || spans[0].End < spans[1].End {
		t.Fatalf("spans = %+v", spans)
	}

	var none *tracer // the untraced pass
	id := none.start("op:x", 0, 1)
	none.in("layer", id, 1, func() {})
	none.end(id)
	if id != 0 || none.snapshot() != nil {
		t.Error("a nil tracer recorded something")
	}
}
