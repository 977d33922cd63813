package workflow

import (
	"testing"
	"time"

	"vani/internal/sim"
)

func task(name string, deps []string, dur time.Duration, log *[]string) *Task {
	return &Task{
		Name: name, App: name, Deps: deps,
		Run: func(p *sim.Proc, slot int) {
			p.Sleep(dur)
			*log = append(*log, name)
		},
	}
}

func TestLinearChainRunsInOrder(t *testing.T) {
	e := sim.NewEngine()
	d := NewDAG()
	var log []string
	d.MustAdd(task("a", nil, time.Second, &log))
	d.MustAdd(task("b", []string{"a"}, time.Second, &log))
	d.MustAdd(task("c", []string{"b"}, time.Second, &log))
	if _, err := Execute(e, d, 4); err != nil {
		t.Fatal(err)
	}
	end := e.Run()
	if end != 3*time.Second {
		t.Errorf("chain finished at %v, want 3s", end)
	}
	want := []string{"a", "b", "c"}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("order %v, want %v", log, want)
		}
	}
}

func TestFanOutRunsInParallel(t *testing.T) {
	e := sim.NewEngine()
	d := NewDAG()
	var log []string
	d.MustAdd(task("src", nil, time.Second, &log))
	for _, n := range []string{"w1", "w2", "w3", "w4"} {
		d.MustAdd(task(n, []string{"src"}, 2*time.Second, &log))
	}
	d.MustAdd(task("sink", []string{"w1", "w2", "w3", "w4"}, time.Second, &log))
	if _, err := Execute(e, d, 8); err != nil {
		t.Fatal(err)
	}
	end := e.Run()
	if end != 4*time.Second { // 1 + 2 (parallel) + 1
		t.Errorf("fan-out finished at %v, want 4s", end)
	}
	if log[len(log)-1] != "sink" {
		t.Error("sink did not run last")
	}
}

func TestSlotLimitThrottles(t *testing.T) {
	e := sim.NewEngine()
	d := NewDAG()
	var log []string
	for _, n := range []string{"t1", "t2", "t3", "t4"} {
		d.MustAdd(task(n, nil, time.Second, &log))
	}
	if _, err := Execute(e, d, 2); err != nil {
		t.Fatal(err)
	}
	end := e.Run()
	if end != 2*time.Second { // 4 tasks, 2 slots, 1s each
		t.Errorf("throttled run finished at %v, want 2s", end)
	}
}

func TestSlotAssignmentRecorded(t *testing.T) {
	e := sim.NewEngine()
	d := NewDAG()
	var log []string
	d.MustAdd(task("only", nil, time.Second, &log))
	if _, err := Execute(e, d, 3); err != nil {
		t.Fatal(err)
	}
	e.Run()
	tk := d.Task("only")
	if tk.Slot != 0 || tk.Started != 0 || tk.Finished != time.Second {
		t.Errorf("task record = %+v", tk)
	}
}

func TestWaitGroupSignalsCompletion(t *testing.T) {
	e := sim.NewEngine()
	d := NewDAG()
	var log []string
	d.MustAdd(task("a", nil, 2*time.Second, &log))
	wg, err := Execute(e, d, 1)
	if err != nil {
		t.Fatal(err)
	}
	var doneAt time.Duration
	e.Spawn("waiter", func(p *sim.Proc) {
		wg.Wait(p)
		doneAt = p.Now()
	})
	e.Run()
	if doneAt != 2*time.Second {
		t.Errorf("completion signaled at %v, want 2s", doneAt)
	}
}

func TestValidateRejectsCycle(t *testing.T) {
	d := NewDAG()
	var log []string
	d.MustAdd(task("a", []string{"b"}, time.Second, &log))
	d.MustAdd(task("b", []string{"a"}, time.Second, &log))
	if err := d.Validate(); err == nil {
		t.Error("cycle not detected")
	}
	if _, err := Execute(sim.NewEngine(), d, 1); err == nil {
		t.Error("Execute accepted cyclic DAG")
	}
}

func TestValidateRejectsUnknownDep(t *testing.T) {
	d := NewDAG()
	var log []string
	d.MustAdd(task("a", []string{"ghost"}, time.Second, &log))
	if err := d.Validate(); err == nil {
		t.Error("unknown dependency not detected")
	}
}

func TestAddRejectsBadTasks(t *testing.T) {
	d := NewDAG()
	if err := d.Add(&Task{Name: "", Run: func(*sim.Proc, int) {}}); err == nil {
		t.Error("empty name accepted")
	}
	if err := d.Add(&Task{Name: "x"}); err == nil {
		t.Error("nil body accepted")
	}
	var log []string
	d.MustAdd(task("dup", nil, time.Second, &log))
	if err := d.Add(task("dup", nil, time.Second, &log)); err == nil {
		t.Error("duplicate name accepted")
	}
}

func TestSlotPoolFIFOAndReuse(t *testing.T) {
	e := sim.NewEngine()
	sp := NewSlotPool(e, 2)
	var got []int
	for i := 0; i < 4; i++ {
		e.Spawn("w", func(p *sim.Proc) {
			s := sp.Acquire(p)
			got = append(got, s)
			p.Sleep(time.Second)
			sp.Release(s)
		})
	}
	e.Run()
	if len(got) != 4 {
		t.Fatalf("acquired %d slots", len(got))
	}
	if got[0] != 0 || got[1] != 1 {
		t.Errorf("initial slots %v, want 0,1", got[:2])
	}
	// Waiters inherit released slots (0 and 1, in release order).
	if got[2] != 0 || got[3] != 1 {
		t.Errorf("reused slots %v, want 0,1", got[2:])
	}
}

func TestDiamondDependency(t *testing.T) {
	e := sim.NewEngine()
	d := NewDAG()
	var log []string
	d.MustAdd(task("top", nil, time.Second, &log))
	d.MustAdd(task("left", []string{"top"}, time.Second, &log))
	d.MustAdd(task("right", []string{"top"}, 2*time.Second, &log))
	d.MustAdd(task("bottom", []string{"left", "right"}, time.Second, &log))
	if _, err := Execute(e, d, 4); err != nil {
		t.Fatal(err)
	}
	if end := e.Run(); end != 4*time.Second {
		t.Errorf("diamond finished at %v, want 4s", end)
	}
	if d.Task("bottom").Started != 3*time.Second {
		t.Errorf("bottom started at %v, want 3s (after slowest parent)", d.Task("bottom").Started)
	}
}
