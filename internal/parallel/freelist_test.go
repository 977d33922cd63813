package parallel

import (
	"runtime"
	"testing"
	"time"
)

// TestFreeListAgesWithCollections: a FreeList hands values back last in,
// first out, from whatever goroutine asks; what one collection finds idle
// is still there after it, and the next collection drops it.
func TestFreeListAgesWithCollections(t *testing.T) {
	var l FreeList[int]
	if l.Get() != nil {
		t.Fatal("an empty list handed out a value")
	}
	a, b := new(int), new(int)
	l.Put(a)
	l.Put(b)
	got := make(chan *int)
	go func() { got <- l.Get() }()
	if x := <-got; x != b {
		t.Fatal("Get on another goroutine did not return the value put last")
	}
	l.Put(b)
	held := func() (idle, victim int) {
		l.mu.Lock()
		defer l.mu.Unlock()
		return len(l.idle), len(l.victim)
	}
	// collect runs one collection and waits for its finalizer to age the list.
	collect := func(idle, victim int) {
		t.Helper()
		runtime.GC()
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			if i, v := held(); i == idle && v == victim {
				return
			}
			if time.Now().After(deadline) {
				i, v := held()
				t.Fatalf("after a collection: %d idle, %d victims; want %d and %d", i, v, idle, victim)
			}
		}
	}
	collect(0, 2)
	if l.Get() != b {
		t.Fatal("a value idle through one collection is gone")
	}
	l.Put(b) // idle again: survives the next collection, a does not
	collect(0, 1)
	collect(0, 0)
	if l.Get() != nil || l.armed {
		t.Fatal("two collections left a value held, or the list armed")
	}
}
