package parallel

import (
	"runtime"
	"sync"
)

// FreeList recycles values between the parallel stages that draw them on
// one goroutine and hand them back on another. Unlike a sync.Pool, every
// value it holds is reachable from every P: a pool keeps one value per P
// that only that P can take, so a caller that handed a value back on one P
// and resumed on another made a new one, however few values were in play.
// Like a pool's, what it holds goes to the collector: what one collection
// finds idle, the next one drops. The zero value is an empty list; a
// FreeList must not be copied after first use.
type FreeList[T any] struct {
	mu           sync.Mutex
	idle, victim []*T
	armed        bool
}

// Get takes the value handed back last, or returns nil.
func (l *FreeList[T]) Get() *T {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, s := range [...]*[]*T{&l.idle, &l.victim} {
		if n := len(*s); n > 0 {
			x := (*s)[n-1]
			(*s)[n-1], *s = nil, (*s)[:n-1]
			return x
		}
	}
	return nil
}

// Put hands x back. The caller must not use it afterwards.
func (l *FreeList[T]) Put(x *T) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.idle = append(l.idle, x)
	if !l.armed {
		l.armed = true
		l.arm()
	}
}

// gcTick is an object nothing references, so its finalizer runs once a
// collection has found it. It holds a pointer so that it is never
// tiny-allocated beside a live object.
type gcTick struct{ _ *byte }

// arm has the next collection age the list; l.mu is held.
func (l *FreeList[T]) arm() {
	runtime.SetFinalizer(&gcTick{}, func(*gcTick) { l.age() })
}

// age runs after a collection: the victims go, the idle values become the
// victims, and while any are held the next collection ages them again.
func (l *FreeList[T]) age() {
	l.mu.Lock()
	defer l.mu.Unlock()
	clear(l.victim)
	l.victim, l.idle = l.idle, l.victim[:0]
	l.armed = len(l.victim) > 0
	if l.armed {
		l.arm()
	}
}
