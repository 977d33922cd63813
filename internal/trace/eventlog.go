package trace

import (
	"math/bits"
	"sync"
	"unsafe"
)

// The tracer's event log. Record appends every event, whatever rank issued
// it, to the end of one log of pooled fixed-size chunks: no lookup by rank
// and no shifting to keep anything in order. Finish orders the log once, by
// a stable LSD radix sort on (Start, Rank) followed by a fix-up by End, and
// gathers it into Trace.Events.

// chunkEvents is the capacity of one chunk of the log.
const chunkEvents = 1024

// maxLogEvents bounds one log: a sort key carries the record index, and a
// histogram its counts, as a uint32.
const maxLogEvents = 1<<32 - chunkEvents

// chunk is one fixed-size piece of the log.
type chunk = [chunkEvents]Event

// chunkPool recycles log chunks from one Finish to the next Record, the way
// colpool.go recycles block columns. Chunks are not zeroed: the log writes
// every slot below its length before anything reads it.
var chunkPool = sync.Pool{New: func() any { return new(chunk) }}

// poisonEvent is what a recycled chunk holds under poisonRecycled: no
// tracer records it, and it sorts nowhere near a real event.
var poisonEvent = Event{
	Level: 0x5a, Op: 0x5a, Lib: 0x5a,
	Rank: 0x5a5a5a5a, Node: 0x5a5a5a5a, App: 0x5a5a5a5a, File: 0x5a5a5a5a,
	Offset: 0x5a5a5a5a5a5a5a5a, Size: 0x5a5a5a5a5a5a5a5a,
	Start: 0x5a5a5a5a5a5a5a5a, End: 0x5a5a5a5a5a5a5a5a,
}

// eventLog holds events in record order. Every chunk but the last is full;
// tail is the last chunk cut to the events written on it.
type eventLog struct {
	chunks []*chunk
	tail   []Event
}

// append records ev at the end of the log.
func (l *eventLog) append(ev Event) {
	if len(l.tail) == cap(l.tail) {
		l.grow()
	}
	l.tail = append(l.tail, ev)
}

// grow starts a fresh chunk from the pool.
func (l *eventLog) grow() {
	if len(l.chunks) == maxLogEvents/chunkEvents {
		panic("trace: event log full")
	}
	c := chunkPool.Get().(*chunk)
	l.chunks = append(l.chunks, c)
	l.tail = c[:0]
}

// len returns the number of events in the log.
func (l *eventLog) len() int {
	if len(l.chunks) == 0 {
		return 0
	}
	return (len(l.chunks)-1)*chunkEvents + len(l.tail)
}

// events returns chunk c cut to the events written on it.
func (l *eventLog) events(c int) []Event {
	if c == len(l.chunks)-1 {
		return l.tail
	}
	return l.chunks[c][:]
}

// at returns the event recorded i-th.
func (l *eventLog) at(i uint32) *Event { return &l.chunks[i/chunkEvents][i%chunkEvents] }

// release hands the chunks back to the pool and empties the log.
func (l *eventLog) release() {
	poison := poisonRecycled.Load()
	for _, c := range l.chunks {
		if poison {
			for i := range c {
				c[i] = poisonEvent
			}
		}
		chunkPool.Put(c)
	}
	clear(l.chunks)
	l.chunks, l.tail = l.chunks[:0], nil
}

// Sort keys are read digitBits at a time: the rank offset in up to three
// digits, the start offset in up to six.
const (
	digitBits   = 11
	digitVals   = 1 << digitBits
	rankDigits  = (32 + digitBits - 1) / digitBits
	startDigits = (64 + digitBits - 1) / digitBits
)

// sortKey is one event's place in the sort: its Start and Rank as offsets
// from the log's least, and its record index. Like an Event it holds no
// pointers, and two keys fit in the room of one event, so the sort keeps
// both its key buffers in the memory of the slice it returns.
type sortKey struct {
	start uint64
	rank  uint32
	idx   uint32
}

// Two sort keys must fit in one Event.
var _ [unsafe.Sizeof(Event{}) - 2*unsafe.Sizeof(sortKey{})]struct{}

// digitsFor returns how many digits an offset in [0, span] needs.
func digitsFor(span uint64) int { return (bits.Len64(span) + digitBits - 1) / digitBits }

// sorted returns the log as a stable sort by (Start, Rank, End) in a fresh
// slice. It is an LSD radix sort: a counting pass per rank digit, then per
// start digit, each stable, skipping any digit every key shares. Equal
// (Start, Rank) keys then sit together in record order, and an insertion
// sort by End inside each such run finishes the order.
//
// The sort allocates nothing but its result. The two key buffers are the
// first and second n keys of the result's memory, and the keys end up in
// the first, then a gather from the last event down replaces them with the
// events: writing event i overwrites only keys at index i or above, which
// it has already read.
func (l *eventLog) sorted() []Event {
	n := l.len()
	out := make([]Event, n)
	if n == 0 {
		return out
	}
	first := &l.chunks[0][0]
	minS, maxS, minR, maxR := first.Start, first.Start, first.Rank, first.Rank
	for c := range l.chunks {
		evs := l.events(c)
		for i := range evs {
			ev := &evs[i]
			minS, maxS = min(minS, ev.Start), max(maxS, ev.Start)
			minR, maxR = min(minR, ev.Rank), max(maxR, ev.Rank)
		}
	}
	nr := digitsFor(uint64(uint32(maxR) - uint32(minR)))
	ns := digitsFor(uint64(maxS) - uint64(minS))

	mem := unsafe.Slice((*sortKey)(unsafe.Pointer(unsafe.SliceData(out))), 2*n)
	keys := mem[:n]
	var counts [rankDigits + startDigits][digitVals]uint32
	rankHist, startHist := counts[:nr], counts[nr:nr+ns]
	idx := uint32(0)
	for c := range l.chunks {
		evs := l.events(c)
		for i := range evs {
			k := sortKey{
				start: uint64(evs[i].Start) - uint64(minS),
				rank:  uint32(evs[i].Rank) - uint32(minR),
				idx:   idx,
			}
			keys[idx] = k
			idx++
			for d := range rankHist {
				rankHist[d][k.rank>>(uint(d)*digitBits)%digitVals]++
			}
			for d := range startHist {
				startHist[d][k.start>>(uint(d)*digitBits)%digitVals]++
			}
		}
	}

	src, dst := keys, mem[n:]
	for d := range rankHist {
		if radixPass(src, dst, &rankHist[d], true, uint(d)*digitBits) {
			src, dst = dst, src
		}
	}
	for d := range startHist {
		if radixPass(src, dst, &startHist[d], false, uint(d)*digitBits) {
			src, dst = dst, src
		}
	}
	if &src[0] != &keys[0] {
		copy(keys, src)
	}

	for i := 1; i < n; i++ {
		k := keys[i]
		if k.start != keys[i-1].start || k.rank != keys[i-1].rank {
			continue
		}
		end := l.at(k.idx).End
		j := i
		for ; j > 0 && keys[j-1].start == k.start && keys[j-1].rank == k.rank && l.at(keys[j-1].idx).End > end; j-- {
			keys[j] = keys[j-1]
		}
		keys[j] = k
	}

	for i := n - 1; i >= 0; i-- {
		out[i] = *l.at(keys[i].idx)
	}
	return out
}

// radixPass stably scatters src into dst by the digit of each key's rank
// (or start) offset at shift, h being that digit's histogram. When every
// key has the same digit it moves nothing and returns false.
func radixPass(src, dst []sortKey, h *[digitVals]uint32, rank bool, shift uint) bool {
	first := src[0].start >> shift % digitVals
	if rank {
		first = uint64(src[0].rank >> shift % digitVals)
	}
	if h[first] == uint32(len(src)) {
		return false
	}
	sum := uint32(0)
	for b, c := range h {
		h[b] = sum
		sum += c
	}
	if rank {
		for _, k := range src {
			b := k.rank >> shift % digitVals
			dst[h[b]] = k
			h[b]++
		}
	} else {
		for _, k := range src {
			b := k.start >> shift % digitVals
			dst[h[b]] = k
			h[b]++
		}
	}
	return true
}
