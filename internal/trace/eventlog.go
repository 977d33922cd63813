package trace

import (
	"math/bits"
	"time"
	"unsafe"

	"vani/internal/parallel"
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

// logChunks recycles log chunks from one Finish to the next Record, the way
// colpool.go recycles block columns. Chunks are not zeroed: the log writes
// every slot below its length before anything reads it.
var logChunks parallel.FreeList[chunk]

// poisonEvent is what a recycled chunk holds under poisonRecycled: no
// tracer records it, and it sorts nowhere near a real event.
var poisonEvent = Event{
	Level: 0x5a, Op: 0x5a, Lib: 0x5a,
	Rank: 0x5a5a5a5a, Node: 0x5a5a5a5a, App: 0x5a5a5a5a, File: 0x5a5a5a5a,
	Offset: 0x5a5a5a5a5a5a5a5a, Size: 0x5a5a5a5a5a5a5a5a,
	Start: 0x5a5a5a5a5a5a5a5a, End: 0x5a5a5a5a5a5a5a5a,
}

// eventArrays holds the event arrays Trace.Release hands back, for Finish
// to sort the next log into. Like the chunks they are not zeroed: the sort
// writes every key and every event of its target before it reads one.
var eventArrays parallel.FreeList[[]Event]

// sortTarget returns n events of memory for Finish to sort into: the array
// handed back last when it holds n events, else a fresh one. An array too
// small is left to the collector, so the list keeps the larger ones; an
// empty log takes none.
func sortTarget(n int) []Event {
	if n == 0 {
		return []Event{}
	}
	if p := eventArrays.Get(); p != nil && cap(*p) >= n {
		return (*p)[:n]
	}
	return make([]Event, n)
}

// Release ends the life of the trace's events: their array goes back for a
// later Tracer.Finish to sort into, and Events is left nil. Only the
// trace's owner may call it, once nothing reads Events or aliases its
// array; the rest of the trace stays valid. Never calling it is correct —
// the array is ordinary garbage then.
func (t *Trace) Release() {
	if cap(t.Events) == 0 {
		return
	}
	evs := t.Events[:cap(t.Events)]
	t.Events = nil
	if poisonRecycled.Load() {
		for i := range evs {
			evs[i] = poisonEvent
		}
	}
	eventArrays.Put(&evs)
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

// grow starts a fresh chunk from logChunks.
func (l *eventLog) grow() {
	if len(l.chunks) == maxLogEvents/chunkEvents {
		panic("trace: event log full")
	}
	c := logChunks.Get()
	if c == nil {
		c = new(chunk)
	}
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

// release hands the chunks back to logChunks and empties the log.
func (l *eventLog) release() {
	poison := poisonRecycled.Load()
	for _, c := range l.chunks {
		if poison {
			for i := range c {
				c[i] = poisonEvent
			}
		}
		logChunks.Put(c)
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

// Sizes of an event and a sort key, for the in-place gather.
const (
	eventSize = int(unsafe.Sizeof(Event{}))
	keySize   = int(unsafe.Sizeof(sortKey{}))
)

// minSortShard is the fewest events Finish gives a sort worker. The passes
// are bound by memory, not arithmetic, so a second worker gains little,
// and below this share it did not pay for itself next to the collector
// and the caller's other goroutines.
const minSortShard = 1 << 15

// sortWorkers is how many workers Finish sorts an n-event log on.
func sortWorkers(n int) int { return max(1, min(parallel.Degree(0), n/minSortShard)) }

// sortShard is one worker's share of a sort: a contiguous range of the
// keys, the least and greatest Start and Rank it saw there, and one
// histogram per digit of its range.
type sortShard struct {
	minS, maxS time.Duration
	minR, maxR int32
	hist       [rankDigits + startDigits][digitVals]uint32
}

// sorted returns the log as a stable sort by (Start, Rank, End) in out,
// which must hold exactly the log's events and may hold anything, on the
// given number of workers. It is an LSD radix sort: a
// counting pass per rank digit, then per start digit, each stable,
// skipping any digit every key shares. Equal (Start, Rank) keys then sit
// together in record order, and an insertion sort by End inside each such
// run finishes the order.
//
// Each worker owns a contiguous range of the keys: it finds its range's
// bounds, builds its keys with a histogram of every digit, and in each
// pass scatters its range to offsets laid out bucket by bucket, worker by
// worker, so the pass stays stable. Its histograms count its range of the
// current order, so after the first pass a worker recounts the digit of
// each pass before it scatters — unless it is the only worker. The End
// fix-up runs on the caller.
//
// The sort allocates nothing but the workers' histograms. The two key
// buffers are the first and second n keys of out's memory, and the keys
// end up in the first. A gather from the top down then replaces them with
// the events: event i's memory starts at key
// i*eventSize/keySize, so writing it overwrites only keys that are already
// read, and the events [lo, hi) whose memory lies wholly above key hi can
// be gathered by all workers at once.
func (l *eventLog) sorted(workers int, out []Event) []Event {
	n := l.len()
	if n == 0 {
		return out
	}
	w := max(1, min(workers, n))
	shards := make([]sortShard, w)
	each := func(fn func(s *sortShard, lo, hi int)) {
		parallel.ForEach(w, w, func(i int) { fn(&shards[i], i*n/w, (i+1)*n/w) })
	}

	each(func(s *sortShard, lo, hi int) {
		first := l.at(uint32(lo))
		minS, maxS, minR, maxR := first.Start, first.Start, first.Rank, first.Rank
		for idx := lo; idx < hi; {
			evs := l.run(idx, hi)
			for i := range evs {
				ev := &evs[i]
				minS, maxS = min(minS, ev.Start), max(maxS, ev.Start)
				minR, maxR = min(minR, ev.Rank), max(maxR, ev.Rank)
			}
			idx += len(evs)
		}
		s.minS, s.maxS, s.minR, s.maxR = minS, maxS, minR, maxR
	})
	minS, maxS, minR, maxR := shards[0].minS, shards[0].maxS, shards[0].minR, shards[0].maxR
	for _, s := range shards[1:] {
		minS, maxS = min(minS, s.minS), max(maxS, s.maxS)
		minR, maxR = min(minR, s.minR), max(maxR, s.maxR)
	}
	nr := digitsFor(uint64(uint32(maxR) - uint32(minR)))
	ns := digitsFor(uint64(maxS) - uint64(minS))

	mem := unsafe.Slice((*sortKey)(unsafe.Pointer(unsafe.SliceData(out))), 2*n)
	keys := mem[:n]
	each(func(s *sortShard, lo, hi int) {
		rankHist, startHist := s.hist[:nr], s.hist[nr:nr+ns]
		for idx := lo; idx < hi; {
			evs := l.run(idx, hi)
			for i := range evs {
				k := sortKey{
					start: uint64(evs[i].Start) - uint64(minS),
					rank:  uint32(evs[i].Rank) - uint32(minR),
					idx:   uint32(idx + i),
				}
				keys[idx+i] = k
				for d := range rankHist {
					rankHist[d][k.rank>>(uint(d)*digitBits)%digitVals]++
				}
				for d := range startHist {
					startHist[d][k.start>>(uint(d)*digitBits)%digitVals]++
				}
			}
			idx += len(evs)
		}
	})

	src, dst := keys, mem[n:]
	counted := true // the shards' histograms count their range of src
	for d := 0; d < nr+ns; d++ {
		rank, shift := d < nr, uint(d)*digitBits
		if !rank {
			shift = uint(d-nr) * digitBits
		}
		// A digit every key shares moves nothing. The totals over the
		// shards do not depend on the order, so the key build's do.
		b0 := src[0].digit(rank, shift)
		var same uint32
		for i := range shards {
			same += shards[i].hist[d][b0]
		}
		if same == uint32(n) {
			continue
		}
		if !counted {
			each(func(s *sortShard, lo, hi int) { countDigit(src[lo:hi], &s.hist[d], rank, shift) })
		}
		sum := uint32(0)
		for b := range digitVals {
			for i := range shards {
				c := shards[i].hist[d][b]
				shards[i].hist[d][b] = sum
				sum += c
			}
		}
		each(func(s *sortShard, lo, hi int) { scatter(src[lo:hi], dst, &s.hist[d], rank, shift) })
		src, dst = dst, src
		counted = w == 1
	}
	if &src[0] != &keys[0] {
		each(func(_ *sortShard, lo, hi int) { copy(keys[lo:hi], src[lo:hi]) })
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

	hi := n
	for w > 1 {
		lo := (hi*keySize + eventSize - 1) / eventSize
		if hi-lo < 1024*w {
			break
		}
		parallel.ForEach(w, w, func(i int) {
			for j := lo + i*(hi-lo)/w; j < lo+(i+1)*(hi-lo)/w; j++ {
				out[j] = *l.at(keys[j].idx)
			}
		})
		hi = lo
	}
	for i := hi - 1; i >= 0; i-- {
		out[i] = *l.at(keys[i].idx)
	}
	return out
}

// run returns the events recorded lo-th onwards on lo's chunk, up to the
// hi-th.
func (l *eventLog) run(lo, hi int) []Event {
	c, off := lo/chunkEvents, lo%chunkEvents
	return l.chunks[c][off : off+min(chunkEvents-off, hi-lo)]
}

// digit returns the key's rank (or start) offset digit at shift.
func (k sortKey) digit(rank bool, shift uint) uint64 {
	if rank {
		return uint64(k.rank >> shift % digitVals)
	}
	return k.start >> shift % digitVals
}

// countDigit sets h to the histogram of src's digit at shift.
func countDigit(src []sortKey, h *[digitVals]uint32, rank bool, shift uint) {
	clear(h[:])
	if rank {
		for _, k := range src {
			h[k.rank>>shift%digitVals]++
		}
	} else {
		for _, k := range src {
			h[k.start>>shift%digitVals]++
		}
	}
}

// scatter stably moves src into dst by the digit of each key's rank (or
// start) offset at shift, h holding where each digit's next key goes.
func scatter(src, dst []sortKey, h *[digitVals]uint32, rank bool, shift uint) {
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
}
