package trace

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"time"
	"unsafe"
)

// sortByStart is the oracle for Finish: a stable sort by (Start, Rank,
// End), so events equal on all three keys keep their record order.
// Analyzer passes assume this ordering.
func sortByStart(events []Event) {
	slices.SortStableFunc(events, func(a, b Event) int {
		return cmp.Or(cmp.Compare(a.Start, b.Start), cmp.Compare(a.Rank, b.Rank), cmp.Compare(a.End, b.End))
	})
}

// perRankStreams builds deterministic per-rank event sequences: each rank
// emits events with non-decreasing End (as the engine clock does), with
// deliberate Start ties across ranks to exercise the Rank and End
// tie-breaks.
func perRankStreams(ranks, perRank int, seed int64) map[int32][]Event {
	rng := rand.New(rand.NewSource(seed))
	streams := make(map[int32][]Event)
	for r := 0; r < ranks; r++ {
		var end time.Duration
		for i := 0; i < perRank; i++ {
			end += time.Duration(rng.Intn(3)) * time.Millisecond
			// Starts collide across ranks on purpose (coarse grid).
			start := end - time.Duration(rng.Intn(4))*time.Millisecond
			if start < 0 {
				start = 0
			}
			streams[int32(r)] = append(streams[int32(r)], Event{
				Op: Op(rng.Intn(int(numOps))), Rank: int32(r),
				Node: int32(r / 4), Size: int64(rng.Intn(1 << 16)),
				Start: start, End: end,
			})
		}
	}
	return streams
}

// finishesToOracle records evs into tr, Finishes it and fails unless the
// events come back exactly in sortByStart's order.
func finishesToOracle(t testing.TB, tr *Tracer, evs []Event, what string) {
	t.Helper()
	for _, ev := range evs {
		tr.Record(ev)
	}
	want := slices.Clone(evs)
	sortByStart(want)
	got := tr.Finish().Events
	if len(got) != len(want) {
		t.Fatalf("%s: Finish returned %d events, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: event %d of %d is %+v, sortByStart puts %+v there", what, i, len(want), got[i], want[i])
		}
	}
}

// sortWorkerCounts are the worker counts the sort is held to the oracle
// at: serial, and two and three workers over ranges that split evenly or
// not.
var sortWorkerCounts = []int{1, 2, 3}

// poisonedEvents returns n events of a recycled-looking array: spare more
// slots past them, and every slot holding poisonEvent.
func poisonedEvents(n, spare int) []Event {
	evs := make([]Event, n+spare)
	for i := range evs {
		evs[i] = poisonEvent
	}
	return evs[:n]
}

// sortsToOracle records evs into a log and fails unless sorting it on each
// of sortWorkerCounts workers returns exactly sortByStart's order. Each sort
// goes into a target as Finish may draw it from eventArrays: larger than
// the log and full of poison.
func sortsToOracle(t testing.TB, evs []Event, what string) {
	t.Helper()
	want := slices.Clone(evs)
	sortByStart(want)
	for _, w := range sortWorkerCounts {
		var l eventLog
		for _, ev := range evs {
			l.append(ev)
		}
		got := l.sorted(w, poisonedEvents(len(evs), len(evs)/2+1))
		l.release()
		if len(got) != len(want) {
			t.Fatalf("%s, %d workers: sorted %d events, want %d", what, w, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s, %d workers: event %d of %d is %+v, sortByStart puts %+v there", what, w, i, len(want), got[i], want[i])
			}
		}
	}
}

// TestFinishInterleavingInvariance: two tracers fed the same per-rank
// streams in different global interleavings must Finish to byte-identical
// traces.
func TestFinishInterleavingInvariance(t *testing.T) {
	streams := perRankStreams(8, 200, 42)

	record := func(order []int32) *Trace {
		tr := NewTracer()
		pos := make(map[int32]int)
		for _, r := range order {
			tr.Record(streams[r][pos[r]])
			pos[r]++
		}
		return tr.Finish()
	}

	// Interleaving A: round-robin across ranks.
	var orderA []int32
	for i := 0; i < 200; i++ {
		for r := int32(0); r < 8; r++ {
			orderA = append(orderA, r)
		}
	}
	// Interleaving B: rank-major (all of rank 0, then rank 1, ...) in
	// reverse rank order.
	var orderB []int32
	for r := int32(7); r >= 0; r-- {
		for i := 0; i < 200; i++ {
			orderB = append(orderB, r)
		}
	}

	ta, tb := record(orderA), record(orderB)
	var bufA, bufB bytes.Buffer
	if err := WriteV2(&bufA, ta); err != nil {
		t.Fatal(err)
	}
	if err := WriteV2(&bufB, tb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufA.Bytes(), bufB.Bytes()) {
		t.Fatal("the same per-rank streams under different interleavings Finish to different traces")
	}
}

// TestFinishRepeatableOverRecycledChunks: two tracers fed the same streams
// Finish to byte-identical traces, the second recording into chunks the
// first handed back — poisoned on their way into the pool, so a slot the
// second tracer read without writing would show.
func TestFinishRepeatableOverRecycledChunks(t *testing.T) {
	poisonRecycled.Store(true)
	defer poisonRecycled.Store(false)
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a GC empties the pool

	streams := perRankStreams(16, 500, 7)
	record := func() *Tracer {
		tr := NewTracer()
		for r := int32(0); r < 16; r++ {
			for _, ev := range streams[r] {
				tr.Record(ev)
			}
		}
		return tr
	}
	first := record()
	firstChunks := make(map[*chunk]bool)
	for _, c := range first.log.chunks {
		firstChunks[c] = true
	}
	var buf1, buf2 bytes.Buffer
	if err := WriteV2(&buf1, first.Finish()); err != nil {
		t.Fatal(err)
	}
	second := record()
	reused := 0
	for _, c := range second.log.chunks {
		if firstChunks[c] {
			reused++
		}
	}
	if reused == 0 {
		t.Fatalf("the second tracer drew none of the first tracer's %d chunks", len(firstChunks))
	}
	if err := WriteV2(&buf2, second.Finish()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
		t.Fatalf("two tracers fed the same streams differ (%d of %d chunks recycled)", reused, len(firstChunks))
	}
}

// TestFinishMatchesGlobalSort: Finish must produce exactly the canonical
// sortByStart order of the record sequence, for 1 to 33 ranks of different
// lengths recorded rank-major, and for 640 ranks recorded round-robin —
// also when sorting on one, two and three workers.
func TestFinishMatchesGlobalSort(t *testing.T) {
	tr := NewTracer()
	for ranks := 1; ranks <= 33; ranks++ {
		streams := perRankStreams(ranks, 300, 99)
		var all []Event
		for r := int32(0); r < int32(ranks); r++ {
			all = append(all, streams[r][:300-8*r]...)
		}
		finishesToOracle(t, tr, all, fmt.Sprintf("%d ranks", ranks))
		sortsToOracle(t, all, fmt.Sprintf("%d ranks", ranks))
	}
	finishesToOracle(t, tr, threeLevelLog(640, 3), "640 ranks")
	sortsToOracle(t, threeLevelLog(640, 3), "640 ranks")
	// Long enough that Finish itself sorts on every worker it has.
	finishesToOracle(t, tr, threeLevelLog(640, 40), "640 ranks, 40 calls")
}

// shapeLog returns the record sequences the radix sort must survive, by
// name. Offset is the record index wherever events would otherwise be
// indistinguishable.
func shapeLog() map[string][]Event {
	rng := rand.New(rand.NewSource(11))
	shapes := make(map[string][]Event)

	// 3000 ranks: two rank digits, with Starts on a coarse grid so ranks
	// tie on Start and the rank passes decide.
	var many []Event
	for i := 0; i < 9000; i++ {
		at := time.Duration(rng.Intn(50))
		many = append(many, Event{Rank: int32(rng.Intn(3000)), Start: at, End: at + time.Duration(rng.Intn(3)), Offset: int64(i)})
	}
	shapes["3000 ranks"] = many

	// Starts spread over 2^46 ns: five start digits.
	var wide []Event
	for i := 0; i < 5000; i++ {
		at := time.Duration(rng.Int63n(1 << 46))
		if i%7 == 0 && i > 0 {
			at = wide[i-1].Start // ties on Start across the whole span
		}
		wide = append(wide, Event{Rank: int32(rng.Intn(5)), Start: at, End: at + time.Duration(rng.Intn(1<<20)), Offset: int64(i)})
	}
	shapes["start span 2^46"] = wide

	// The extremes of both keys: every digit of both offsets is live.
	extremes := []Event{
		{Rank: math.MaxInt32, Start: math.MaxInt64, End: math.MaxInt64},
		{Rank: math.MinInt32, Start: math.MinInt64, End: math.MaxInt64},
		{Rank: 0, Start: 0, End: 1},
		{Rank: -1, Start: -1, End: 0},
		{Rank: math.MinInt32, Start: math.MaxInt64, End: math.MaxInt64},
		{Rank: math.MaxInt32, Start: math.MinInt64, End: math.MinInt64},
		{Rank: 0, Start: 0, End: 0},
	}
	for i := range extremes {
		extremes[i].Offset = int64(i)
	}
	shapes["extreme keys"] = extremes

	// Every Start equal: each start pass is skipped, the rank passes and
	// the End fix-up do all the work.
	var flat []Event
	for i := 0; i < 4000; i++ {
		flat = append(flat, Event{Rank: int32(rng.Intn(40)), Start: 7, End: 7 + time.Duration(rng.Intn(100)), Offset: int64(i)})
	}
	shapes["every Start equal"] = flat

	// One rank, one Start: no radix pass at all, only the fix-up.
	var single []Event
	for i := 0; i < 300; i++ {
		single = append(single, Event{Rank: 3, Start: 9, End: 9 + time.Duration(rng.Intn(20)), Offset: int64(i)})
	}
	shapes["one rank, one Start"] = single

	// Equal on (Start, Rank, End) but not on Level, Op or Size: record
	// order decides.
	var ties []Event
	for i := 0; i < 600; i++ {
		at := time.Duration(i % 5)
		ties = append(ties, Event{
			Level: Level(i % 4), Op: Op(i % int(numOps)), Size: int64(rng.Intn(1 << 10)),
			Rank: int32(i % 3), Start: at, End: at + 2,
		})
	}
	shapes["full-key ties"] = ties

	// A wrapper recorded after its children, as the app level completes
	// after the posix calls it issued; the wrapper starts first.
	var nested []Event
	for r := int32(0); r < 4; r++ {
		for call := 0; call < 100; call++ {
			at := time.Duration(call) * 100
			for k := 0; k < 5; k++ {
				nested = append(nested, Event{Level: LevelPosix, Op: OpWrite, Rank: r, Start: at + 10 + time.Duration(k), End: at + 11 + time.Duration(k)})
			}
			nested = append(nested, Event{Level: LevelMiddleware, Op: OpWrite, Rank: r, Start: at + 10, End: at + 20})
			nested = append(nested, Event{Level: LevelApp, Op: OpWrite, Rank: r, Start: at + 5, End: at + 30})
		}
	}
	shapes["wrapper after children"] = nested

	// Logs that end one event short of, exactly at, and one event past a
	// chunk boundary, in reverse Start order so every event moves.
	// Lengths 0, 1, 2 and 7 leave sort workers a key or none, and 3001
	// splits unevenly across two and three.
	for _, n := range []int{0, 1, 2, 7, chunkEvents - 1, chunkEvents, chunkEvents + 1, 2*chunkEvents + 1, 3001} {
		var evs []Event
		for i := 0; i < n; i++ {
			at := time.Duration(n - i)
			evs = append(evs, Event{Rank: int32(i % 6), Start: at / 2, End: at, Offset: int64(i)})
		}
		shapes[fmt.Sprintf("%d events", n)] = evs
	}
	return shapes
}

// TestFinishSortShapes: every shape in shapeLog Finishes to exactly the
// stable (Start, Rank, End) sort of its record sequence, once on fresh
// chunks and once on the chunks the first round recycled, and sorts to it
// on one, two and three workers.
func TestFinishSortShapes(t *testing.T) {
	tr := NewTracer()
	for name, evs := range shapeLog() {
		for round := 0; round < 2; round++ {
			finishesToOracle(t, tr, evs, fmt.Sprintf("%s, round %d", name, round))
		}
		sortsToOracle(t, evs, name)
	}
}

// FuzzFinishOrder: whatever the record sequence, Finish equals sortByStart
// over it. Each event takes eight bytes: rank, a Start scaled by a
// fuzzer-chosen shift (so the start span reaches every digit count), a
// duration and a level. A spare above zero has the second Finish sort into
// a released array that many events larger than the log, full of poison.
func FuzzFinishOrder(f *testing.F) {
	f.Add([]byte{}, uint16(0))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint16(0))
	f.Add(bytes.Repeat([]byte{0, 0, 0, 1, 0, 0, 0, 3}, 40), uint16(0))
	seed := make([]byte, 8*(chunkEvents+1))
	rand.New(rand.NewSource(1)).Read(seed)
	f.Add(seed, uint16(0))
	f.Add(seed, uint16(3*chunkEvents))
	f.Add(bytes.Repeat([]byte{0, 0, 0, 1, 0, 0, 0, 3}, 40), uint16(1))
	f.Fuzz(func(t *testing.T, data []byte, spare uint16) {
		var evs []Event
		for ; len(data) >= 8 && len(evs) < 4*chunkEvents; data = data[8:] {
			shift := uint(data[0] % 48)
			start := time.Duration(int64(data[2])<<8|int64(data[3])) << shift
			evs = append(evs, Event{
				Level: Level(data[7] % 4),
				Rank:  int32(int8(data[1])),
				Start: start,
				End:   start + time.Duration(data[4]%8)<<(data[5]%40),
				Size:  int64(data[6]),
			})
		}
		tr := NewTracer()
		finishesToOracle(t, tr, evs, "fuzzed log")
		if spare > 0 {
			poisonRecycled.Store(true)
			(&Trace{Events: make([]Event, len(evs)+int(spare))}).Release()
			poisonRecycled.Store(false)
		}
		finishesToOracle(t, tr, evs, "fuzzed log, recycled")
		sortsToOracle(t, evs, "fuzzed log")
	})
}

// TestTraceReleasePoisoned: a Finish after a Release sorts into the
// released array — poisoned on its way back — when it holds the log, and
// returns exactly the recorded events either way; a smaller array is not
// used.
func TestTraceReleasePoisoned(t *testing.T) {
	poisonRecycled.Store(true)
	defer poisonRecycled.Store(false)
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a GC ages the list
	streams := perRankStreams(8, 400, 11)
	var evs []Event
	for r := int32(0); r < 8; r++ {
		evs = append(evs, streams[r]...)
	}
	tr := NewTracer()
	for _, n := range []int{len(evs), len(evs) / 3, 1, 0} {
		first := NewTracer()
		for _, ev := range evs {
			first.Record(ev)
		}
		released := first.Finish()
		arr := &released.Events[0]
		released.Release()
		if released.Events != nil {
			t.Fatalf("Events = %d events after Release, want nil", len(released.Events))
		}
		if *arr != poisonEvent {
			t.Fatalf("the released array holds %+v, want poison", *arr)
		}
		finishesToOracle(t, tr, evs[:n], fmt.Sprintf("%d of %d events after a Release", n, len(evs)))
	}
	// Whatever else the list holds, the last Release is on top: a Finish
	// sorts into it only when it holds the log.
	small := &Trace{Events: poisonedEvents(10, 0)}
	small.Release()
	big := NewTracer()
	for _, ev := range evs {
		big.Record(ev)
	}
	got := big.Finish()
	if cap(got.Events) == 10 {
		t.Fatal("Finish sorted a log into a released array too small for it")
	}
	arr := &got.Events[0]
	got.Release()
	for _, ev := range evs[:100] {
		big.Record(ev)
	}
	again := big.Finish()
	if &again.Events[0] != arr {
		t.Fatal("Finish did not sort into the array the last Release handed back")
	}
	want := slices.Clone(evs[:100])
	sortByStart(want)
	if !slices.Equal(again.Events, want) {
		t.Fatal("a Finish into a released, poisoned array diverges from sortByStart")
	}
}

// TestFinishDrainsTheLog: Finish empties the event log. A later Record +
// Finish returns only the later events, and the first Trace is untouched.
func TestFinishDrainsTheLog(t *testing.T) {
	streams := perRankStreams(6, 300, 3)
	tr := NewTracer()
	var early, late []Event
	for r := int32(5); r >= 0; r-- {
		for i, ev := range streams[r] {
			if i < 200 {
				early = append(early, ev)
			} else {
				late = append(late, ev)
			}
		}
	}
	for _, ev := range early {
		tr.Record(ev)
	}
	got := tr.Finish()
	if n := tr.Len(); n != 0 {
		t.Fatalf("Len() = %d after Finish, want 0", n)
	}
	sortByStart(early)
	if !reflect.DeepEqual(got.Events, early) {
		t.Fatal("first Finish diverges from sortByStart")
	}
	for _, ev := range late {
		tr.Record(ev)
	}
	again := tr.Finish()
	sortByStart(late)
	if !reflect.DeepEqual(again.Events, late) {
		t.Errorf("second Finish returned %d events, want only the %d recorded after the first", len(again.Events), len(late))
	}
	if !reflect.DeepEqual(got.Events, early) {
		t.Error("recording after Finish changed the Trace it returned")
	}
}

// threeLevelLog is a run's shape at tracer scale: each rank issues calls
// through three levels, and a call's posix event completes first, then its
// middleware event, then its app event, each starting earlier than the one
// recorded before it. Ranks record round-robin, one call at a time.
func threeLevelLog(ranks, calls int) []Event {
	evs := make([]Event, 0, ranks*calls*3)
	for c := 0; c < calls; c++ {
		at := time.Duration(c) * 10 * time.Microsecond
		for r := int32(0); r < int32(ranks); r++ {
			for l, lv := range []Level{LevelPosix, LevelMiddleware, LevelApp} {
				d := time.Duration(2-l) * time.Microsecond
				evs = append(evs, Event{Level: lv, Op: OpWrite, Rank: r, Size: 4096, Start: at + d, End: at + 5*time.Microsecond - d})
			}
		}
	}
	return evs
}

// TestTracerAllocBudget: once the chunk pool is warm, recording a run and
// finishing it allocates little beyond the sorted Trace.Events — at most
// 1.25 event sizes per event, with GC off so the pool keeps its chunks.
func TestTracerAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is skewed under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	log := threeLevelLog(640, 80)
	run := func() {
		tr := NewTracer()
		for _, ev := range log {
			tr.Record(ev)
		}
		if got := tr.Finish(); len(got.Events) != len(log) {
			t.Fatalf("Finish returned %d events, want %d", len(got.Events), len(log))
		}
	}
	run() // warm the pool
	const rounds = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	perEvent := float64(after.TotalAlloc-before.TotalAlloc) / float64(rounds*len(log))
	t.Logf("Record + Finish: %.1f B/event", perEvent)
	if limit := 1.25 * float64(unsafe.Sizeof(Event{})); perEvent > limit {
		t.Errorf("Record + Finish allocate %.1f B/event, budget %.1f", perEvent, limit)
	}
}

// BenchmarkRecordFinish times a run's tracer work over threeLevelLog(640,
// 80): a fresh Tracer records every event and Finishes. ns/event is the
// whole; sort-ns/event is Finish's share (MergeTime).
func BenchmarkRecordFinish(b *testing.B) {
	log := threeLevelLog(640, 80)
	var sorting time.Duration
	for i := 0; i < b.N; i++ {
		tr := NewTracer()
		for _, ev := range log {
			tr.Record(ev)
		}
		if got := tr.Finish(); len(got.Events) != len(log) {
			b.Fatalf("Finish returned %d events, want %d", len(got.Events), len(log))
		}
		sorting += tr.MergeTime()
	}
	events := float64(b.N * len(log))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/events, "ns/event")
	b.ReportMetric(float64(sorting.Nanoseconds())/events, "sort-ns/event")
}

// TestScannerStreamsEvents exercises the stream reader: the header and the
// event log of a written trace come back exactly.
func TestScannerStreamsEvents(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	orig := randomTrace(rng, 3000)
	var buf bytes.Buffer
	if err := WriteV2(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Meta, orig.Meta) || !reflect.DeepEqual(got.Apps, orig.Apps) {
		t.Fatal("header mismatch")
	}
	if len(got.Events) != len(orig.Events) {
		t.Fatalf("read %d events, want %d", len(got.Events), len(orig.Events))
	}
	if !reflect.DeepEqual(got.Events, orig.Events) {
		t.Fatal("read events diverge from original")
	}
}
