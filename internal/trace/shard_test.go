package trace

import (
	"bytes"
	"cmp"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"time"
	"unsafe"
)

// sortByStart is the oracle for the shard merge: a stable sort by (Start,
// Rank, End), so events equal on all three keys keep their record order.
// Analyzer passes assume this ordering.
func sortByStart(events []Event) {
	slices.SortStableFunc(events, func(a, b Event) int {
		return cmp.Or(cmp.Compare(a.Start, b.Start), cmp.Compare(a.Rank, b.Rank), cmp.Compare(a.End, b.End))
	})
}

// perRankStreams builds deterministic per-rank event sequences: each rank
// emits events with non-decreasing End (as the engine clock does), with
// deliberate Start ties across ranks to exercise the merge tie-breaks.
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

// TestShardMergeInterleavingInvariance is the satellite determinism test:
// two tracers fed the same per-rank streams in different global
// interleavings must Finish to byte-identical traces.
func TestShardMergeInterleavingInvariance(t *testing.T) {
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
		t.Fatal("merges of the same shards under different interleavings are not byte-identical")
	}
}

// TestShardMergeRepeatable: two tracers fed the same streams Finish to
// byte-identical traces, the second recording into pages the first handed
// back — poisoned on their way into the pool, so a slot the second tracer
// read without writing would show.
func TestShardMergeRepeatable(t *testing.T) {
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
	firstPages := make(map[*page]bool)
	for _, s := range first.shards {
		for _, p := range s.pages {
			firstPages[p] = true
		}
	}
	var buf1, buf2 bytes.Buffer
	if err := WriteV2(&buf1, first.Finish()); err != nil {
		t.Fatal(err)
	}
	second := record()
	reused := 0
	for _, s := range second.shards {
		for _, p := range s.pages {
			if firstPages[p] {
				reused++
			}
		}
	}
	if reused == 0 {
		t.Fatalf("the second tracer drew none of the first tracer's %d pages", len(firstPages))
	}
	if err := WriteV2(&buf2, second.Finish()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
		t.Fatalf("two tracers fed the same streams differ (%d of %d pages recycled)", reused, len(firstPages))
	}
}

// TestShardMergeMatchesGlobalSort: the k-way merge must produce exactly the
// canonical sortByStart order of the concatenated event log, from shards of
// different lengths, at every fan-in from 1 to 33 — the tournament tree is
// complete only at powers of two — and at 640.
func TestShardMergeMatchesGlobalSort(t *testing.T) {
	check := func(shards int, all []Event) {
		tr := NewTracer()
		for _, ev := range all {
			tr.Record(ev)
		}
		sortByStart(all)
		if got := tr.Finish(); !reflect.DeepEqual(all, got.Events) {
			t.Fatalf("%d shards: shard merge order diverges from sortByStart total order", shards)
		}
	}
	for ranks := 1; ranks <= 33; ranks++ {
		streams := perRankStreams(ranks, 300, 99)
		var all []Event
		for r := int32(0); r < int32(ranks); r++ {
			all = append(all, streams[r][:300-8*r]...)
		}
		check(ranks, all)
	}
	check(640, threeLevelLog(640, 3))
}

// pagedStream returns n events of one rank in record order. Unless n is 1,
// it opens with a wrapper recorded after min(n-1, 2P+3) children that all
// start after it (P = pageEvents), so inserting the wrapper moves it across
// up to two page boundaries to slot 0. The rest comes in threes: a pair of
// (Start, End) ties, then an event starting before both, which moves left
// past the pair while the pair keeps its record order. Offset is the
// record index, so every event is distinct.
func pagedStream(rank int32, n int) []Event {
	evs := make([]Event, 0, n+2)
	rec := func(start, end time.Duration) {
		evs = append(evs, Event{Level: LevelPosix, Op: OpWrite, Rank: rank, Offset: int64(len(evs)), Start: start, End: end})
	}
	if kids := min(n-1, 2*pageEvents+3); kids > 0 {
		for i := 0; i < kids; i++ {
			rec(time.Duration(10+i), time.Duration(11+i))
		}
		rec(5, time.Duration(20+kids))
	}
	for at := time.Duration(1000); len(evs) < n; at += 3 {
		rec(at, at+2)
		rec(at, at+2)
		rec(at-1, at+1)
	}
	return evs[:n]
}

// TestRecordKeepsShardOrderAcrossPages: ranks of 0, 1, P-1, P, P+1 and
// 3P+5 events, recorded round-robin, with wrappers whose insertion crosses
// page boundaries and (Start, End) ties recorded in a known order, merge to
// exactly the stable (Start, Rank, End) sort of everything recorded. The
// second round records into the first round's recycled pages.
func TestRecordKeepsShardOrderAcrossPages(t *testing.T) {
	sizes := []int{0, 1, pageEvents - 1, pageEvents, pageEvents + 1, 3*pageEvents + 5}
	streams := make([][]Event, len(sizes))
	for r, n := range sizes {
		streams[r] = pagedStream(int32(r), n)
	}
	tr := NewTracer()
	for round := 0; round < 2; round++ {
		var all []Event
		for i := 0; i < slices.Max(sizes); i++ {
			for _, evs := range streams {
				if i < len(evs) {
					tr.Record(evs[i])
					all = append(all, evs[i])
				}
			}
		}
		sortByStart(all)
		if got := tr.Finish(); !reflect.DeepEqual(got.Events, all) {
			t.Fatalf("round %d: shard order diverges from the stable (Start, Rank, End) sort", round)
		}
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

// TestTracerAllocBudget: once the page pool is warm, recording a run and
// finishing it allocates little beyond the merged Trace.Events — at most
// 1.25 event sizes per event, with GC off so the pool keeps its pages.
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

// BenchmarkMergeShards times Finish's k-way merge alone, over 640 ranks'
// shards of threeLevelLog(640, 80), and reports it per merged event.
func BenchmarkMergeShards(b *testing.B) {
	log := threeLevelLog(640, 80)
	tr := NewTracer()
	for _, ev := range log {
		tr.Record(ev)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := mergeShards(tr.shards, tr.count); len(got) != len(log) {
			b.Fatalf("merged %d events, want %d", len(got), len(log))
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(log)), "ns/event")
}

// TestScannerStreamsEvents exercises the stream reader: the header and the
// merged event log of a written trace come back exactly.
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
