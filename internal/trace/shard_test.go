package trace

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

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

// TestShardMergeRepeatable: merging the same tracer twice is byte-identical
// (Finish is a pure snapshot; parallel shard sorting must not leak
// scheduling nondeterminism).
func TestShardMergeRepeatable(t *testing.T) {
	streams := perRankStreams(16, 500, 7)
	tr := NewTracer()
	for r := int32(0); r < 16; r++ {
		for _, ev := range streams[r] {
			tr.Record(ev)
		}
	}
	var buf1, buf2 bytes.Buffer
	if err := WriteV2(&buf1, tr.Finish()); err != nil {
		t.Fatal(err)
	}
	if err := WriteV2(&buf2, tr.Finish()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
		t.Fatal("two Finish merges of the same shards differ")
	}
}

// TestShardMergeMatchesGlobalSort: the k-way merge must produce exactly the
// canonical SortByStart order of the concatenated event log.
func TestShardMergeMatchesGlobalSort(t *testing.T) {
	streams := perRankStreams(6, 300, 99)
	tr := NewTracer()
	var all []Event
	for r := int32(0); r < 6; r++ {
		for _, ev := range streams[r] {
			tr.Record(ev)
			all = append(all, ev)
		}
	}
	want := &Trace{Events: all}
	want.SortByStart()
	got := tr.Finish()
	if !reflect.DeepEqual(want.Events, got.Events) {
		t.Fatal("shard merge order diverges from SortByStart total order")
	}
}

// TestFinishMergesSortedShardsInPlace: shards already in (Start, End) order
// are merged from the tracer's own memory and the others from a sorted
// copy; either way the result is the canonical order, the tracer's record
// sequences are untouched, and the returned Trace is a snapshot that later
// recording does not reach.
func TestFinishMergesSortedShardsInPlace(t *testing.T) {
	streams := perRankStreams(6, 300, 3)
	for r := int32(0); r < 6; r += 2 { // even ranks record in order
		for i := range streams[r] {
			streams[r][i].Start = streams[r][i].End
		}
	}
	tr := NewTracer()
	var all []Event
	for r := int32(5); r >= 0; r-- {
		for _, ev := range streams[r] {
			tr.Record(ev)
			all = append(all, ev)
		}
	}
	want := &Trace{Events: all}
	want.SortByStart()
	got := tr.Finish()
	if !reflect.DeepEqual(want.Events, got.Events) {
		t.Fatal("merge of in-place and copied shards diverges from SortByStart")
	}
	for r := int32(0); r < 6; r++ {
		if !reflect.DeepEqual(tr.shards[r].events, streams[r]) {
			t.Fatalf("Finish reordered rank %d's shard", r)
		}
	}
	snapshot := append([]Event(nil), got.Events...)
	late := streams[0][len(streams[0])-1]
	late.Start += time.Hour
	late.End += time.Hour
	tr.Record(late)
	if again := tr.Finish(); len(again.Events) != len(snapshot)+1 || again.Events[len(snapshot)] != late {
		t.Error("an event recorded after Finish is missing from the next Finish")
	}
	if !reflect.DeepEqual(got.Events, snapshot) {
		t.Error("recording after Finish changed the Trace it returned")
	}
}

// TestScannerStreamsEvents exercises the chunked on-disk reader: header
// first, then events in batches, matching the materializing Read exactly.
func TestScannerStreamsEvents(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	orig := randomTrace(rng, 3000)
	var buf bytes.Buffer
	if err := WriteV2(&buf, orig); err != nil {
		t.Fatal(err)
	}
	sc, err := NewScanner(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	hdr := sc.Header()
	if !reflect.DeepEqual(hdr.Meta, orig.Meta) || !reflect.DeepEqual(hdr.Apps, orig.Apps) {
		t.Fatal("scanner header mismatch")
	}
	var events []Event
	chunk := make([]Event, 257) // deliberately not a divisor of 3000
	for {
		n, err := sc.Next(chunk)
		events = append(events, chunk[:n]...)
		if err != nil {
			break
		}
	}
	if len(events) != len(orig.Events) {
		t.Fatalf("scanned %d events, want %d", len(events), len(orig.Events))
	}
	if !reflect.DeepEqual(events, orig.Events) {
		t.Fatal("streamed events diverge from original")
	}
	if n, err := sc.Next(chunk); n != 0 || err == nil {
		t.Fatal("scanner did not report exhaustion")
	}
}
