package colstore

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"vani/internal/trace"
)

func sampleTrace() *trace.Trace {
	tr := trace.NewTracer()
	app := tr.AppID("app")
	f1, f2 := tr.FileID("/a"), tr.FileID("/b")
	mk := func(op trace.Op, rank int32, file int32, size int64, start, end time.Duration) {
		tr.Record(trace.Event{
			Level: trace.LevelPosix, Op: op, Rank: rank, Node: rank / 4,
			App: app, File: file, Size: size, Start: start, End: end,
		})
	}
	mk(trace.OpOpen, 0, f1, 0, 0, time.Millisecond)
	mk(trace.OpWrite, 0, f1, 4096, time.Millisecond, 3*time.Millisecond)
	mk(trace.OpWrite, 1, f2, 8192, 2*time.Millisecond, 5*time.Millisecond)
	mk(trace.OpRead, 1, f2, 1024, 5*time.Millisecond, 6*time.Millisecond)
	mk(trace.OpClose, 0, f1, 0, 6*time.Millisecond, 7*time.Millisecond)
	return tr.Finish()
}

// bigTrace spans multiple chunks so parallel kernels exercise the
// chunk-boundary and reduction paths.
func bigTrace(n int, seed int64) *trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	tr := trace.NewTracer()
	app := tr.AppID("app")
	files := []int32{tr.FileID("/a"), tr.FileID("/b"), tr.FileID("/c")}
	var clock time.Duration
	for i := 0; i < n; i++ {
		clock += time.Duration(rng.Intn(1000)) * time.Nanosecond
		op := trace.OpRead
		if rng.Intn(2) == 0 {
			op = trace.OpWrite
		}
		tr.Record(trace.Event{
			Level: trace.LevelPosix, Op: op, Rank: int32(rng.Intn(8)),
			Node: int32(rng.Intn(2)), App: app, File: files[rng.Intn(3)],
			Size: int64(rng.Intn(1 << 12)), Start: clock,
			End: clock + time.Duration(rng.Intn(500))*time.Nanosecond,
		})
	}
	return tr.Finish()
}

func TestFromTraceTransposes(t *testing.T) {
	tr := sampleTrace()
	tb := FromTrace(tr)
	if tb.Len() != len(tr.Events) {
		t.Fatalf("Len = %d, want %d", tb.Len(), len(tr.Events))
	}
	for i := range tr.Events {
		ev := tr.Events[i]
		if trace.Op(tb.Op(i)) != ev.Op || tb.Rank(i) != ev.Rank ||
			tb.Size(i) != ev.Size || time.Duration(tb.Start(i)) != ev.Start {
			t.Fatalf("row %d transposed wrong", i)
		}
	}
}

func TestBuilderMatchesFromEvents(t *testing.T) {
	tr := bigTrace(3*ChunkRows+17, 11)
	want := FromEvents(tr.Events, 0)
	b := NewBuilder()
	// Mix single appends and batches to exercise both paths.
	b.Append(&tr.Events[0])
	b.AppendEvents(tr.Events[1:])
	got := b.Finish()
	if got.Len() != want.Len() || got.NumChunks() != want.NumChunks() {
		t.Fatalf("builder shape: len=%d chunks=%d, want len=%d chunks=%d",
			got.Len(), got.NumChunks(), want.Len(), want.NumChunks())
	}
	for i := 0; i < want.Len(); i++ {
		if got.Op(i) != want.Op(i) || got.Rank(i) != want.Rank(i) ||
			got.Size(i) != want.Size(i) || got.Start(i) != want.Start(i) ||
			got.End(i) != want.End(i) || got.File(i) != want.File(i) {
			t.Fatalf("row %d differs between builder and transpose", i)
		}
	}
}

func TestChunkGeometry(t *testing.T) {
	tb := FromEvents(bigTrace(2*ChunkRows+5, 3).Events, 0)
	if tb.NumChunks() != 3 {
		t.Fatalf("chunks = %d, want 3", tb.NumChunks())
	}
	for k := 0; k < tb.NumChunks(); k++ {
		c := tb.ChunkAt(k)
		if c.Base != k*ChunkRows {
			t.Errorf("chunk %d base = %d", k, c.Base)
		}
		if len(c.Size) != c.N || len(c.Start) != c.N {
			t.Errorf("chunk %d columns not trimmed to N=%d", k, c.N)
		}
	}
	if tb.ChunkAt(2).N != 5 {
		t.Errorf("last chunk N = %d, want 5", tb.ChunkAt(2).N)
	}
}

func TestPredicatesAndAggregates(t *testing.T) {
	tb := FromTrace(sampleTrace())
	if got := tb.SumSize(1, tb.IsData); got != 4096+8192+1024 {
		t.Errorf("data bytes = %d", got)
	}
	if got := tb.Count(1, tb.IsMeta); got != 2 {
		t.Errorf("meta count = %d", got)
	}
	if got := tb.Count(1, nil); got != tb.Len() {
		t.Errorf("nil pred count = %d", got)
	}
	writes := tb.Select(func(i int) bool { return trace.Op(tb.Op(i)) == trace.OpWrite })
	if writes.Len() != 2 || writes.SumSize(1, nil) != 4096+8192 {
		t.Errorf("writes table wrong: len=%d", writes.Len())
	}
}

func TestSumDur(t *testing.T) {
	tb := FromTrace(sampleTrace())
	want := 1*time.Millisecond + 2*time.Millisecond + 3*time.Millisecond +
		1*time.Millisecond + 1*time.Millisecond
	if got := tb.SumDur(1, nil); got != want {
		t.Errorf("SumDur = %v, want %v", got, want)
	}
}

func TestTimeExtent(t *testing.T) {
	tb := FromTrace(sampleTrace())
	if tb.MinStart() != 0 || tb.MaxEnd() != 7*time.Millisecond {
		t.Errorf("extent = [%v, %v]", tb.MinStart(), tb.MaxEnd())
	}
	empty := &Table{}
	if empty.MinStart() != 0 || empty.MaxEnd() != 0 {
		t.Error("empty extent not zero")
	}
}

func TestTakePreservesValues(t *testing.T) {
	tb := FromTrace(sampleTrace())
	sub := tb.Take([]int{1, 3})
	if sub.Len() != 2 || sub.Size(0) != 4096 || sub.Size(1) != 1024 {
		t.Errorf("Take wrong: %d %d", sub.Size(0), sub.Size(1))
	}
}

func TestForEachChunkCoversAllRows(t *testing.T) {
	tb := FromEvents(bigTrace(2*ChunkRows+100, 9).Events, 0)
	var rows, chunks, next int
	tb.ForEachChunk(func(c *Chunk) {
		chunks++
		rows += c.N
		if c.Base != next {
			t.Errorf("chunk base %d, want %d", c.Base, next)
		}
		next += c.N
	})
	if rows != tb.Len() {
		t.Errorf("chunked rows = %d, want %d", rows, tb.Len())
	}
	if chunks != tb.NumChunks() {
		t.Errorf("chunks = %d, want %d", chunks, tb.NumChunks())
	}
}

// The core determinism property of the tentpole: every parallel kernel
// produces bit-identical results at any worker count.
func TestParallelKernelsMatchSequential(t *testing.T) {
	tb := FromEvents(bigTrace(3*ChunkRows+4321, 21).Events, 0)
	isWrite := func(i int) bool { return trace.Op(tb.Op(i)) == trace.OpWrite }

	wantCount := tb.Count(1, isWrite)
	wantSize := tb.SumSize(1, isWrite)
	wantDur := tb.SumDur(1, isWrite)
	wantCard, err := tb.UnifyCodes(1, ColRank, 1<<20)
	if err != nil {
		t.Fatal(err)
	}

	for _, par := range []int{0, 2, 4, 16} {
		if got := tb.Count(par, isWrite); got != wantCount {
			t.Errorf("par=%d Count = %d, want %d", par, got, wantCount)
		}
		if got := tb.SumSize(par, isWrite); got != wantSize {
			t.Errorf("par=%d SumSize = %d, want %d", par, got, wantSize)
		}
		if got := tb.SumDur(par, isWrite); got != wantDur {
			t.Errorf("par=%d SumDur = %v, want %v", par, got, wantDur)
		}
		if got, err := tb.UnifyCodes(par, ColRank, 1<<20); err != nil || got != wantCard {
			t.Errorf("par=%d UnifyCodes = (%d, %v), want (%d, nil)", par, got, err, wantCard)
		}
	}
}

func TestFusedScanMatchesIndividualKernels(t *testing.T) {
	tb := FromEvents(bigTrace(2*ChunkRows+999, 33).Events, 0)
	isRead := func(i int) bool { return trace.Op(tb.Op(i)) == trace.OpRead }
	isWrite := func(i int) bool { return trace.Op(tb.Op(i)) == trace.OpWrite }

	for _, par := range []int{1, 4} {
		all := &Agg{}
		rd := &Agg{Pred: isRead}
		wr := &Agg{Pred: isWrite}
		tb.Scan(par, all, rd, wr)
		if all.Count != int64(tb.Len()) || all.Bytes != tb.SumSize(1, nil) || all.Dur() != tb.SumDur(1, nil) {
			t.Errorf("par=%d fused all-agg mismatch", par)
		}
		if rd.Count != int64(tb.Count(1, isRead)) || rd.Bytes != tb.SumSize(1, isRead) {
			t.Errorf("par=%d fused read-agg mismatch", par)
		}
		if wr.Count != int64(tb.Count(1, isWrite)) || wr.Dur() != tb.SumDur(1, isWrite) {
			t.Errorf("par=%d fused write-agg mismatch", par)
		}
	}
}

// Property: fused Scan over random predicates equals separate kernels, at
// parallelism drawn from the input.
func TestFusedScanEquivalenceProperty(t *testing.T) {
	tb := FromTrace(sampleTrace())
	f := func(threshold uint16, parRaw uint8) bool {
		par := int(parRaw%8) + 1
		p := func(i int) bool { return tb.Size(i) > int64(threshold) }
		a := &Agg{Pred: p}
		tb.Scan(par, a)
		return a.Count == int64(tb.Count(1, p)) &&
			a.Bytes == tb.SumSize(1, p) && a.Dur() == tb.SumDur(1, p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: Select(p) ∪ Select(!p) partitions the table.
func TestSelectPartitionProperty(t *testing.T) {
	tb := FromTrace(sampleTrace())
	f := func(threshold uint16) bool {
		p := func(i int) bool { return tb.Size(i) > int64(threshold) }
		a := tb.Select(p)
		b := tb.Select(func(i int) bool { return !p(i) })
		return a.Len()+b.Len() == tb.Len() &&
			a.SumSize(1, nil)+b.SumSize(1, nil) == tb.SumSize(1, nil)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
