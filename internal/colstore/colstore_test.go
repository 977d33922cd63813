package colstore

import (
	"math/rand"
	"testing"
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
	for _, par := range []int{1, 4} {
		assertEvents(t, tr.Events, FromEvents(tr.Events, par))
	}
}

func TestChunkGeometry(t *testing.T) {
	tb := FromEvents(bigTrace(2*ChunkRows+5, 3).Events, 0)
	if tb.NumChunks() != 3 {
		t.Fatalf("chunks = %d, want 3", tb.NumChunks())
	}
	for k := 0; k < tb.NumChunks(); k++ {
		c := tb.ChunkAt(k)
		if k < 2 && c.N != ChunkRows {
			t.Errorf("chunk %d N = %d, want %d", k, c.N, ChunkRows)
		}
		if len(c.Size) != c.N || len(c.Start) != c.N {
			t.Errorf("chunk %d columns not trimmed to N=%d", k, c.N)
		}
	}
	if tb.ChunkAt(2).N != 5 {
		t.Errorf("last chunk N = %d, want 5", tb.ChunkAt(2).N)
	}
}

// TestParallelKernelsMatchSequential: the unifier, the one chunk-parallel
// kernel a table offers, answers identically at every worker count, over a
// table transposed from memory and over a planned one.
func TestParallelKernelsMatchSequential(t *testing.T) {
	tr := bigTrace(3*ChunkRows+4321, 21)
	tables := map[string]*Table{
		"memory":  FromEvents(tr.Events, 0),
		"planned": plan(t, blockReaderFor(t, tr, trace.V2Options{}), 0, ScanSpec{}, nil),
	}
	for name, tb := range tables {
		for _, col := range []Col{ColRank, ColNode, ColApp, ColFile} {
			want, err := tb.UnifyCodes(1, col, 1<<20)
			if err != nil {
				t.Fatal(err)
			}
			for _, par := range []int{0, 2, 4, 16} {
				if got, err := tb.UnifyCodes(par, col, 1<<20); err != nil || got != want {
					t.Errorf("%s col=%d par=%d: UnifyCodes = (%d, %v), want (%d, nil)", name, col, par, got, err, want)
				}
			}
		}
	}
}

func TestForEachChunkCoversAllRows(t *testing.T) {
	tb := FromEvents(bigTrace(2*ChunkRows+100, 9).Events, 0)
	var rows, chunks int
	tb.ForEachChunk(func(c *Chunk) {
		chunks++
		rows += c.N
	})
	if rows != tb.Len() {
		t.Errorf("chunked rows = %d, want %d", rows, tb.Len())
	}
	if chunks != tb.NumChunks() {
		t.Errorf("chunks = %d, want %d", chunks, tb.NumChunks())
	}
}
