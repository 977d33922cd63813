package colstore

import (
	"bytes"
	"testing"

	"vani/internal/trace"
)

// TestChunkGeometryMatchesBlockDefault pins the contract the zero-copy
// ingest path rests on: a default-geometry block holds exactly one
// chunk's worth of rows, so decoded column slices adopt as chunks directly.
func TestChunkGeometryMatchesBlockDefault(t *testing.T) {
	if ChunkRows != trace.DefaultBlockEvents {
		t.Fatalf("ChunkRows (%d) != trace.DefaultBlockEvents (%d): the FromBlocksSpec zero-copy path never triggers",
			ChunkRows, trace.DefaultBlockEvents)
	}
}

// assertTablesEqual compares two tables row by row across every column.
func assertTablesEqual(t *testing.T, want, got *Table) {
	t.Helper()
	if want.Len() != got.Len() {
		t.Fatalf("row count %d != %d", got.Len(), want.Len())
	}
	for i := 0; i < want.Len(); i++ {
		if want.Level(i) != got.Level(i) || want.Op(i) != got.Op(i) ||
			want.Lib(i) != got.Lib(i) || want.Rank(i) != got.Rank(i) ||
			want.Node(i) != got.Node(i) || want.App(i) != got.App(i) ||
			want.File(i) != got.File(i) || want.Offset(i) != got.Offset(i) ||
			want.Size(i) != got.Size(i) || want.Start(i) != got.Start(i) ||
			want.End(i) != got.End(i) {
			t.Fatalf("row %d differs between tables", i)
		}
	}
}

// blockReaderFor encodes tr as a trace log and opens it through the
// seekable block reader.
func blockReaderFor(t *testing.T, tr *trace.Trace, opt trace.V2Options) *trace.BlockReader {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteV2With(&buf, tr, opt); err != nil {
		t.Fatal(err)
	}
	br, err := trace.NewBlockReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	return br
}

// TestFromBlocksMatchesFromEvents: decoding a default-geometry block log
// through the zero-copy parallel path yields a table positionally identical
// to transposing the in-memory events, at every parallelism.
func TestFromBlocksMatchesFromEvents(t *testing.T) {
	// >2 chunks, with a partial tail chunk.
	tr := bigTrace(2*ChunkRows+123, 42)
	want := FromTrace(tr)
	for _, compress := range []bool{false, true} {
		br := blockReaderFor(t, tr, trace.V2Options{Compress: compress})
		for _, par := range []int{1, 4} {
			got, err := FromBlocksSpec(br, par, ScanSpec{Cols: trace.AllCols}, nil)
			if err != nil {
				t.Fatalf("FromBlocksSpec(par=%d, compress=%v): %v", par, compress, err)
			}
			if got.NumChunks() != want.NumChunks() {
				t.Fatalf("chunk count %d != %d", got.NumChunks(), want.NumChunks())
			}
			assertTablesEqual(t, want, got)
		}
	}
}

// TestFromBlocksNonDefaultGeometry: logs written with a block size other
// than ChunkRows take the streaming Builder fallback and still produce an
// identical table.
func TestFromBlocksNonDefaultGeometry(t *testing.T) {
	tr := bigTrace(ChunkRows+777, 7)
	want := FromTrace(tr)
	br := blockReaderFor(t, tr, trace.V2Options{BlockEvents: 1000})
	got, err := FromBlocksSpec(br, 4, ScanSpec{Cols: trace.AllCols}, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertTablesEqual(t, want, got)
}

// TestFromBlocksEmpty: an empty log produces an empty table, not an error.
func TestFromBlocksEmpty(t *testing.T) {
	br := blockReaderFor(t, &trace.Trace{}, trace.V2Options{})
	got, err := FromBlocksSpec(br, 4, ScanSpec{Cols: trace.AllCols}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 || got.NumChunks() != 0 {
		t.Errorf("empty log produced %d rows in %d chunks", got.Len(), got.NumChunks())
	}
}
