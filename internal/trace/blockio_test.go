package trace

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// encodeV2 writes tr with the given options and returns the log bytes.
func encodeV2(t *testing.T, tr *Trace, opt V2Options) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteV2With(&buf, tr, opt); err != nil {
		t.Fatalf("WriteV2With: %v", err)
	}
	return buf.Bytes()
}

// assertTraceEqual compares two traces field by field, failing on the first
// mismatching event so a diff is readable.
func assertTraceEqual(t *testing.T, want, got *Trace) {
	t.Helper()
	if !reflect.DeepEqual(want.Meta, got.Meta) {
		t.Errorf("meta mismatch:\n%+v\n%+v", want.Meta, got.Meta)
	}
	if !reflect.DeepEqual(want.Apps, got.Apps) {
		t.Error("apps mismatch")
	}
	if !reflect.DeepEqual(want.Files, got.Files) {
		t.Error("files mismatch")
	}
	if !reflect.DeepEqual(want.Samples, got.Samples) {
		t.Error("samples mismatch")
	}
	if len(want.Events) != len(got.Events) {
		t.Fatalf("event count %d != %d", len(got.Events), len(want.Events))
	}
	for i := range want.Events {
		if want.Events[i] != got.Events[i] {
			t.Fatalf("event %d mismatch: %+v != %+v", i, got.Events[i], want.Events[i])
		}
	}
}

func TestV2RoundTripScanner(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct {
		name string
		opt  V2Options
		n    int
	}{
		{"default", V2Options{}, 5000},
		{"multi-block", V2Options{BlockEvents: 512}, 5000},
		{"exact-blocks", V2Options{BlockEvents: 100}, 500},
		{"compressed", V2Options{Compress: true, BlockEvents: 512}, 5000},
		{"single-event", V2Options{}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			orig := randomTrace(rng, tc.n)
			data := encodeV2(t, orig, tc.opt)
			got, err := Read(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("Read: %v", err)
			}
			assertTraceEqual(t, orig, got)
		})
	}
}

func TestV2RoundTripBlockReader(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, tc := range []struct {
		name string
		opt  V2Options
	}{
		{"raw", V2Options{BlockEvents: 512}},
		{"compressed", V2Options{BlockEvents: 512, Compress: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			orig := randomTrace(rng, 3000)
			data := encodeV2(t, orig, tc.opt)
			br, err := NewBlockReader(bytes.NewReader(data), int64(len(data)))
			if err != nil {
				t.Fatalf("NewBlockReader: %v", err)
			}
			if br.NumEvents() != uint64(len(orig.Events)) {
				t.Fatalf("NumEvents = %d, want %d", br.NumEvents(), len(orig.Events))
			}
			if br.BlockEvents() != 512 {
				t.Fatalf("BlockEvents = %d, want 512", br.BlockEvents())
			}
			got, err := br.ReadTrace(Filter{})
			if err != nil {
				t.Fatalf("ReadTrace: %v", err)
			}
			assertTraceEqual(t, orig, got)
		})
	}
}

// TestV2DecodeColumnsMatchesEvents: the columnar decode through the footer's
// byte ranges and the sequential row-major decode of the same block agree
// field for field.
func TestV2DecodeColumnsMatchesEvents(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	orig := randomTrace(rng, 2500)
	data := encodeV2(t, orig, V2Options{BlockEvents: 1000})
	br, err := NewBlockReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	var cols Columns
	for k := 0; k < br.NumBlocks(); k++ {
		evs, err := br.appendBlock(nil, k, nil)
		if err != nil {
			t.Fatal(err)
		}
		bd, err := br.ReadBlock(k)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := bd.Decode(AllCols, &cols); err != nil {
			t.Fatal(err)
		}
		if cols.N != len(evs) {
			t.Fatalf("block %d: columns hold %d rows, events %d", k, cols.N, len(evs))
		}
		for i, e := range evs {
			if cols.Level[i] != uint8(e.Level) || cols.Op[i] != uint8(e.Op) ||
				cols.Lib[i] != uint8(e.Lib) || cols.Rank[i] != e.Rank ||
				cols.Node[i] != e.Node || cols.App[i] != e.App ||
				cols.File[i] != e.File || cols.Offset[i] != e.Offset ||
				cols.Size[i] != e.Size || cols.Start[i] != int64(e.Start) ||
				cols.End[i] != int64(e.End) {
				t.Fatalf("block %d row %d: columnar decode diverges from %+v", k, i, e)
			}
		}
	}
}

// TestV2EncodeDeterministic: the writer's output is byte-identical at every
// parallelism setting — the contract that makes the parallel encoder safe to
// use for reproducible artifacts.
func TestV2EncodeDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	orig := randomTrace(rng, 20000)
	for _, compress := range []bool{false, true} {
		want := encodeV2(t, orig, V2Options{BlockEvents: 1024, Compress: compress, Parallelism: 1})
		for _, par := range []int{0, 2, 4, 8} {
			got := encodeV2(t, orig, V2Options{BlockEvents: 1024, Compress: compress, Parallelism: par})
			if !bytes.Equal(want, got) {
				t.Errorf("compress=%v: output differs between Parallelism=1 and %d", compress, par)
			}
		}
	}
}

// TestV2FooterStats: every footer entry's count and time bounds match the
// events actually stored in its block.
func TestV2FooterStats(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	orig := randomTrace(rng, 3300)
	const be = 1000
	data := encodeV2(t, orig, V2Options{BlockEvents: be})
	br, err := NewBlockReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if want := (len(orig.Events) + be - 1) / be; br.NumBlocks() != want {
		t.Fatalf("NumBlocks = %d, want %d", br.NumBlocks(), want)
	}
	for k := 0; k < br.NumBlocks(); k++ {
		bi := br.BlockAt(k)
		lo, hi := k*be, (k+1)*be
		if hi > len(orig.Events) {
			hi = len(orig.Events)
		}
		if bi.Count != hi-lo {
			t.Errorf("block %d: Count = %d, want %d", k, bi.Count, hi-lo)
		}
		min, max := orig.Events[lo].Start, orig.Events[lo].Start
		for _, e := range orig.Events[lo:hi] {
			if e.Start < min {
				min = e.Start
			}
			if e.Start > max {
				max = e.Start
			}
		}
		if bi.MinStart != min || bi.MaxStart != max {
			t.Errorf("block %d: bounds [%v,%v], want [%v,%v]", k, bi.MinStart, bi.MaxStart, min, max)
		}
	}
}

func TestV2EmptyTrace(t *testing.T) {
	data := encodeV2(t, &Trace{}, V2Options{})
	got, err := Read(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("Read empty: %v", err)
	}
	if len(got.Events) != 0 {
		t.Error("empty trace not empty after round trip")
	}
	br, err := NewBlockReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatalf("NewBlockReader empty: %v", err)
	}
	if br.NumBlocks() != 0 || br.NumEvents() != 0 {
		t.Errorf("empty log claims %d blocks, %d events", br.NumBlocks(), br.NumEvents())
	}
}

// TestV2SmallerThanV1Stream: sanity-check the compressed encoding actually
// shrinks the log (the raw block framing costs a few bytes per block).
func TestV2CompressShrinks(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	orig := randomTrace(rng, 20000)
	raw := encodeV2(t, orig, V2Options{})
	comp := encodeV2(t, orig, V2Options{Compress: true})
	if len(comp) >= len(raw) {
		t.Errorf("compressed log (%d bytes) not smaller than raw (%d bytes)", len(comp), len(raw))
	}
}

// TestV2Corruption: truncations and byte flips across the whole log must
// surface as errors — wrapped in ErrBadFormat when the log structure itself
// is at fault — and never panic.
func TestV2Corruption(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	orig := randomTrace(rng, 2000)
	full := encodeV2(t, orig, V2Options{BlockEvents: 256})

	t.Run("truncation-scanner", func(t *testing.T) {
		// The stream reader needs the footer as much as the block reader:
		// a cut inside the event section or past it is refused alike.
		br, err := NewBlockReader(bytes.NewReader(full), int64(len(full)))
		if err != nil {
			t.Fatal(err)
		}
		last := br.BlockAt(br.NumBlocks() - 1)
		eventEnd := int(last.Offset + last.Len)
		for _, cut := range []int{4, len(magicV2), eventEnd / 4, eventEnd / 2, eventEnd - 1, eventEnd, len(full) - 1} {
			if _, err := Read(bytes.NewReader(full[:cut])); err == nil {
				t.Errorf("truncation at %d not detected by Read", cut)
			}
		}
	})
	t.Run("truncation-blockreader", func(t *testing.T) {
		for _, cut := range []int{0, 4, len(magicV2), len(full) / 2, len(full) - 1, len(full) - trailerLen} {
			data := full[:cut]
			_, err := NewBlockReader(bytes.NewReader(data), int64(len(data)))
			if err == nil {
				t.Errorf("truncation at %d not detected by block reader", cut)
			} else if !errors.Is(err, ErrBadFormat) {
				t.Errorf("truncation at %d: error %v does not wrap ErrBadFormat", cut, err)
			}
		}
	})
	t.Run("bad-footer-magic", func(t *testing.T) {
		data := append([]byte(nil), full...)
		data[len(data)-1] ^= 0xff
		if _, err := NewBlockReader(bytes.NewReader(data), int64(len(data))); !errors.Is(err, ErrBadFormat) {
			t.Errorf("corrupt footer magic: got %v", err)
		}
	})
	t.Run("oversized-footer-len", func(t *testing.T) {
		data := append([]byte(nil), full...)
		for i := 0; i < 8; i++ {
			data[len(data)-trailerLen+i] = 0xff
		}
		if _, err := NewBlockReader(bytes.NewReader(data), int64(len(data))); !errors.Is(err, ErrBadFormat) {
			t.Errorf("oversized footer length: got %v", err)
		}
	})
	t.Run("flipped-block-byte", func(t *testing.T) {
		// Flip one byte inside the first block frame. The index still
		// parses, so the failure must surface at decode time as
		// ErrBadFormat (a length/claim mismatch) or as divergent events —
		// never a panic.
		br, err := NewBlockReader(bytes.NewReader(full), int64(len(full)))
		if err != nil {
			t.Fatal(err)
		}
		bi := br.BlockAt(0)
		data := append([]byte(nil), full...)
		data[bi.Offset+bi.Len/2] ^= 0xff
		br2, err := NewBlockReader(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			if !errors.Is(err, ErrBadFormat) {
				t.Fatalf("index rejected flip with non-format error %v", err)
			}
			return
		}
		if _, err := br2.ReadTrace(Filter{}); err != nil && !errors.Is(err, ErrBadFormat) {
			t.Errorf("decode of flipped block: error %v does not wrap ErrBadFormat", err)
		}
	})
	t.Run("garbage-after-magic", func(t *testing.T) {
		data := append([]byte(magicV2), bytes.Repeat([]byte{0xff}, 64)...)
		if _, err := Read(bytes.NewReader(data)); err == nil {
			t.Error("scanner accepted garbage body")
		}
		if _, err := NewBlockReader(bytes.NewReader(data), int64(len(data))); !errors.Is(err, ErrBadFormat) {
			t.Error("block reader accepted garbage body")
		}
	})
	t.Run("v1-log-rejected-by-blockreader", func(t *testing.T) {
		v1 := OldVintages(t)[0].Data
		if _, err := NewBlockReader(bytes.NewReader(v1), int64(len(v1))); !errors.Is(err, ErrBadFormat) {
			t.Error("block reader accepted a VANITRC1 log")
		}
	})
}

// TestV2CountClaimBounded: a block whose event-count claim is unbacked by
// payload bytes or exceeds the log's block size is rejected before any
// allocation happens.
func TestV2CountClaimBounded(t *testing.T) {
	if err := checkPayloadCount(1<<19, 2*NumCols, maxBlockEvents); err == nil {
		t.Error("huge count over tiny payload accepted")
	}
	if err := checkPayloadCount(10, 1+3*NumCols, 16); err != nil {
		t.Errorf("valid count rejected: %v", err)
	}
	if err := checkPayloadCount(17, 1<<20, 16); err == nil {
		t.Error("count above block size accepted")
	}
}

// TestV2ScannerSmallBatches: a whole-log read of small blocks, the last one
// short, hands out every event in order across the block boundaries.
func TestV2ScannerSmallBatches(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	orig := randomTrace(rng, 1000)
	data := encodeV2(t, orig, V2Options{BlockEvents: 64})
	tr, err := Read(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	got := tr.Events
	if len(got) != len(orig.Events) {
		t.Fatalf("scanned %d events, want %d", len(got), len(orig.Events))
	}
	for i := range got {
		if got[i] != orig.Events[i] {
			t.Fatalf("event %d mismatch", i)
		}
	}
}

// TestV2BlockEventsClamped: absurd BlockEvents settings clamp to the
// decoder's acceptance bound instead of producing unreadable logs.
func TestV2BlockEventsClamped(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	orig := randomTrace(rng, 100)
	data := encodeV2(t, orig, V2Options{BlockEvents: maxBlockEvents * 4})
	got, err := Read(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("clamped log unreadable: %v", err)
	}
	if len(got.Events) != len(orig.Events) {
		t.Fatal("clamped log lost events")
	}
}

// smallTrace returns n events whose every field encodes in one byte — the
// smallest blocks a writer can produce.
func smallTrace(n int) *Trace {
	tc := NewTracer()
	tc.SetMeta(Meta{Workload: "small", Nodes: 1, Ranks: 2})
	id := tc.FileID("/f")
	for i := 0; i < n; i++ {
		tc.Record(Event{Op: OpWrite, Rank: int32(i % 2), File: id, Size: 1,
			Start: time.Duration(i), End: time.Duration(i + 1)})
	}
	return tc.Finish()
}

// TestV2RoundTripTinyBlocks: a block's payload floor is the smallest
// payload the segment encoders emit, so a log whose last block holds a
// single one-byte-per-field event (any n ≡ 1 mod the block size) reads
// back under every codec mode, block size and the outer flate layer.
func TestV2RoundTripTinyBlocks(t *testing.T) {
	modes := []V2Options{
		{}, {Compress: true},
		{Codec: CodecForceRaw}, {Codec: CodecForceRLE}, {Codec: CodecForceDict}, {Codec: CodecForceFOR},
	}
	check := func(tr *Trace, opt V2Options) {
		t.Helper()
		data := encodeV2(t, tr, opt)
		got, err := Read(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("n=%d %+v: Read: %v", len(tr.Events), opt, err)
		}
		assertTraceEqual(t, tr, got)
		br, err := NewBlockReader(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			t.Fatalf("n=%d %+v: NewBlockReader: %v", len(tr.Events), opt, err)
		}
		var cols Columns
		for k := 0; k < br.NumBlocks(); k++ {
			bd, err := br.ReadBlock(k)
			if err == nil {
				_, _, err = bd.Decode(AllCols, &cols)
			}
			if err != nil {
				t.Fatalf("n=%d %+v: decoding block %d: %v", len(tr.Events), opt, k, err)
			}
		}
	}
	for _, n := range []int{1, 2, DefaultBlockEvents, DefaultBlockEvents + 1} {
		tr := smallTrace(n)
		for _, opt := range modes {
			check(tr, opt)
		}
	}
	for be := 1; be <= 8; be++ {
		for _, n := range []int{1, 2, 9, 17} {
			tr := smallTrace(n)
			for _, opt := range modes {
				opt.BlockEvents = be
				check(tr, opt)
			}
		}
	}
}

// TestRewriteErrorReturnsColumns: a re-cut output block whose second source
// block does not read fails the rewrite with ErrBadFormat, and the pooled
// columns the first source block decoded into come back all the same.
func TestRewriteErrorReturnsColumns(t *testing.T) {
	log := encodeV2(t, smallTrace(300), V2Options{BlockEvents: 100})
	br, err := NewBlockReader(bytes.NewReader(log), int64(len(log)))
	if err != nil {
		t.Fatal(err)
	}
	log[br.BlockAt(1).Offset] = 9 // no frame codec has this id
	if br, err = NewBlockReader(bytes.NewReader(log), int64(len(log))); err != nil {
		t.Fatal(err)
	}
	inUse := ColumnsInUse()
	if _, err := br.WriteCompressed(io.Discard); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("rewrite error = %v, want ErrBadFormat", err)
	}
	if got := ColumnsInUse(); got != inUse {
		t.Errorf("%d pooled columns never came back", got-inUse)
	}
}
