package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"time"
)

// fuzzSeedTrace builds the small valid trace the fuzz targets seed from.
func fuzzSeedTrace(f *testing.F) *Trace {
	f.Helper()
	tr := NewTracer()
	tr.SetMeta(Meta{Workload: "fuzz", Nodes: 2, Ranks: 4, PFSDir: "/p/gpfs1"})
	id := tr.FileID("/p/gpfs1/f")
	tr.AddSample("s", []float64{1, 2, 3})
	tr.Record(Event{Op: OpWrite, File: id, Size: 4096, Start: 1, End: 2})
	tr.Record(Event{Op: OpRead, File: id, Size: 128, Start: 3, End: 5})
	return tr.Finish()
}

// FuzzRead hardens the streaming decoder against corrupt input: any byte
// stream must either decode cleanly or return an error — never panic,
// hang, or allocate unboundedly.
func FuzzRead(f *testing.F) {
	// Seed with a retired-vintage log (must be refused, not misparsed) and a
	// valid one, their truncations, and mutations.
	seed := fuzzSeedTrace(f)
	valid := OldVintages(f)[0].Data
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte("VANITRC1"))
	f.Add([]byte("garbage"))
	mutated := append([]byte(nil), valid...)
	if len(mutated) > 20 {
		mutated[20] ^= 0xff
	}
	f.Add(mutated)

	var buf2 bytes.Buffer
	if err := WriteV2With(&buf2, seed, V2Options{BlockEvents: 1}); err != nil {
		f.Fatal(err)
	}
	valid2 := buf2.Bytes()
	f.Add(valid2)
	f.Add(valid2[:len(valid2)/2])
	f.Add(valid2[:len(valid2)-trailerLen])
	f.Add([]byte(magicV2))
	mutated2 := append([]byte(nil), valid2...)
	if len(mutated2) > 20 {
		mutated2[20] ^= 0xff
	}
	f.Add(mutated2)
	var comp2 bytes.Buffer
	if err := WriteV2With(&comp2, seed, V2Options{BlockEvents: 1, Compress: true}); err != nil {
		f.Fatal(err)
	}
	f.Add(comp2.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Decoded traces must survive re-encoding.
		var out bytes.Buffer
		if err := WriteV2(&out, tr); err != nil {
			t.Fatalf("re-encode of decoded trace failed: %v", err)
		}
	})
}

// craftedLog is a single-block log whose rank segment sits on one of the
// decoder's range checks, and whether the block must decode.
type craftedLog struct {
	name   string
	data   []byte
	accept bool
}

// craftedRankLogs: ranks {MaxInt32-4, MaxInt32} under forced FOR (base
// MaxInt32-4 at 3 bits: the header admits up to MaxInt32+3, the rows stay
// inside) and with row 0's offset raised to 7; ranks 1..4 under forced FOR
// and with the base rewritten to -1, so the minimum row lands below zero;
// ranks 1..3 under forced dict (nd = 3 at 2 bits) and with the last row's
// index raised to nd.
func craftedRankLogs(tb testing.TB) []craftedLog {
	build := func(ranks []int32, codec CodecMode) ([]byte, int64) {
		tr := NewTracer()
		tr.SetMeta(Meta{Workload: "crafted", Nodes: 1, Ranks: 4, PFSDir: "/p"})
		id := tr.FileID("/p/f")
		for i, r := range ranks {
			tr.Record(Event{Op: OpWrite, Rank: r, File: id, Size: 1,
				Start: time.Duration(i + 1), End: time.Duration(i + 2)})
		}
		var buf bytes.Buffer
		if err := WriteV2With(&buf, tr.Finish(), V2Options{Codec: codec}); err != nil {
			tb.Fatal(err)
		}
		data := buf.Bytes()
		br, err := NewBlockReader(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			tb.Fatal(err)
		}
		// Frame: codec byte, uvarint payload length, payload; payload: uvarint
		// count, then the segments in column order.
		bi := br.BlockAt(0)
		off := bi.Offset + 1
		_, k := binary.Uvarint(data[off:])
		off += int64(k)
		_, k = binary.Uvarint(data[off:])
		off += int64(k)
		for col := 0; col < colRankIdx(); col++ {
			off += bi.ColLens[col]
		}
		return data, off // the rank segment's codec id byte
	}
	patch := func(data []byte, at int64, b byte) []byte {
		out := bytes.Clone(data)
		out[at] = b
		return out
	}
	const top = 1<<31 - 1
	high, hseg := build([]int32{top - 4, top, top - 4, top, top - 4}, CodecForceFOR)
	low, lseg := build([]int32{1, 2, 3, 4, 1, 2, 3, 4}, CodecForceFOR)
	dict, dseg := build([]int32{1, 2, 3, 1, 2, 3, 1, 2}, CodecForceDict)
	return []craftedLog{
		{"for: header admits past MaxInt32, rows inside", high, true},
		// codec id, 5-byte base, width byte, then row 0's three offset bits
		{"for: row 0 past MaxInt32", patch(high, hseg+7, high[hseg+7]|0x07), false},
		{"for: ranks 1..4", low, true},
		{"for: base rewritten to -1", patch(low, lseg+1, 1 /* zigzag(-1) */), false},
		{"dict: ranks 1..3", dict, true},
		// codec id, nd, three entries, width byte, packed byte 0; row 7 is
		// the top two bits of packed byte 1
		{"dict: last row's index = nd", patch(dict, dseg+7, dict[dseg+7]|0xC0), false},
	}
}

// TestCraftedRankLogs pins what the crafted fuzz seeds are: the patched
// bytes land where the comments say, and the block reader's verdicts are
// the decoder's.
func TestCraftedRankLogs(t *testing.T) {
	for _, cl := range craftedRankLogs(t) {
		br, err := NewBlockReader(bytes.NewReader(cl.data), int64(len(cl.data)))
		if err != nil {
			t.Fatalf("%s: %v", cl.name, err)
		}
		_, err = br.DecodeEvents(0, nil)
		if (err == nil) != cl.accept {
			t.Errorf("%s: DecodeEvents error %v, want accepted = %v", cl.name, err, cl.accept)
		}
		if err != nil && !errors.Is(err, ErrBadFormat) {
			t.Errorf("%s: error %v is not ErrBadFormat", cl.name, err)
		}
		bd, err := br.ReadBlock(0)
		if err != nil {
			t.Fatalf("%s: %v", cl.name, err)
		}
		var cols Columns
		if _, err = bd.Decode(ColRank, &cols); (err == nil) != cl.accept {
			t.Errorf("%s: projected decode error %v, want accepted = %v", cl.name, err, cl.accept)
		}
		cols.Recycle(ColRank)
	}
}

// CharacterizeLog, when set, runs the whole characterization pipeline over
// a log that opened and returns an error only for a failure the pipeline is
// not allowed to have. Package trace sits below the analyzer and cannot
// import it, so the external half of this test package
// (characterize_test.go) installs the hook.
var CharacterizeLog func(br *BlockReader) error

// FuzzBlockReader hardens the seekable path: corrupt blocks,
// truncated footers, and arbitrary garbage must surface as ErrBadFormat —
// never a panic, a hang, or an unbounded allocation — whatever does decode
// must round-trip, and any log that opens must characterize without a
// panic: decodable events are not yet trustworthy events.
func FuzzBlockReader(f *testing.F) {
	seed := fuzzSeedTrace(f)
	// Seeds span every segment codec, both cost-model chosen and forced on,
	// and every retired vintage — which must be refused, whole or mangled,
	// and never read as something else.
	var logs [][]byte
	for _, opt := range []V2Options{
		{BlockEvents: 1}, {BlockEvents: 1, Compress: true}, {},
		{BlockEvents: 1, Codec: CodecForceRaw},
		{BlockEvents: 1, Codec: CodecForceRLE},
		{BlockEvents: 1, Codec: CodecForceDict},
		{BlockEvents: 1, Codec: CodecForceFOR},
		{Codec: CodecForceFOR, Compress: true},
	} {
		var buf bytes.Buffer
		if err := WriteV2With(&buf, seed, opt); err != nil {
			f.Fatal(err)
		}
		logs = append(logs, buf.Bytes())
	}
	for _, v := range OldVintages(f) {
		logs = append(logs, v.Data)
	}
	for _, valid := range logs {
		f.Add(valid)
		f.Add(valid[:len(valid)/2])
		if len(valid) > trailerLen {
			f.Add(valid[:len(valid)-trailerLen]) // footer trailer gone
			f.Add(valid[:len(valid)-trailerLen/2])
		}
		mutated := append([]byte(nil), valid...)
		if len(mutated) > 30 {
			mutated[len(mutated)/2] ^= 0xff
		}
		f.Add(mutated)
	}
	// Bit-flip sweep over a v2.2 log's block payloads: flips land in codec
	// id bytes, dict widths, and packed index/offset words, so every decode
	// kernel sees crafted claims.
	{
		var buf bytes.Buffer
		if err := WriteV2With(&buf, seed, V2Options{BlockEvents: 1}); err != nil {
			f.Fatal(err)
		}
		valid := buf.Bytes()
		for pos := len(magicV2); pos < len(valid)-trailerLen; pos += 3 {
			mutated := append([]byte(nil), valid...)
			mutated[pos] ^= 1 << (pos % 8)
			f.Add(mutated)
		}
	}
	// Multi-row blocks under forced dict and FOR, bit-flip swept: these land
	// corruption in dictionary sizes, pack widths, code words and FOR bases —
	// the wire claims the compressed-domain SegCursor paths (code-space
	// iteration, run coalescing, header min/max) must reject as ErrBadFormat
	// rather than mis-iterate or panic.
	{
		big := NewTracer()
		big.SetMeta(Meta{Workload: "fuzz", Nodes: 2, Ranks: 4, PFSDir: "/p/gpfs1"})
		id := big.FileID("/p/gpfs1/f")
		for i := 0; i < 48; i++ {
			op := OpWrite
			if i%3 == 0 {
				op = OpRead
			}
			big.Record(Event{Op: op, Rank: int32(i / 6 % 4), File: id,
				Offset: int64(i) * 512, Size: int64(i%7) * 64,
				Start: time.Duration(i + 1), End: time.Duration(i + 2)})
		}
		bigTr := big.Finish()
		// A log every decoder accepts whose event names a file past the
		// header's interned table: the analyzer indexed the table by it.
		{
			crafted := *bigTr
			crafted.Events = append([]Event(nil), bigTr.Events[:20]...)
			crafted.Events[10].File = int32(len(crafted.Files)) + 7
			for _, opt := range []V2Options{{}, {BlockEvents: 16, Codec: CodecForceRaw}} {
				var buf bytes.Buffer
				if err := WriteV2With(&buf, &crafted, opt); err != nil {
					f.Fatal(err)
				}
				f.Add(buf.Bytes())
			}
		}
		for _, opt := range []V2Options{
			{BlockEvents: 16, Codec: CodecForceDict},
			{BlockEvents: 16, Codec: CodecForceFOR},
			{BlockEvents: 16, Codec: CodecForceRLE},
		} {
			var buf bytes.Buffer
			if err := WriteV2With(&buf, bigTr, opt); err != nil {
				f.Fatal(err)
			}
			valid := buf.Bytes()
			f.Add(valid)
			for pos := len(magicV2); pos < len(valid)-trailerLen; pos += 5 {
				mutated := append([]byte(nil), valid...)
				mutated[pos] ^= 1 << (pos % 8)
				f.Add(mutated)
			}
		}
	}
	// The checks the typed decoder makes while it stores: rank segments whose
	// header could hold a value past MaxInt32 though no row does, and the same
	// logs with one packed offset, the base or a dictionary index pushed out.
	for _, crafted := range craftedRankLogs(f) {
		f.Add(crafted.data)
	}
	// The smallest block a writer emits: one event, every field one byte —
	// the payload the count floor once refused.
	for _, opt := range []V2Options{{}, {Compress: true}} {
		var buf bytes.Buffer
		if err := WriteV2With(&buf, smallTrace(1), opt); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte(magicV2))
	f.Add([]byte("garbage"))

	f.Fuzz(func(t *testing.T, data []byte) {
		br, err := NewBlockReader(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			if !errors.Is(err, ErrBadFormat) {
				t.Fatalf("open error %v does not wrap ErrBadFormat", err)
			}
			return
		}
		for _, m := range []string{"VANIIDX2", "VANIIDX3"} {
			if bytes.HasSuffix(data, []byte(m)) {
				t.Fatalf("a log with the retired %s footer opened", m)
			}
		}
		if CharacterizeLog != nil {
			if err := CharacterizeLog(br); err != nil {
				t.Fatalf("characterizing a log that opened: %v", err)
			}
		}
		var evs []Event
		for k := 0; k < br.NumBlocks(); k++ {
			evs, err = br.DecodeEvents(k, evs)
			if err != nil {
				if !errors.Is(err, ErrBadFormat) {
					t.Fatalf("block %d decode error %v does not wrap ErrBadFormat", k, err)
				}
				return
			}
			// The projected path must agree with the full decode even on
			// fuzzer-crafted footers (corrupt column ranges surface as
			// ErrBadFormat in ReadBlock or Decode, never as a panic).
			bd, err := br.ReadBlock(k)
			if err != nil {
				if !errors.Is(err, ErrBadFormat) {
					t.Fatalf("block %d: ReadBlock error %v does not wrap ErrBadFormat", k, err)
				}
				return
			}
			var pcols Columns
			if _, err := bd.Decode(ColStart|ColRank, &pcols); err != nil {
				if !errors.Is(err, ErrBadFormat) {
					t.Fatalf("block %d: projected decode error %v does not wrap ErrBadFormat", k, err)
				}
				return
			}
			// A crafted footer may legally re-partition the column ranges, so
			// only the row count is asserted here; value equality is pinned by
			// the unit tests over writer-produced logs.
			if pcols.N != len(evs) {
				t.Fatalf("block %d: projected decode sees %d rows, row decode %d", k, pcols.N, len(evs))
			}
			// The compressed-domain cursors must reject crafted segments as
			// ErrBadFormat and, when they accept one, iterate structures that
			// tile the block exactly — never panic or run past the row count.
			for col := 0; col < NumCols; col++ {
				cur, err := bd.SegCursorAt(col)
				if err != nil {
					if !errors.Is(err, ErrBadFormat) {
						t.Fatalf("block %d col %d: cursor error %v does not wrap ErrBadFormat", k, col, err)
					}
					continue
				}
				if cur == nil {
					continue
				}
				if runs := cur.Runs(); runs != nil {
					total := 0
					for _, r := range runs {
						total += int(r.N)
					}
					if total != cur.Rows() {
						t.Fatalf("block %d col %d: runs cover %d of %d rows", k, col, total, cur.Rows())
					}
				}
				if nd := cur.NumCodes(); nd > 0 {
					rows := 0
					cur.ForEachCode(func(code uint32) bool {
						if int(code) >= nd {
							t.Fatalf("block %d col %d: code %d out of %d", k, col, code, nd)
						}
						rows++
						return true
					})
					if rows != cur.Rows() {
						t.Fatalf("block %d col %d: %d codes for %d rows", k, col, rows, cur.Rows())
					}
				}
				_, _ = cur.ConstVal() // exercised for panics only
			}
		}
	})
}
