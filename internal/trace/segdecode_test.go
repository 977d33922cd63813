package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// refDecodeSeg is the decoder the typed one replaced, reduced to its
// simplest form and kept as the reference: every stored value of a segment
// body staged as an int64 — standard-library varints, the byte-at-a-time
// unpack — with only the structural claims checked. The column's value rule
// is applied afterwards by refColumn, as it was when the narrowing copy
// followed the staged decode. It returns the values and the bytes consumed.
func refDecodeSeg(codec uint8, body []byte, n int, unsigned bool) ([]int64, int, error) {
	off := 0
	value := func() (int64, bool) {
		if unsigned {
			u, k := binary.Uvarint(body[off:])
			off += max(k, 0)
			return int64(u), k > 0
		}
		v, k := binary.Varint(body[off:])
		off += max(k, 0)
		return v, k > 0
	}
	take := func(k int) ([]byte, bool) {
		if k > len(body)-off {
			return nil, false
		}
		off += k
		return body[off-k : off], true
	}
	out := make([]int64, 0, n)
	switch codec {
	case segRaw:
		for len(out) < n {
			v, ok := value()
			if !ok {
				return nil, 0, badf("truncated value")
			}
			out = append(out, v)
		}
	case segRLE:
		for len(out) < n {
			v, ok := value()
			rl, k := binary.Uvarint(body[off:])
			if !ok || k <= 0 {
				return nil, 0, badf("truncated run")
			}
			off += k
			if rl == 0 || rl > uint64(n-len(out)) {
				return nil, 0, badf("bad run length %d", rl)
			}
			for ; rl > 0; rl-- {
				out = append(out, v)
			}
		}
	case segDict:
		nd, k := binary.Uvarint(body)
		if k <= 0 || nd == 0 || nd > uint64(n) {
			return nil, 0, badf("bad dictionary size")
		}
		off = k
		dict := make([]int64, nd)
		for i := range dict {
			var ok bool
			if dict[i], ok = value(); !ok {
				return nil, 0, badf("truncated dictionary")
			}
		}
		wb, ok := take(1)
		if !ok || uint(wb[0]) > 32 || uint(wb[0]) != bitsFor(nd-1) {
			return nil, 0, badf("bad dictionary width")
		}
		packed, ok := take(packedLen(n, uint(wb[0])))
		if !ok {
			return nil, 0, badf("truncated indices")
		}
		for _, idx := range unpackRef(packed, n, uint(wb[0])) {
			if idx >= nd {
				return nil, 0, badf("dictionary index %d out of %d", idx, nd)
			}
			out = append(out, dict[idx])
		}
	case segFOR:
		base, ok := value()
		if !ok {
			return nil, 0, badf("truncated base")
		}
		wb, ok := take(1)
		if !ok || wb[0] > 64 {
			return nil, 0, badf("bad pack width")
		}
		packed, ok := take(packedLen(n, uint(wb[0])))
		if !ok {
			return nil, 0, badf("truncated offsets")
		}
		for _, u := range unpackRef(packed, n, uint(wb[0])) {
			out = append(out, int64(uint64(base)+u))
		}
	default:
		return nil, 0, badf("unknown codec")
	}
	return out, off, nil
}

// refColumn applies a column's value rule to staged values the way the
// narrowing copy did: every row judged, nothing else.
func refColumn(vals []int64, sp colSpec) error {
	for _, v := range vals {
		if uint64(v) > sp.limit {
			return badf("value %d out of range", v)
		}
	}
	return nil
}

// checkAgainstRef decodes body with the typed decoder at all three column
// types under sp and requires the reference's verdict and values.
func checkAgainstRef(t testing.TB, codec uint8, body []byte, n int, sp colSpec) {
	t.Helper()
	want, used, refErr := refDecodeSeg(codec, body, n, sp.unsigned)
	if refErr == nil {
		refErr = refColumn(want, sp)
	}
	if refErr == nil && used != len(body) {
		// decodeTyped insists on a fully consumed body; compare prefixes.
		body = body[:used]
	}
	got, err := decodeTyped(t, codec, body, n, sp)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("codec %d n %d: typed decoder error %v, reference error %v", codec, n, err, refErr)
	}
	if err != nil {
		if !errors.Is(err, ErrBadFormat) {
			t.Fatalf("codec %d: error %v is not ErrBadFormat", codec, err)
		}
		return
	}
	if !slices.Equal(got, want) {
		t.Fatalf("codec %d n %d: typed decoder and reference disagree on values", codec, n)
	}
}

// dictBody builds a dictionary segment body from its parts.
func dictBody(dict []int64, width uint, packed []byte) []byte {
	body := binary.AppendUvarint(nil, uint64(len(dict)))
	for _, v := range dict {
		body = appendStoredValue(body, v, false)
	}
	body = append(body, byte(width))
	return append(body, packed...)
}

// TestDecoderRejectionParity: the range checks the typed decoder makes
// while it stores reject exactly what the narrowing copy rejected after a
// staged decode — judged per row, so a header or dictionary that merely
// could hold an out-of-range value is not an error until a row does.
func TestDecoderRejectionParity(t *testing.T) {
	idx := func(n int, w uint, at map[int]int64) []byte {
		vals := make([]int64, n)
		for i, v := range at {
			vals[i] = v
		}
		return appendPacked(nil, vals, 0, w)
	}
	const top = math.MaxInt32
	// n = 40 at two or three bits leaves a byte tail after the word loop.
	fast2 := wordUnpackable(packedLen(40, 2), 40, 2)
	cases := []struct {
		name   string
		codec  uint8
		body   []byte
		n      int
		accept bool
	}{
		{"for: header range crosses MaxInt32, rows do not", segFOR,
			forBody(top-4, 3, idx(40, 3, map[int]int64{0: 4, 39: 4})), 40, true},
		{"for: one row past MaxInt32 in the word loop", segFOR,
			forBody(top-4, 3, idx(40, 3, map[int]int64{3: 5})), 40, false},
		{"for: one row past MaxInt32 in the tail", segFOR,
			forBody(top-4, 3, idx(40, 3, map[int]int64{39: 7})), 40, false},
		{"for: negative base every row climbs out of", segFOR,
			forBody(-2, 2, idx(40, 2, allRows(40, 2))), 40, true},
		{"for: negative base, one row stays below zero", segFOR,
			forBody(-2, 2, idx(40, 2, without(allRows(40, 3), 17))), 40, false},
		{"for: constant out of range", segFOR, forBody(-1, 0, nil), 5, false},
		{"for: wide offsets wrap back into range", segFOR,
			forBody(-5, 64, idx(3, 64, map[int]int64{0: 5, 1: 6, 2: 7})), 3, true},
		{"dict: out-of-range entry no row references", segDict,
			dictBody([]int64{7, -1, 9}, 2, idx(40, 2, map[int]int64{5: 2})), 40, true},
		{"dict: out-of-range entry one row references", segDict,
			dictBody([]int64{7, -1, 9}, 2, idx(40, 2, map[int]int64{5: 1})), 40, false},
		{"dict: entry past MaxInt32 referenced in the tail", segDict,
			dictBody([]int64{7, top + 1}, 1, idx(40, 1, map[int]int64{39: 1})), 40, false},
		{"dict: index = nd at the last word-loop row", segDict,
			dictBody([]int64{7, 8, 9}, 2, idx(40, 2, map[int]int64{fast2 - 1: 3})), 40, false},
		{"dict: index = nd at the last row of the tail", segDict,
			dictBody([]int64{7, 8, 9}, 2, idx(40, 2, map[int]int64{39: 3})), 40, false},
		{"dict: index = nd - 1 everywhere", segDict,
			dictBody([]int64{7, 8, 9}, 2, idx(40, 2, allRows(40, 2))), 40, true},
		{"dict: width byte above bitsFor(nd-1)", segDict,
			dictBody([]int64{7, 8, 9}, 3, idx(40, 3, nil)), 40, false},
		{"dict: width byte below bitsFor(nd-1)", segDict,
			dictBody([]int64{7, 8, 9}, 1, idx(40, 1, nil)), 40, false},
		{"dict: single out-of-range entry", segDict, dictBody([]int64{-3}, 0, nil), 4, false},
		{"rle: out-of-range run", segRLE, []byte{14 /*7*/, 3, 1 /*-1*/, 1}, 4, false},
		{"raw: MaxInt32 itself", segRaw, appendSegBody(nil, segRaw, []int64{0, top}, false, new(dictTable)), 2, true},
		{"raw: MaxInt32 + 1", segRaw, appendSegBody(nil, segRaw, []int64{0, top + 1}, false, new(dictTable)), 2, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkAgainstRef(t, tc.codec, tc.body, tc.n, specIndex)
			// Through the column dispatch: rank and node carry the rule,
			// app and file truncate and accept everything well-formed.
			seg := append([]byte{tc.codec}, tc.body...)
			for _, col := range []ColSet{ColRank, ColNode, ColApp, ColFile} {
				var cols Columns
				cols.grow(tc.n)
				err := decodeColumnSeg(&byteCursor{b: seg}, colIdxOf(col), tc.n, &cols)
				want := tc.accept
				if col&(ColApp|ColFile) != 0 {
					_, _, refErr := refDecodeSeg(tc.codec, tc.body, tc.n, false)
					want = refErr == nil
				}
				if (err == nil) != want {
					t.Errorf("%s column: error %v, want accepted = %v", colNames[colIdxOf(col)], err, want)
				}
				if err != nil && !errors.Is(err, ErrBadFormat) {
					t.Errorf("%s column: error %v is not ErrBadFormat", colNames[colIdxOf(col)], err)
				}
			}
		})
	}
}

// allRows maps every row of an n-row stream to v.
func allRows(n int, v int64) map[int]int64 {
	m := make(map[int]int64, n)
	for i := 0; i < n; i++ {
		m[i] = v
	}
	return m
}

func without(m map[int]int64, row int) map[int]int64 {
	delete(m, row)
	return m
}

// TestDecodeIntoStaleMemory: recycled column slices are not zeroed, so the
// decoder alone stands between one request's rows and the next one's
// report. For every codec, column type, pack width and row count —
// including the ends of the word loop and its byte tail — a decode into a
// slice full of a sentinel equals the reference decode into fresh memory:
// every row of [0, n) was written, whatever the slice held before
// (decodeTyped poisons all three destinations).
func TestDecodeIntoStaleMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	widths := []uint{0, 1, 7, 8, 9, 14, 16, 31, 32, 33, 56, 57, 64}
	for _, n := range []int{1, 2, DefaultBlockEvents - 1, DefaultBlockEvents} {
		for _, sp := range []colSpec{specUnsigned, specSigned, specIndex} {
			for _, w := range widths {
				mask := ^uint64(0)
				if w < 64 {
					mask = uint64(1)<<w - 1
				}
				// FOR at the width: offsets drawn across it, both extremes
				// present when two rows allow.
				vals := make([]int64, n)
				for i := range vals {
					vals[i] = int64(rng.Uint64() & mask)
				}
				vals[0] = 0
				vals[n-1] = int64(mask)
				if sp == specIndex && w > 31 {
					continue // no rank spans more than 31 bits
				}
				base := int64(0)
				if !sp.unsigned && w < 63 && sp != specIndex {
					base = -int64(mask / 2)
				}
				body := appendStoredValue(nil, base, sp.unsigned)
				body = append(body, byte(w))
				body = appendPacked(body, vals, 0, w)
				checkAgainstRef(t, segFOR, body, n, sp)

				// Dict at the width, where a dictionary that wide fits the
				// rows: nd = 2^(w-1) + 1 entries is the least that packs at w.
				nd := 1
				if w > 0 {
					nd = 1<<(w-1) + 1
				}
				if w > 32 || nd > n {
					continue
				}
				dict := make([]int64, nd)
				for i := range dict {
					dict[i] = int64(rng.Uint32() >> 1)
					if !sp.unsigned && sp != specIndex && i%2 == 1 {
						dict[i] = -dict[i]
					}
				}
				idx := make([]int64, n)
				for i := range idx {
					idx[i] = int64(rng.Intn(nd))
				}
				idx[n-1] = int64(nd - 1)
				body = binary.AppendUvarint(nil, uint64(nd))
				for _, v := range dict {
					body = appendStoredValue(body, v, sp.unsigned)
				}
				body = append(body, byte(w))
				body = appendPacked(body, idx, 0, w)
				checkAgainstRef(t, segDict, body, n, sp)
			}
			// Raw and RLE have no width: one- to ten-byte varints, runs of
			// one row up to the whole segment.
			vals := make([]int64, n)
			for i := range vals {
				v := int64(rng.Uint64() >> (rng.Intn(8) * 8))
				if sp == specIndex {
					v &= math.MaxInt32
				} else if !sp.unsigned && i%3 == 0 {
					v = -v
				} else if sp.unsigned {
					v &= math.MaxInt64
				}
				vals[i] = v
			}
			checkAgainstRef(t, segRaw, appendSegBody(nil, segRaw, vals, sp.unsigned, new(dictTable)), n, sp)
			for i := 1; i < n; i++ {
				if rng.Intn(4) != 0 {
					vals[i] = vals[i-1]
				}
			}
			checkAgainstRef(t, segRLE, appendSegBody(nil, segRLE, vals, sp.unsigned, new(dictTable)), n, sp)
			for i := range vals {
				vals[i] = vals[0]
			}
			checkAgainstRef(t, segRLE, appendSegBody(nil, segRLE, vals, sp.unsigned, new(dictTable)), n, sp)
		}
	}
}

// TestDecodeDeltasStale: Start and End accumulate their delta chain over
// what the decoder stored, never over what the slice held.
func TestDecodeDeltasStale(t *testing.T) {
	deltas := []int64{100, 20, -30, 0, 0, 7, 1 << 40, -(1 << 39)}
	for codec := uint8(0); codec < numSegCodecs; codec++ {
		body := appendSegBody(nil, codec, deltas, false, new(dictTable))
		out := poison(make([]int64, len(deltas)))
		if err := decodeDeltas(&byteCursor{b: body}, codec, out); err != nil {
			t.Fatalf("%s: %v", segCodecNames[codec], err)
		}
		var acc int64
		for i, d := range deltas {
			if acc += d; out[i] != acc {
				t.Fatalf("%s row %d = %d, want %d", segCodecNames[codec], i, out[i], acc)
			}
		}
	}
}

// TestColumnPoolRecycles: Decode draws block columns from the pools,
// Recycle returns exactly what was drawn — including after a decode that
// failed half way — and a recycled slice, poisoned on its way in, never
// shows through the next decode.
func TestColumnPoolRecycles(t *testing.T) {
	poisonRecycled.Store(true)
	defer poisonRecycled.Store(false)
	data := encodeV2(t, allocTrace(DefaultBlockEvents+300), V2Options{})
	br, err := NewBlockReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	before := ColumnsInUse()
	var first [2]Columns
	for round := 0; round < 3; round++ {
		for k := 0; k < br.NumBlocks(); k++ {
			bd, err := br.ReadBlock(k)
			if err != nil {
				t.Fatal(err)
			}
			var cols Columns
			if _, err := bd.Decode(ColRank|ColSize|ColStart, &cols); err != nil {
				t.Fatal(err)
			}
			if _, err := bd.Decode(ColOp, &cols); err != nil { // additive
				t.Fatal(err)
			}
			if got := ColumnsInUse() - before; got != 4 {
				t.Fatalf("block %d: %d pooled columns in use after decoding four", k, got)
			}
			if round == 0 {
				first[k] = Columns{N: cols.N, Op: slices.Clone(cols.Op), Rank: slices.Clone(cols.Rank),
					Size: slices.Clone(cols.Size), Start: slices.Clone(cols.Start)}
			} else if !slices.Equal(cols.Op, first[k].Op) || !slices.Equal(cols.Rank, first[k].Rank) ||
				!slices.Equal(cols.Size, first[k].Size) || !slices.Equal(cols.Start, first[k].Start) {
				t.Fatalf("round %d block %d: a decode into recycled columns differs from the first", round, k)
			}
			cols.Recycle(AllCols)
			if cols.Op != nil || cols.Start != nil {
				t.Fatal("Recycle left a column behind")
			}
		}
	}
	// A segment that fails after its column was drawn: nothing stays out,
	// nothing partly written comes back.
	bd, err := br.ReadBlock(0)
	if err != nil {
		t.Fatal(err)
	}
	off := bd.segBase
	for col := 0; col < colIdxOf(ColSize); col++ {
		off += int(bd.colLens[col])
	}
	bd.payload = slices.Clone(bd.payload)
	bd.payload[off] = segDict // the size segment now claims a codec its body is not
	bd.payload[off+1] = 0     // … with an empty dictionary
	var cols Columns
	if _, err := bd.Decode(ColOp|ColSize|ColEnd, &cols); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("corrupt segment error = %v, want ErrBadFormat", err)
	}
	if cols.Op != nil || cols.Size != nil || cols.End != nil {
		t.Error("a failed Decode left a column in the caller's hands")
	}
	if got := ColumnsInUse(); got != before {
		t.Errorf("%d pooled columns still out after every path recycled", got-before)
	}
}

// FuzzDecodeSegDifferential: on arbitrary segment bodies the typed decoder,
// at each column type and under each value rule, returns the reference's
// verdict and the reference's values — and so does the column dispatch
// decoding the segment into pooled columns, which all go back to the pools.
func FuzzDecodeSegDifferential(f *testing.F) {
	vals := []int64{3, 3, 9, 1 << 20, 0, 3, 77, 77, 77, 5}
	for codec := uint8(0); codec < numSegCodecs; codec++ {
		f.Add(codec, uint16(len(vals)), appendSegBody(nil, codec, vals, false, new(dictTable)))
		f.Add(codec, uint16(len(vals)), appendSegBody(nil, codec, vals, true, new(dictTable)))
		f.Add(codec, uint16(len(vals)-1), appendSegBody(nil, codec, vals, false, new(dictTable)))
	}
	f.Add(uint8(segFOR), uint16(40), forBody(math.MaxInt32-4, 3, appendPacked(nil, make([]int64, 40), 0, 3)))
	f.Add(uint8(segFOR), uint16(3), forBody(-5, 64, appendPacked(nil, []int64{5, 6, 7}, 0, 64)))
	f.Add(uint8(segDict), uint16(40), dictBody([]int64{7, -1, 9}, 2, appendPacked(nil, make([]int64, 40), 0, 2)))
	f.Add(uint8(segDict), uint16(4), dictBody([]int64{7, 8, 9}, 2, []byte{0xff}))
	f.Add(uint8(segRaw), uint16(2), []byte{0x81, 0x80, 0x00, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, codec uint8, n uint16, body []byte) {
		if codec >= numSegCodecs {
			return
		}
		inUse := ColumnsInUse()
		seg := append([]byte{codec}, body...)
		// One column per value rule (see decodeColumnSeg).
		for col, sp := range map[ColSet]colSpec{ColLevel: specUnsigned, ColSize: specSigned, ColRank: specIndex} {
			checkAgainstRef(t, codec, body, int(n), sp)
			want, _, refErr := refDecodeSeg(codec, body, int(n), sp.unsigned)
			if refErr == nil {
				refErr = refColumn(want, sp)
			}
			var cols Columns
			cols.growSet(int(n), col)
			err := decodeColumnSeg(&byteCursor{b: seg}, colIdxOf(col), int(n), &cols)
			cols.Recycle(col)
			if (err == nil) != (refErr == nil) {
				t.Fatalf("%s column: error %v, reference error %v", colNames[colIdxOf(col)], err, refErr)
			}
		}
		if got := ColumnsInUse(); got != inUse {
			t.Fatalf("%d pooled columns never came back", got-inUse)
		}
	})
}
