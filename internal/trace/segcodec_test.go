package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// segCodecNames labels segment codec ids in failure messages.
var segCodecNames = [numSegCodecs]string{"raw", "rle", "dict", "for"}

// poison fills a destination column with the pools' sentinel, which no test
// value narrows to — the state a recycled slice arrives in: a row the decoder skipped
// shows up as a mismatch instead of hiding behind a zero.
func poison[T colValue](s []T) []T {
	poisonCol(s)
	return s
}

// decodeTyped decodes one segment body with the generic decoder at all
// three column types, each into a poisoned slice, and fails the test unless
// they agree: the same error or none, the same bytes consumed, and the
// narrow columns equal to the int64 one truncated. It returns the int64
// column and the error.
func decodeTyped(t testing.TB, codec uint8, body []byte, n int, sp colSpec) ([]int64, error) {
	t.Helper()
	c64 := &byteCursor{b: body}
	out64 := poison(make([]int64, n))
	err := decodeSeg(c64, codec, out64, sp)
	c32 := &byteCursor{b: body}
	out32 := poison(make([]int32, n))
	err32 := decodeSeg(c32, codec, out32, sp)
	c8 := &byteCursor{b: body}
	out8 := poison(make([]uint8, n))
	err8 := decodeSeg(c8, codec, out8, sp)
	if (err == nil) != (err32 == nil) || (err == nil) != (err8 == nil) {
		t.Fatalf("%s: int64 error %v, int32 error %v, uint8 error %v", segCodecNames[codec%numSegCodecs], err, err32, err8)
	}
	if err != nil {
		return nil, err
	}
	if c64.off != c32.off || c64.off != c8.off {
		t.Fatalf("%s: consumed %d / %d / %d bytes at int64 / int32 / uint8", segCodecNames[codec], c64.off, c32.off, c8.off)
	}
	if c64.off != len(body) {
		t.Fatalf("%s decode left %d trailing bytes", segCodecNames[codec], len(body)-c64.off)
	}
	for i, v := range out64 {
		if out32[i] != int32(v) || out8[i] != uint8(v) {
			t.Fatalf("%s row %d: int64 %#x, int32 %#x, uint8 %#x", segCodecNames[codec], i, v, out32[i], out8[i])
		}
	}
	return out64, nil
}

// forBody builds a FOR segment body around an already packed stream.
func forBody(base int64, width uint, packed []byte) []byte {
	body := appendStoredValue(nil, base, false)
	body = append(body, byte(width))
	return append(body, packed...)
}

// TestBitpackRoundTrip: appendPacked/decodeSeg round-trip at every width
// from 0 to 64, including values straddling word boundaries and the full
// int64 range under mod-2^64 frame-of-reference.
func TestBitpackRoundTrip(t *testing.T) {
	for width := uint(0); width <= 64; width++ {
		n := 97 // prime, so runs of bits misalign against byte boundaries
		vals := make([]int64, n)
		var max uint64
		if width == 64 {
			max = ^uint64(0)
		} else {
			max = uint64(1)<<width - 1
		}
		rng := uint64(0x9e3779b97f4a7c15)
		for i := range vals {
			rng = rng*6364136223846793005 + 1442695040888963407
			vals[i] = int64(rng & max)
		}
		if n > 1 {
			vals[0], vals[1] = 0, int64(max) // extremes always present
		}
		packed := appendPacked(nil, vals, 0, width)
		if got, want := len(packed), packedLen(n, width); got != want {
			t.Fatalf("width %d: packed %d bytes, want %d", width, got, want)
		}
		out, err := decodeTyped(t, segFOR, forBody(0, width, packed), n, specSigned)
		if err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		for i := range vals {
			if out[i] != vals[i] {
				t.Fatalf("width %d: value %d round-tripped %d -> %d", width, i, vals[i], out[i])
			}
		}
	}
}

// TestBitpackFullInt64Range: FOR's mod-2^64 base subtraction packs any
// int64 span, including MinInt64..MaxInt64 at width 64.
func TestBitpackFullInt64Range(t *testing.T) {
	vals := []int64{math.MinInt64, -1, 0, 1, math.MaxInt64, 42, math.MinInt64 + 1}
	min := int64(math.MinInt64)
	base := uint64(min)
	width := bitsFor(uint64(math.MaxInt64) - base)
	if width != 64 {
		t.Fatalf("span width = %d, want 64", width)
	}
	packed := appendPacked(nil, vals, base, width)
	out, err := decodeTyped(t, segFOR, forBody(min, width, packed), len(vals), specSigned)
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if out[i] != vals[i] {
			t.Fatalf("value %d round-tripped %d -> %d", i, vals[i], out[i])
		}
	}
}

// segRoundTrip encodes vals under the forced codec and decodes them back.
func segRoundTrip(t *testing.T, codec uint8, vals []int64, unsigned bool) {
	t.Helper()
	dst := append([]byte(nil), codec)
	dst = appendSegBody(dst, codec, vals, unsigned, new(dictTable))
	sp := specSigned
	if unsigned {
		sp = specUnsigned
	}
	out, err := decodeTyped(t, codec, dst[1:], len(vals), sp)
	if err != nil {
		t.Fatalf("%s decode: %v", segCodecNames[codec], err)
	}
	for i := range vals {
		if out[i] != vals[i] {
			t.Fatalf("%s: value %d round-tripped %d -> %d", segCodecNames[codec], i, vals[i], out[i])
		}
	}
}

// TestSegCodecRoundTrips: every codec round-trips every value shape, signed
// and unsigned, including extreme int64 values.
func TestSegCodecRoundTrips(t *testing.T) {
	shapes := map[string][]int64{
		"constant":  {7, 7, 7, 7, 7, 7, 7, 7},
		"runs":      {0, 0, 0, 5, 5, -3, -3, -3, -3, 9},
		"distinct":  {100, -200, 300, -400, 500, -600},
		"alternate": {1, 2, 1, 2, 1, 2, 1, 2, 1},
		"monotonic": {10, 11, 12, 13, 14, 15, 16},
		"extremes":  {math.MinInt64, math.MaxInt64, 0, -1, 1, math.MinInt64, math.MaxInt64},
		"single":    {-42},
	}
	for name, vals := range shapes {
		for codec := uint8(0); codec < numSegCodecs; codec++ {
			segRoundTrip(t, codec, vals, false)
		}
		// Unsigned path only for non-negative values (Level/Op/Lib shapes).
		neg := false
		for _, v := range vals {
			if v < 0 {
				neg = true
			}
		}
		if !neg {
			for codec := uint8(0); codec < numSegCodecs; codec++ {
				segRoundTrip(t, codec, vals, true)
			}
		}
		_ = name
	}
}

// TestChooseSegCodec: the cost model picks the expected codec on
// characteristic column shapes, and never picks one larger than raw.
func TestChooseSegCodec(t *testing.T) {
	dict := new(dictTable)
	// Long runs of many distinct wide values: RLE beats dict (too many
	// values to amortize) and FOR (wide span forces a fat pack width).
	runs := make([]int64, 1000)
	for i := range runs {
		runs[i] = int64(i/10) * 1000003
	}
	if got := chooseSegCodec(runs, false, dict); got != segRLE {
		t.Errorf("run column chose %s, want rle", segCodecNames[got])
	}

	// A constant column is the degenerate case where FOR's zero-width pack
	// (base + width byte only) beats even RLE's single run.
	constant := make([]int64, 1000)
	for i := range constant {
		constant[i] = 4
	}
	if got := chooseSegCodec(constant, true, dict); got != segFOR {
		t.Errorf("constant column chose %s, want for", segCodecNames[got])
	}

	alternating := make([]int64, 1000)
	for i := range alternating {
		alternating[i] = int64(1000000 + i%3*1000)
	}
	if got := chooseSegCodec(alternating, false, dict); got != segDict {
		t.Errorf("3-value alternating column chose %s, want dict", segCodecNames[got])
	}

	dense := make([]int64, 1000)
	for i := range dense {
		dense[i] = int64(1 << 40) // large constant deltas: FOR packs to width 0
	}
	dense[0] = 1<<40 + 1
	if got := chooseSegCodec(dense, false, dict); got == segRaw {
		t.Errorf("near-constant wide column chose raw")
	}

	// Whatever wins must encode no larger than raw.
	for _, vals := range [][]int64{runs, constant, alternating, dense} {
		chosen := chooseSegCodec(vals, false, dict)
		chosenBytes := len(appendSegBody(nil, chosen, vals, false, new(dictTable)))
		rawBytes := len(appendSegBody(nil, segRaw, vals, false, new(dictTable)))
		if chosenBytes > rawBytes {
			t.Errorf("%s encoded %d bytes > raw %d", segCodecNames[chosen], chosenBytes, rawBytes)
		}
	}
}

// cheapestSegCodec is the cost model's specification: the codec whose body
// is really the smallest, ties going to the earlier codec id, with the
// dictionary out of the running past maxDictValues distinct values. It also
// returns every codec's body size.
func cheapestSegCodec(vals []int64, unsigned bool) (uint8, [numSegCodecs]int) {
	var sizes [numSegCodecs]int
	for codec := uint8(0); codec < numSegCodecs; codec++ {
		sizes[codec] = len(appendSegBody(nil, codec, vals, unsigned, new(dictTable)))
	}
	distinct := make(map[int64]bool)
	for _, v := range vals {
		distinct[v] = true
	}
	best := uint8(segRaw)
	for codec := uint8(1); codec < numSegCodecs; codec++ {
		if codec == segDict && len(distinct) > maxDictValues {
			continue
		}
		if sizes[codec] < sizes[best] {
			best = codec
		}
	}
	return best, sizes
}

// TestChooseSegCodecExactSizes: the cost model picks exactly
// cheapestSegCodec's codec — for a spread of random shapes, at the
// dictionary's value limit and one past it, and where the dictionary ties
// FOR (the dictionary wins) or the smaller of raw and RLE (it loses). One
// table serves every column, as one encoder's scratch does.
func TestChooseSegCodecExactSizes(t *testing.T) {
	tab := new(dictTable)
	check := func(what string, vals []int64, unsigned bool) uint8 {
		t.Helper()
		want, sizes := cheapestSegCodec(vals, unsigned)
		if got := chooseSegCodec(vals, unsigned, tab); got != want {
			t.Fatalf("%s: model chose %s, want %s (sizes raw/rle/dict/for %v)",
				what, segCodecNames[got], segCodecNames[want], sizes)
		}
		return want
	}

	rng := uint64(12345)
	next := func(mod int64) int64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int64(rng>>33) % mod
	}
	for trial := 0; trial < 50; trial++ {
		n := 64 + int(next(512))
		vals := make([]int64, n)
		mode := trial % 4
		for i := range vals {
			switch mode {
			case 0:
				vals[i] = next(4)
			case 1:
				vals[i] = next(1<<30) + 1<<40
			case 2:
				vals[i] = next(8) * 1000003
			case 3:
				if i > 0 && next(10) < 7 {
					vals[i] = vals[i-1]
				} else {
					vals[i] = next(1 << 20)
				}
			}
		}
		check(fmt.Sprintf("trial %d", trial), vals, false)
		check(fmt.Sprintf("trial %d, unsigned", trial), vals, true)
	}

	// maxDictValues distinct wide values, cycled: the dictionary is by far
	// the smallest encoding. One more value and it is out of the running.
	for _, nd := range []int{maxDictValues, maxDictValues + 1} {
		vals := make([]int64, DefaultBlockEvents)
		for i := range vals {
			vals[i] = int64(i%nd)*1000003 + 1<<40
		}
		got := check(fmt.Sprintf("%d distinct values", nd), vals, false)
		if (got == segDict) != (nd <= maxDictValues) {
			t.Errorf("%d distinct values: chose %s", nd, segCodecNames[got])
		}
	}

	// 0 and 4 alternating, eight values: dictionary 1+2+1+1 bytes, FOR
	// 1+1+3, raw 8, RLE 16. The tie goes to the dictionary.
	tie := []int64{0, 4, 0, 4, 0, 4, 0, 4}
	if _, sizes := cheapestSegCodec(tie, true); sizes[segDict] != sizes[segFOR] {
		t.Fatalf("tie column sizes %v: dictionary and FOR differ", sizes)
	}
	if got := check("dictionary ties FOR", tie, true); got != segDict {
		t.Errorf("dictionary ties FOR: chose %s", segCodecNames[got])
	}

	// Small columns over few, mixed-width values: collect ties between the
	// dictionary and each of FOR and the smaller of raw and RLE.
	var tiesFOR, tiesRawRLE int
	for trial := 0; trial < 20000 && (tiesFOR < 10 || tiesRawRLE < 10); trial++ {
		n := 1 + int(next(24))
		alphabet := make([]int64, 1+next(6))
		for i := range alphabet {
			alphabet[i] = next(1 << (1 + next(20)))
		}
		vals := make([]int64, n)
		for i := range vals {
			if i > 0 && next(3) == 0 {
				vals[i] = vals[i-1]
			} else {
				vals[i] = alphabet[next(int64(len(alphabet)))]
			}
		}
		unsigned := trial%2 == 0
		_, sizes := cheapestSegCodec(vals, unsigned)
		got := check(fmt.Sprintf("small column %v", vals), vals, unsigned)
		if sizes[segDict] == sizes[segFOR] && sizes[segDict] < min(sizes[segRaw], sizes[segRLE]) {
			tiesFOR++
			if got != segDict {
				t.Fatalf("%v: dictionary ties FOR but %s won", vals, segCodecNames[got])
			}
		}
		if sizes[segDict] == min(sizes[segRaw], sizes[segRLE]) {
			tiesRawRLE++
			if got == segDict {
				t.Fatalf("%v: dictionary ties raw/RLE and won", vals)
			}
		}
	}
	if tiesFOR == 0 || tiesRawRLE == 0 {
		t.Fatalf("found %d dictionary/FOR and %d dictionary/raw-RLE ties, want some of each", tiesFOR, tiesRawRLE)
	}
}

// TestDictTableForcedManyValues: a dictionary forced onto a block of
// distinct values — more than the table starts with room for — codes
// every value in first-appearance order and round-trips.
func TestDictTableForcedManyValues(t *testing.T) {
	vals := make([]int64, DefaultBlockEvents)
	for i := range vals {
		vals[i] = int64(len(vals)-i) * 7919
	}
	tab := new(dictTable)
	for round := 0; round < 2; round++ {
		body := appendSegBody(nil, segDict, vals, false, tab)
		out, err := decodeTyped(t, segDict, body, len(vals), specSigned)
		if err != nil {
			t.Fatal(err)
		}
		for i := range vals {
			if out[i] != vals[i] {
				t.Fatalf("round %d: value %d round-tripped %d -> %d", round, i, vals[i], out[i])
			}
		}
		if len(tab.order) != len(vals) || tab.order[0] != vals[0] {
			t.Fatalf("round %d: %d values coded, first %d; want %d, first %d", round, len(tab.order), tab.order[0], len(vals), vals[0])
		}
	}
}

// TestDecodeSegCorrupt: oversized or malformed segment claims fail with
// ErrBadFormat before any unbounded allocation.
func TestDecodeSegCorrupt(t *testing.T) {
	cases := map[string]struct {
		codec uint8
		body  []byte
		n     int
	}{
		"rle run overflows count": {segRLE, []byte{2 /*val=1*/, 40 /*run=40*/}, 16},
		"rle zero run":            {segRLE, []byte{2, 0}, 16},
		"rle truncated":           {segRLE, []byte{2}, 16},
		"dict zero values":        {segDict, []byte{0}, 16},
		"dict more than rows":     {segDict, []byte{17}, 16},
		"dict wrong width":        {segDict, []byte{2, 2, 4, 9 /*width 9, want 1*/, 0, 0}, 16},
		"dict truncated packed":   {segDict, []byte{2, 2, 4, 1 /*width 1*/, 0}, 16},
		"dict index oob is impossible by width": {segDict,
			// ndict=3 width=2: packed index 3 is representable but out of dict.
			[]byte{3, 2, 4, 6, 2, 0xFF, 0xFF, 0xFF, 0xFF}, 16},
		"for width over 64":  {segFOR, []byte{0, 65}, 16},
		"for truncated body": {segFOR, []byte{0, 8, 1, 2}, 16},
		"unknown codec":      {numSegCodecs, []byte{}, 4},
	}
	for name, tc := range cases {
		_, err := decodeTyped(t, tc.codec, tc.body, tc.n, specSigned)
		if err == nil {
			t.Errorf("%s: decode succeeded", name)
			continue
		}
		if !errors.Is(err, ErrBadFormat) {
			t.Errorf("%s: error %v is not ErrBadFormat", name, err)
		}
	}
}

// TestFlateBombGuardAllCodecs: a flate frame whose declared decompressed
// length exceeds maxFlateRatio times the compressed bytes is rejected as
// ErrBadFormat before any allocation backs the claim.
func TestFlateBombGuardAllCodecs(t *testing.T) {
	// A tiny compressed body claiming a huge decompressed length.
	body := []byte{0x01, 0x02}
	frame := []byte{frameFlate}
	frame = binary.AppendUvarint(frame, uint64(len(body))*maxFlateRatio+1) // rawLen
	frame = binary.AppendUvarint(frame, uint64(len(body)))                 // compLen
	frame = append(frame, body...)
	if _, _, err := unwrapFrame(frame); !errors.Is(err, ErrBadFormat) {
		t.Errorf("bomb claim error = %v, want ErrBadFormat", err)
	}
	// At exactly the ratio the claim is admissible (the flate stream itself
	// is garbage here, which must also surface as ErrBadFormat, not a panic).
	frame = []byte{frameFlate}
	frame = binary.AppendUvarint(frame, uint64(len(body))*maxFlateRatio)
	frame = binary.AppendUvarint(frame, uint64(len(body)))
	frame = append(frame, body...)
	if _, _, err := unwrapFrame(frame); !errors.Is(err, ErrBadFormat) {
		t.Errorf("garbage flate error = %v, want ErrBadFormat", err)
	}
}

// TestV22CountClaimBounded: the payload count check admits RLE's
// legitimate amplification (16K rows from a few dozen bytes) while still
// bounding the claim by the validated block geometry.
func TestV22CountClaimBounded(t *testing.T) {
	// Legitimate: a full default block from a tiny RLE payload.
	if err := checkPayloadCount(DefaultBlockEvents, 1+3*NumCols, DefaultBlockEvents); err != nil {
		t.Errorf("RLE-amplified count rejected: %v", err)
	}
	// A claim above the block geometry is rejected.
	if err := checkPayloadCount(DefaultBlockEvents+1, 1<<16, DefaultBlockEvents); err == nil {
		t.Error("count above block size accepted")
	}
	// A non-empty block needs at least one codec byte + minimal body per
	// segment.
	if err := checkPayloadCount(1, 3, DefaultBlockEvents); err == nil {
		t.Error("count with sub-minimal payload accepted")
	}
}

// TestDecodeSegRuns: an RLE segment's runs expand to the values they
// encode, and a run longer than the rows left fails with ErrBadFormat.
func TestDecodeSegRuns(t *testing.T) {
	vals := []int64{5, 5, 5, -2, -2, 9, 9, 9, 9}
	body := appendSegBody(nil, segRLE, vals, false, new(dictTable))
	out := make([]int64, len(vals))
	if err := decodeSeg(&byteCursor{b: body}, segRLE, out, specSigned); err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if out[i] != vals[i] {
			t.Fatalf("row %d = %d, want %d", i, out[i], vals[i])
		}
	}
	if err := decodeSeg(&byteCursor{b: []byte{2, 200}}, segRLE, make([]int64, 9), specSigned); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("oversized run error = %v, want ErrBadFormat", err)
	}
}

// TestAppendSegV22Validation: full segments decoded through decodeColumnSeg
// enforce the v2.1 value rules (negative ranks rejected) and Start/End
// delta chains accumulate correctly.
func TestAppendSegV22Validation(t *testing.T) {
	evs := []Event{
		{Rank: 3, Start: 100, End: 150},
		{Rank: 5, Start: 120, End: 180},
		{Rank: 5, Start: 90, End: 200}, // out-of-order start: negative delta
	}
	sc := segScratchPool.Get().(*segScratch)
	defer segScratchPool.Put(sc)

	var cols Columns
	cols.grow(len(evs))
	for _, col := range []int{colRankIdx(), colStartIdx(), colEndIdx()} {
		for force := -1; force < numSegCodecs; force++ {
			seg, _ := appendColumnSeg(nil, col, evs, force, sc)
			c := &byteCursor{b: seg}
			if err := decodeColumnSeg(c, col, len(evs), &cols); err != nil {
				t.Fatalf("col %d force %d: %v", col, force, err)
			}
		}
	}
	for i, ev := range evs {
		if cols.Rank[i] != ev.Rank || cols.Start[i] != int64(ev.Start) || cols.End[i] != int64(ev.End) {
			t.Fatalf("row %d: got rank=%d start=%d end=%d, want %+v",
				i, cols.Rank[i], cols.Start[i], cols.End[i], ev)
		}
	}

	// A segment carrying a negative rank must be rejected on decode.
	bad := append([]byte{segRaw}, appendSegBody(nil, segRaw, []int64{-1, 2, 3}, false, new(dictTable))...)
	if err := decodeColumnSeg(&byteCursor{b: bad}, colRankIdx(), 3, &cols); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("negative rank error = %v, want ErrBadFormat", err)
	}
}

func colIdxOf(set ColSet) int {
	for i := 0; i < NumCols; i++ {
		if ColSet(1)<<i == set {
			return i
		}
	}
	panic("unknown column")
}

func colRankIdx() int  { return colIdxOf(ColRank) }
func colStartIdx() int { return colIdxOf(ColStart) }
func colEndIdx() int   { return colIdxOf(ColEnd) }

// unpackRef is the byte-at-a-time unpack the word loads replaced, kept as
// the reference: a 128-bit window refilled one byte per step.
func unpackRef(src []byte, n int, width uint) []uint64 {
	out := make([]uint64, 0, n)
	if width == 0 {
		return out[:n]
	}
	mask := ^uint64(0)
	if width < 64 {
		mask = uint64(1)<<width - 1
	}
	var lo, hi uint64
	var nb uint
	pos := 0
	for i := 0; i < n; i++ {
		for nb < width {
			b := uint64(src[pos])
			pos++
			if nb < 64 {
				lo |= b << nb
				if nb > 56 {
					hi |= b >> (64 - nb)
				}
			} else {
				hi |= b << (nb - 64)
			}
			nb += 8
		}
		out = append(out, lo&mask)
		lo = lo>>width | hi<<(64-width)
		if width == 64 {
			lo = hi
		}
		hi >>= width
		nb -= width
	}
	return out
}

// TestUnpackMatchesByteLoop: at every width 0–64 and every count 0–70 —
// streams shorter than one word, ending mid-byte, ending on a word edge —
// the FOR decoder and unpackBytes (whole, and stopped early) read random payloads
// exactly as the byte loop does, never touching a byte past the stream.
func TestUnpackMatchesByteLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for width := uint(0); width <= 64; width++ {
		for n := 0; n <= 70; n++ {
			// Exactly packedLen bytes, so an over-read panics.
			src := make([]byte, packedLen(n, width))
			rng.Read(src)
			want := unpackRef(src, n, width)
			base := rng.Uint64()
			out, err := decodeTyped(t, segFOR, forBody(int64(base), width, src), n, specSigned)
			if err != nil {
				t.Fatalf("width %d n %d: %v", width, n, err)
			}
			var each []uint64
			unpackBytes(src, n, width, func(u uint64) bool {
				each = append(each, u)
				return true
			})
			if len(each) != n {
				t.Fatalf("width %d n %d: unpackBytes yielded %d values", width, n, len(each))
			}
			for i := range want {
				if uint64(out[i]) != base+want[i] {
					t.Fatalf("width %d n %d: decoded value %d = %#x, want %#x", width, n, i, uint64(out[i]), base+want[i])
				}
				if each[i] != want[i] {
					t.Fatalf("width %d n %d: unpackBytes value %d = %#x, want %#x", width, n, i, each[i], want[i])
				}
			}
			if n > 0 {
				stop, seen := rng.Intn(n), 0
				unpackBytes(src, n, width, func(uint64) bool {
					seen++
					return seen <= stop
				})
				if seen != stop+1 {
					t.Fatalf("width %d n %d: walk stopped after %d values, want %d", width, n, seen, stop+1)
				}
			}
		}
	}
}
