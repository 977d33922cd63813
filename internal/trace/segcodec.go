package trace

// Per-segment lightweight codecs for the columnar block payload. Real trace
// columns are wildly skewed — Level/Op/Lib take a handful of values, Rank
// arrives in sorted-ish runs after the tracer's sort, Start/End deltas are
// near-constant — so each segment independently picks the lightweight
// encoding a cheap cost model says is smallest:
//
//	segRaw  (0): count × varint/uvarint.
//	segRLE  (1): runs of (value, uvarint runLen≥1); run lengths sum to count.
//	segDict (2): uvarint ndict; ndict × value in first-appearance order;
//	             byte width; ceil(count·width/8) bytes of bit-packed dict
//	             indices, LSB-first (width = bits(ndict-1)).
//	segFOR  (3): value base (the minimum); byte width (0..64);
//	             ceil(count·width/8) bytes of bit-packed (v − base) offsets,
//	             LSB-first. Subtraction is mod 2^64, so any int64 range packs.
//
// "value" is uvarint for the unsigned columns (Level/Op/Lib) and zigzag
// varint for the rest. Every codec operates on the same stored-value stream
// — Start/End encode their delta chains, every other column its raw values
// — so the choice of codec never changes a decoded value. Every segment
// begins with its codec id byte, which the reader checks against the id the
// footer repeats; codec-mix statistics read the footer and never touch
// block bytes.
//
// The decoder (decodeSeg) is generic over the column's element type and
// writes a whole segment into the target column slice in one pass; the
// slices themselves are recycled block-capacity columns (colpool.go), so
// the hot FromBlocksSpecContext path is near-zero-alloc. All allocations are
// bounded by the validated block count and by real input bytes: run lengths
// must sum exactly to count, dict sizes may not exceed count, and
// bit-packed bodies must be fully backed by segment bytes — oversized
// claims are ErrBadFormat, never an OOM.

import (
	"encoding/binary"
	"math"
	"math/bits"
	"sync"
)

// Segment codec ids (the first byte of every column segment).
const (
	segRaw       = 0
	segRLE       = 1
	segDict      = 2
	segFOR       = 3
	numSegCodecs = 4
)

// NumSegCodecs is the number of segment codecs; codec-mix counters
// (colstore.ScanStats, /metrics) are indexed by codec id below it.
const NumSegCodecs = numSegCodecs

// maxDictValues bounds the distinct-value set the dictionary codec will
// consider; columns with more values than this never win on size anyway.
const maxDictValues = 1 << 12

// unsignedCols marks the columns whose stored values are unsigned
// (uvarint-encoded): Level, Op, Lib.
const unsignedCols ColSet = ColLevel | ColOp | ColLib

// i64Pool recycles []int64 scratch — the encoder's dictionary indices and
// the decoder's dictionary table, never a staged column; capacity matches
// the default block size so steady state never reallocates.
var i64Pool = sync.Pool{
	New: func() interface{} {
		s := make([]int64, 0, DefaultBlockEvents)
		return &s
	},
}

func getI64(n int) *[]int64 {
	p := i64Pool.Get().(*[]int64)
	if cap(*p) < n {
		*p = make([]int64, n)
	}
	*p = (*p)[:n]
	return p
}

func putI64(p *[]int64) { i64Pool.Put(p) }

// appendStoredValue appends one stored value in the column's wire encoding.
func appendStoredValue(dst []byte, v int64, unsigned bool) []byte {
	if unsigned {
		return binary.AppendUvarint(dst, uint64(v))
	}
	return binary.AppendVarint(dst, v)
}

// storedValue reads one stored value in the column's wire encoding.
func (c *byteCursor) storedValue(unsigned bool) int64 {
	if unsigned {
		return int64(c.uvarint())
	}
	return c.varint()
}

// storedValueLen returns the wire size of one stored value.
func storedValueLen(v int64, unsigned bool) int {
	u := uint64(v)
	if !unsigned {
		u = uint64(v<<1) ^ uint64(v>>63) // zigzag, as AppendVarint does
	}
	return (bits.Len64(u|1) + 6) / 7
}

// packedLen returns the byte length of n bit-packed values of the given
// width.
func packedLen(n int, width uint) int {
	return (n*int(width) + 7) / 8
}

// bitsFor returns the pack width needed for offsets in [0, span].
func bitsFor(span uint64) uint { return uint(bits.Len64(span)) }

// appendPacked bit-packs (v − base) mod 2^64 for each value, LSB-first into
// little-endian bytes. width must satisfy (v−base) < 2^width for every v.
func appendPacked(dst []byte, vals []int64, base uint64, width uint) []byte {
	if width == 0 {
		return dst
	}
	var acc uint64 // pending low bits
	var nb uint    // valid bits in acc, < 8 at loop entry
	for _, v := range vals {
		u := uint64(v) - base
		lo := acc | u<<nb
		var hi uint64
		if nb > 0 {
			hi = u >> (64 - nb)
		}
		total := nb + width
		for total >= 8 {
			dst = append(dst, byte(lo))
			lo = lo>>8 | hi<<56
			hi >>= 8
			total -= 8
		}
		acc, nb = lo, total
	}
	if nb > 0 {
		dst = append(dst, byte(acc))
	}
	return dst
}

// maxWordWidth is the widest value one unaligned 8-byte load always covers:
// the value starts at most 7 bits into the word.
const maxWordWidth = 56

// wordUnpackable returns how many leading values of an n-value stream at
// width <= maxWordWidth can each be read with one 8-byte load that stays
// inside srcLen bytes; the rest — the values starting in the last seven
// bytes — are read from a zero-padded copy (packedTail).
func wordUnpackable(srcLen, n int, width uint) int {
	if srcLen < 8 {
		return 0
	}
	return min(n, ((srcLen-8)*8+7)/int(width)+1)
}

// unpackBytes streams the values of an n-value width-bit LSB-first stream
// through fn, refilling a 128-bit window a byte at a time; fn returning
// false stops the walk. It serves every width up to 64 and reads no byte
// past the stream's last.
func unpackBytes(src []byte, n int, width uint, fn func(u uint64) bool) {
	mask := uint64(1)<<width - 1
	if width == 64 {
		mask = ^uint64(0)
	}
	var lo, hi uint64 // 128-bit window: bits fill lo first
	var nb uint
	pos := 0
	for range n {
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
		if !fn(lo & mask) {
			return
		}
		lo = lo>>width | hi<<(64-width)
		if width == 64 {
			lo = hi
		}
		hi >>= width
		nb -= width
	}
}

// segScratch is the per-worker encoder state: the stored-value staging
// slice and the dictionary table, both reused across segments and blocks.
type segScratch struct {
	vals []int64
	dict dictTable
}

var segScratchPool = sync.Pool{
	New: func() interface{} {
		return &segScratch{vals: make([]int64, 0, DefaultBlockEvents)}
	},
}

// dictTable is the encoder's reusable distinct-value table: an
// open-addressed (linear probing) int64 hash set that hands each value its
// first-appearance code. A slot is live only while its stamp equals the
// table's generation, so emptying the table is one increment, not a clear.
// It starts at 2 × maxDictValues slots, which the cost model never fills
// past half, and doubles at three-quarters full, which only a dictionary
// forced onto a column of many values reaches.
type dictTable struct {
	slots []dictSlot
	shift uint    // 64 − log2(len(slots)): hash to slot index
	gen   uint32  // the live generation; never 0
	order []int64 // the values in first-appearance order: order[code]
}

type dictSlot struct {
	val   int64
	stamp uint32
	code  uint32
}

// reset empties the table.
func (t *dictTable) reset() {
	if t.slots == nil {
		t.resize(2 * maxDictValues)
	}
	if t.gen++; t.gen == 0 {
		clear(t.slots)
		t.gen = 1
	}
	t.order = t.order[:0]
}

// resize replaces the slots with n empty ones (n a power of two) and
// re-enters the values already coded.
func (t *dictTable) resize(n int) {
	t.slots = make([]dictSlot, n)
	t.shift = uint(64 - bits.TrailingZeros(uint(n)))
	t.gen = 1
	for c, v := range t.order {
		i := t.find(v)
		t.slots[i] = dictSlot{val: v, stamp: t.gen, code: uint32(c)}
	}
}

// find returns the slot that holds v, or the empty slot where v belongs.
func (t *dictTable) find(v int64) int {
	mask := len(t.slots) - 1
	i := int(uint64(v) * 0x9e3779b97f4a7c15 >> t.shift)
	for t.slots[i].stamp == t.gen && t.slots[i].val != v {
		i = (i + 1) & mask
	}
	return i
}

// code returns v's code and whether v was new, giving a new value the next
// code.
func (t *dictTable) code(v int64) (uint32, bool) {
	i := t.find(v)
	if s := &t.slots[i]; s.stamp == t.gen {
		return s.code, false
	}
	c := uint32(len(t.order))
	t.order = append(t.order, v)
	if len(t.order) > len(t.slots)*3/4 {
		t.resize(2 * len(t.slots))
		return c, true
	}
	t.slots[i] = dictSlot{val: v, stamp: t.gen, code: c}
	return c, true
}

// storedVals stages column col of evs as its stored-value stream (raw
// values, or the delta chain for Start/End) into sc.vals.
func (sc *segScratch) storedVals(col int, evs []Event) []int64 {
	if cap(sc.vals) < len(evs) {
		sc.vals = make([]int64, len(evs))
	}
	vals := sc.vals[:len(evs)]
	switch ColSet(1) << col {
	case ColLevel:
		for i := range evs {
			vals[i] = int64(evs[i].Level)
		}
	case ColOp:
		for i := range evs {
			vals[i] = int64(evs[i].Op)
		}
	case ColLib:
		for i := range evs {
			vals[i] = int64(evs[i].Lib)
		}
	case ColRank:
		for i := range evs {
			vals[i] = int64(evs[i].Rank)
		}
	case ColNode:
		for i := range evs {
			vals[i] = int64(evs[i].Node)
		}
	case ColApp:
		for i := range evs {
			vals[i] = int64(evs[i].App)
		}
	case ColFile:
		for i := range evs {
			vals[i] = int64(evs[i].File)
		}
	case ColOffset:
		for i := range evs {
			vals[i] = evs[i].Offset
		}
	case ColSize:
		for i := range evs {
			vals[i] = evs[i].Size
		}
	case ColStart:
		prev := int64(0)
		for i := range evs {
			s := int64(evs[i].Start)
			vals[i] = s - prev
			prev = s
		}
	case ColEnd:
		prev := int64(0)
		for i := range evs {
			e := int64(evs[i].End)
			vals[i] = e - prev
			prev = e
		}
	}
	sc.vals = vals
	return vals
}

// chooseSegCodec runs the cost model: the exact body size of every
// candidate encoding decides, the smallest winning (ties break toward the
// earlier codec id, so the choice is deterministic). One pass sizes raw,
// RLE and FOR; the dictionary is then counted only as far as it can still
// win, and abandoned past maxDictValues values.
func chooseSegCodec(vals []int64, unsigned bool, tab *dictTable) uint8 {
	n := len(vals)
	if n == 0 {
		return segRaw
	}
	rawBytes := 0
	rleBytes := 0
	runLen := 0
	lo, hi := vals[0], vals[0]
	for i, v := range vals {
		sz := storedValueLen(v, unsigned)
		rawBytes += sz
		if i > 0 && v == vals[i-1] {
			// Nothing new: lo and hi saw this value one element ago.
			runLen++
			continue
		}
		if i > 0 {
			rleBytes += lenUvarint(uint64(runLen))
		}
		rleBytes += sz
		runLen = 1
		lo, hi = min(lo, v), max(hi, v)
	}
	rleBytes += lenUvarint(uint64(runLen))

	best, bestBytes := uint8(segRaw), rawBytes
	if rleBytes < bestBytes {
		best, bestBytes = segRLE, rleBytes
	}
	forBytes := storedValueLen(lo, unsigned) + 1 + packedLen(n, bitsFor(uint64(hi)-uint64(lo)))
	// The dictionary wins if it is strictly smaller than raw and RLE and no
	// larger than FOR.
	if dictFits(vals, unsigned, tab, min(bestBytes-1, forBytes)) {
		return segDict
	}
	if forBytes < bestBytes {
		return segFOR
	}
	return best
}

// dictFits reports whether the dictionary encoding of vals has at most
// maxDictValues values and takes at most ceiling bytes. It counts the
// distinct values into tab and stops as soon as the size of the values seen
// so far, lenUvarint(nd) + their bytes + 1 + packedLen(n, bitsFor(nd−1)),
// passes the ceiling: that bound only grows with every new value, and once
// every value is seen it is the exact size.
func dictFits(vals []int64, unsigned bool, tab *dictTable, ceiling int) bool {
	tab.reset()
	n := len(vals)
	valBytes := 0
	for i, v := range vals {
		if i > 0 && v == vals[i-1] {
			continue
		}
		if _, added := tab.code(v); !added {
			continue
		}
		nd := len(tab.order)
		if nd > maxDictValues {
			return false
		}
		valBytes += storedValueLen(v, unsigned)
		if lenUvarint(uint64(nd))+valBytes+1+packedLen(n, bitsFor(uint64(nd-1))) > ceiling {
			return false
		}
	}
	return true
}

func lenUvarint(u uint64) int { return (bits.Len64(u|1) + 6) / 7 }

// appendSegBody encodes the stored values under the chosen codec; the
// dictionary codec codes them through tab. The caller has already appended
// the codec id byte.
func appendSegBody(dst []byte, codec uint8, vals []int64, unsigned bool, tab *dictTable) []byte {
	n := len(vals)
	switch codec {
	case segRaw:
		for _, v := range vals {
			dst = appendStoredValue(dst, v, unsigned)
		}
	case segRLE:
		for i := 0; i < n; {
			j := i + 1
			for j < n && vals[j] == vals[i] {
				j++
			}
			dst = appendStoredValue(dst, vals[i], unsigned)
			dst = binary.AppendUvarint(dst, uint64(j-i))
			i = j
		}
	case segDict:
		// First-appearance order keeps the encoding deterministic and puts
		// the earliest values at the smallest indices.
		tab.reset()
		idx := getI64(n)
		defer putI64(idx)
		for i, v := range vals {
			if i > 0 && v == vals[i-1] {
				(*idx)[i] = (*idx)[i-1]
				continue
			}
			c, _ := tab.code(v)
			(*idx)[i] = int64(c)
		}
		order := tab.order
		dst = binary.AppendUvarint(dst, uint64(len(order)))
		for _, v := range order {
			dst = appendStoredValue(dst, v, unsigned)
		}
		w := bitsFor(uint64(len(order) - 1))
		dst = append(dst, byte(w))
		dst = appendPacked(dst, (*idx)[:n], 0, w)
	case segFOR:
		min := vals[0]
		max := vals[0]
		for _, v := range vals {
			if v < min {
				min = v
			} else if v > max {
				max = v
			}
		}
		w := bitsFor(uint64(max) - uint64(min))
		dst = appendStoredValue(dst, min, unsigned)
		dst = append(dst, byte(w))
		dst = appendPacked(dst, vals, uint64(min), w)
	}
	return dst
}

// appendColumnSeg encodes one column of evs as a segment (codec id byte +
// body) and returns the chosen codec. force < 0 runs the cost model.
func appendColumnSeg(dst []byte, col int, evs []Event, force int, sc *segScratch) ([]byte, uint8) {
	unsigned := ColSet(1)<<col&unsignedCols != 0
	vals := sc.storedVals(col, evs)
	var codec uint8
	if len(evs) == 0 {
		codec = segRaw
	} else if force >= 0 {
		codec = uint8(force)
	} else {
		codec = chooseSegCodec(vals, unsigned, &sc.dict)
	}
	dst = append(dst, codec)
	return appendSegBody(dst, codec, vals, unsigned, &sc.dict), codec
}

// colValue is the set of column element types.
type colValue interface{ uint8 | int32 | int64 }

// colSpec says how one column's stored values become column values.
type colSpec struct {
	unsigned bool // stored values are uvarints; zigzag varints otherwise
	// limit is the largest admissible stored value, compared unsigned so a
	// negative value reads as out of range; ^uint64(0) admits everything.
	limit uint64
}

// The value rules of the eleven columns: Level/Op/Lib truncate an unsigned
// value; App/File/Offset/Size and the Start/End delta chains a signed one;
// Rank and Node must fit a non-negative int32.
var (
	specUnsigned = colSpec{unsigned: true, limit: ^uint64(0)}
	specSigned   = colSpec{limit: ^uint64(0)}
	specIndex    = colSpec{limit: math.MaxInt32}
)

// The decode loops' failures are built out of line: an inlined badf would
// spill the loops' registers for a path no valid segment takes.

//go:noinline
func errValueRange(v int64) error { return badf("value %d out of range", v) }

//go:noinline
func errDictIndex(idx uint64, nd int) error { return badf("dictionary index %d out of %d", idx, nd) }

// decodeSeg decodes one segment body (the codec id byte already consumed)
// straight into out, in one pass whatever the codec: each stored value is
// read, checked against sp.limit, converted to T and stored — no staging
// slice, no second walk. The range check rides every row (one compare
// against a loop constant) rather than dictionary entries or headers, so a
// dictionary entry no row references is never judged, exactly as when the
// check followed the decode. Every wire claim is validated against the
// cursor's remaining bytes before it sizes anything. On success every
// element of out has been written; on error out holds a partly written
// prefix the caller must not publish.
func decodeSeg[T colValue](c *byteCursor, codec uint8, out []T, sp colSpec) error {
	switch codec {
	case segRaw:
		return decodeRaw(c, out, sp)
	case segRLE:
		return decodeRLE(c, out, sp)
	case segDict:
		return decodeDict(c, out, sp)
	case segFOR:
		return decodeFOR(c, out, sp)
	}
	return badf("unknown segment codec %d", codec)
}

// varintStops has the continuation bit of each byte of a word set: in
// ^word & varintStops, the lowest set bit marks the byte that ends a varint.
const varintStops = 0x8080808080808080

func decodeRaw[T colValue](c *byteCursor, out []T, sp colSpec) error {
	b, off := c.b, c.off
	unsigned, limit := sp.unsigned, sp.limit
	for i := range out {
		var u uint64
		k := 0
		if len(b)-off >= 8 {
			// One load covers any varint of up to eight bytes — every delta
			// of a Start/End chain — and finds its end without a branch per
			// byte; three folds then squeeze the continuation bits out.
			w := binary.LittleEndian.Uint64(b[off : off+8])
			if stop := ^w & varintStops; stop != 0 {
				nb := uint(bits.TrailingZeros64(stop)) + 1 // encoded bits: 8, 16 … 64
				w &= ^uint64(0) >> (64 - nb)
				w = w&0x007f007f007f007f | w&0x7f007f007f007f00>>1
				w = w&0x00003fff00003fff | w&0x3fff00003fff0000>>2
				u = w&0x000000000fffffff | w&0x0fffffff00000000>>4
				k = int(nb >> 3)
			}
		}
		if k == 0 { // the last seven bytes, or a nine- or ten-byte varint
			if u, k = binary.Uvarint(b[off:]); k <= 0 {
				c.err = badf("truncated varint at payload offset %d", off)
				return c.err
			}
		}
		off += k
		v := int64(u)
		if !unsigned {
			v = int64(u>>1) ^ -int64(u&1)
		}
		if uint64(v) > limit {
			return errValueRange(v)
		}
		out[i] = T(v)
	}
	c.off = off
	return nil
}

// fillRun stores one stored value into every row of run.
func fillRun[T colValue](run []T, v int64, limit uint64) error {
	if len(run) == 0 {
		return nil // no row holds the value, so nothing judges it
	}
	if uint64(v) > limit {
		return errValueRange(v)
	}
	tv := T(v)
	for i := range run {
		run[i] = tv
	}
	return nil
}

func decodeRLE[T colValue](c *byteCursor, out []T, sp colSpec) error {
	for filled := 0; filled < len(out); {
		v := c.storedValue(sp.unsigned)
		rl := c.uvarint()
		if c.err != nil {
			return c.err
		}
		if rl == 0 || rl > uint64(len(out)-filled) {
			return badf("run of %d values in segment holding %d more", rl, len(out)-filled)
		}
		if err := fillRun(out[filled:filled+int(rl)], v, sp.limit); err != nil {
			return err
		}
		filled += int(rl)
	}
	return nil
}

// packedTail copies the end of a packed stream, from the byte holding bit
// bit on, into a zero-padded buffer, so the values an 8-byte load of src
// would overrun (see wordUnpackable) decode by the same word loop. It
// returns the buffer and the bit offset of the first such value in it.
func packedTail(src []byte, bit uint) ([16]byte, uint) {
	var pad [16]byte
	copy(pad[:], src[bit>>3:])
	return pad, bit & 7
}

func decodeDict[T colValue](c *byteCursor, out []T, sp colSpec) error {
	n := len(out)
	nd := c.uvarint()
	if c.err != nil {
		return c.err
	}
	if nd == 0 || nd > uint64(n) {
		return badf("dictionary of %d values for %d rows", nd, n)
	}
	dp := getI64(int(nd))
	defer putI64(dp)
	tab := *dp
	for i := range tab {
		tab[i] = c.storedValue(sp.unsigned)
	}
	w, err := c.widthByte(32)
	if err != nil {
		return err
	}
	if want := bitsFor(nd - 1); w != want {
		return badf("dictionary of %d values packed at %d bits, want %d", nd, w, want)
	}
	packed, err := c.take(packedLen(n, w))
	if err != nil {
		return err
	}
	if w == 0 { // one entry, no index bits
		return fillRun(out, tab[0], sp.limit)
	}
	fast := wordUnpackable(len(packed), n, w)
	err = dictWords(packed, 0, w, tab, out[:fast], sp.limit)
	if err == nil && fast < n {
		pad, bit := packedTail(packed, uint(fast)*w)
		err = dictWords(pad[:], bit, w, tab, out[fast:], sp.limit)
	}
	return err
}

// dictWords looks len(out) w-bit indices up in tab, the first starting bit
// bits into src; each must be readable with one 8-byte load of src.
func dictWords[T colValue](src []byte, bit, w uint, tab []int64, out []T, limit uint64) error {
	mask := uint64(1)<<w - 1
	for i := range out {
		p := bit >> 3
		u := binary.LittleEndian.Uint64(src[p:p+8]) >> (bit & 7) & mask
		bit += w
		if u >= uint64(len(tab)) {
			return errDictIndex(u, len(tab))
		}
		v := tab[u]
		if uint64(v) > limit {
			return errValueRange(v)
		}
		out[i] = T(v)
	}
	return nil
}

func decodeFOR[T colValue](c *byteCursor, out []T, sp colSpec) error {
	n := len(out)
	base := uint64(c.storedValue(sp.unsigned))
	w, err := c.widthByte(64)
	if err != nil {
		return err
	}
	packed, err := c.take(packedLen(n, w))
	if err != nil {
		return err
	}
	if w == 0 { // a constant column
		return fillRun(out, int64(base), sp.limit)
	}
	if w > maxWordWidth {
		// A value this wide can straddle nine bytes; the byte-fed window
		// serves the few segments that span most of the int64 range.
		i := 0
		unpackBytes(packed, n, w, func(u uint64) bool {
			if base+u > sp.limit {
				err = errValueRange(int64(base + u))
				return false
			}
			out[i] = T(base + u)
			i++
			return true
		})
		return err
	}
	fast := wordUnpackable(len(packed), n, w)
	err = forWords(packed, 0, w, base, out[:fast], sp.limit)
	if err == nil && fast < n {
		pad, bit := packedTail(packed, uint(fast)*w)
		err = forWords(pad[:], bit, w, base, out[fast:], sp.limit)
	}
	return err
}

// forWords adds base (mod 2^64) to len(out) w-bit offsets, the first
// starting bit bits into src; each must be readable with one 8-byte load.
func forWords[T colValue](src []byte, bit, w uint, base uint64, out []T, limit uint64) error {
	mask := uint64(1)<<w - 1
	for i := range out {
		p := bit >> 3
		v := base + binary.LittleEndian.Uint64(src[p:p+8])>>(bit&7)&mask
		bit += w
		if v > limit {
			return errValueRange(int64(v))
		}
		out[i] = T(v)
	}
	return nil
}

// widthByte reads a bit-width byte bounded by max.
func (c *byteCursor) widthByte(max uint) (uint, error) {
	if c.err != nil {
		return 0, c.err
	}
	if c.off >= len(c.b) {
		c.err = badf("truncated width byte at payload offset %d", c.off)
		return 0, c.err
	}
	w := uint(c.b[c.off])
	c.off++
	if w > max {
		c.err = badf("pack width %d exceeds %d bits", w, max)
		return 0, c.err
	}
	return w, nil
}

// take consumes exactly n bytes, failing (never allocating) when the
// segment does not hold them.
func (c *byteCursor) take(n int) ([]byte, error) {
	if c.err != nil {
		return nil, c.err
	}
	if n < 0 || n > len(c.b)-c.off {
		c.err = badf("packed body of %d bytes exceeds %d remaining", n, len(c.b)-c.off)
		return nil, c.err
	}
	b := c.b[c.off : c.off+n]
	c.off += n
	return b, nil
}

// decodeColumnSeg decodes one segment (codec id byte + body) into the first n
// rows of the matching column of cols (already grown to n rows), under the
// column's value rule.
func decodeColumnSeg(c *byteCursor, col, n int, cols *Columns) error {
	if c.err != nil {
		return c.err
	}
	if c.off >= len(c.b) {
		c.err = badf("missing segment codec byte")
		return c.err
	}
	codec := c.b[c.off]
	c.off++
	switch ColSet(1) << col {
	case ColLevel:
		return decodeSeg(c, codec, cols.Level[:n], specUnsigned)
	case ColOp:
		return decodeSeg(c, codec, cols.Op[:n], specUnsigned)
	case ColLib:
		return decodeSeg(c, codec, cols.Lib[:n], specUnsigned)
	case ColRank:
		return decodeSeg(c, codec, cols.Rank[:n], specIndex)
	case ColNode:
		return decodeSeg(c, codec, cols.Node[:n], specIndex)
	case ColApp:
		return decodeSeg(c, codec, cols.App[:n], specSigned)
	case ColFile:
		return decodeSeg(c, codec, cols.File[:n], specSigned)
	case ColOffset:
		return decodeSeg(c, codec, cols.Offset[:n], specSigned)
	case ColSize:
		return decodeSeg(c, codec, cols.Size[:n], specSigned)
	case ColStart:
		return decodeDeltas(c, codec, cols.Start[:n])
	case ColEnd:
		return decodeDeltas(c, codec, cols.End[:n])
	}
	return badf("unknown column %d", col)
}

// decodeDeltas decodes a Start/End segment: the stored stream is the
// column's delta chain, the column its prefix sums.
func decodeDeltas(c *byteCursor, codec uint8, out []int64) error {
	if err := decodeSeg(c, codec, out, specSigned); err != nil {
		return err
	}
	var acc int64
	for i, d := range out {
		acc += d
		out[i] = acc
	}
	return nil
}
