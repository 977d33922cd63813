package trace

// SegCursor: compressed-domain access to one encoded column segment,
// the substrate the analyzer's kernel registry runs on without materializing
// rows:
//
//   - RLE segments iterate as value runs (Runs).
//   - Dict segments expose the dictionary (NumCodes / DictVal) plus
//     streaming code-space iteration (ForEachCode) — a predicate translates
//     into the code domain once per block.
//   - FOR segments of width 0 answer as the constant they are (ConstVal).
//
// Construction validates every wire claim — run totals, dictionary size and
// pack width, packed byte lengths, code bounds, trailing bytes — so corrupt
// segments surface as ErrBadFormat from SegCursorAt and the iteration
// methods themselves cannot fail. Start and End never get a cursor: their
// segments store delta chains, whose runs and ranges are not value runs or
// value ranges.

import (
	"encoding/binary"
	"fmt"
	"sync"
)

// SegCursor is a validated read cursor over one encoded column
// segment. The zero value is not useful; cursors come from
// BlockData.SegCursorAt.
type SegCursor struct {
	codec    uint8
	n        int
	unsigned bool

	runs []Run // segRLE: the decoded run summary

	dict   []int64 // segDict: stored values in first-appearance order
	packed []byte  // segDict: bit-packed codes; segFOR: bit-packed offsets
	width  uint

	base int64 // segFOR: the stored base (the encoder writes the minimum)
}

// segCursorFree recycles cursors (with their run and dictionary backing)
// between blocks, so steady-state compressed-domain scans construct
// cursors without allocating. A bounded freelist rather than a sync.Pool:
// cursor construction sits on the per-block critical path of every
// compressed-domain scan, and a pool's per-GC victim clearing would
// re-allocate the cursor and its backing on every collection cycle. The
// cap bounds retention; the critical section is a few pointer moves
// against milliseconds of per-block decode, so contention is negligible.
var segCursorFree struct {
	mu sync.Mutex
	s  []*SegCursor
}

const segCursorFreeCap = 16

func getSegCursor() *SegCursor {
	segCursorFree.mu.Lock()
	if n := len(segCursorFree.s); n > 0 {
		sc := segCursorFree.s[n-1]
		segCursorFree.s = segCursorFree.s[:n-1]
		segCursorFree.mu.Unlock()
		return sc
	}
	segCursorFree.mu.Unlock()
	return new(SegCursor)
}

// newSegCursor builds a cursor over one segment body (codec id byte already
// stripped). It returns (nil, nil) for codecs without compressed-domain
// structure (raw segments) and ErrBadFormat for any invalid wire claim.
func newSegCursor(codec uint8, body []byte, n int, unsigned bool) (*SegCursor, error) {
	if n <= 0 {
		return nil, nil
	}
	sc := getSegCursor()
	*sc = SegCursor{codec: codec, n: n, unsigned: unsigned, runs: sc.runs[:0], dict: sc.dict[:0]}
	c := &byteCursor{b: body}
	switch codec {
	case segRLE:
		runs, err := decodeSegRuns(c, n, unsigned, sc.runs)
		if err != nil {
			sc.Release()
			return nil, err
		}
		sc.runs = runs
	case segDict:
		nd := c.uvarint()
		if c.err != nil {
			sc.Release()
			return nil, c.err
		}
		if nd == 0 || nd > uint64(n) {
			sc.Release()
			return nil, badf("dictionary of %d values for %d rows", nd, n)
		}
		dict := sc.dict
		if cap(dict) < int(nd) {
			dict = make([]int64, nd)
		} else {
			dict = dict[:nd]
		}
		for i := range dict {
			dict[i] = c.storedValue(unsigned)
		}
		if c.err != nil {
			sc.dict = dict[:0]
			sc.Release()
			return nil, c.err
		}
		sc.dict = dict
		w, err := c.widthByte(32)
		if err != nil {
			sc.Release()
			return nil, err
		}
		if want := bitsFor(nd - 1); w != want {
			sc.Release()
			return nil, badf("dictionary of %d values packed at %d bits, want %d", nd, w, want)
		}
		packed, err := c.take(packedLen(n, w))
		if err != nil {
			sc.Release()
			return nil, err
		}
		// Validate every code up front so iteration never has to.
		bad := -1
		unpackEach(packed, n, w, func(u uint64) bool {
			if u >= nd {
				bad = int(u)
				return false
			}
			return true
		})
		if bad >= 0 {
			sc.Release()
			return nil, badf("dictionary index %d out of %d", bad, nd)
		}
		sc.packed, sc.width = packed, w
	case segFOR:
		base := c.storedValue(unsigned)
		if c.err != nil {
			sc.Release()
			return nil, c.err
		}
		w, err := c.widthByte(64)
		if err != nil {
			sc.Release()
			return nil, err
		}
		packed, err := c.take(packedLen(n, w))
		if err != nil {
			sc.Release()
			return nil, err
		}
		sc.base, sc.packed, sc.width = base, packed, w
	default:
		sc.Release()
		return nil, nil
	}
	if c.off != len(c.b) {
		sc.Release()
		return nil, badf("%d trailing bytes after segment body", len(c.b)-c.off)
	}
	return sc, nil
}

// Release returns the cursor to an internal freelist, retaining its run and
// dictionary backing for the next construction. Releasing is optional —
// unreleased cursors are ordinary garbage — but a released cursor, and any
// slice previously obtained from its Runs, must not be used afterwards.
// Safe on nil.
func (sc *SegCursor) Release() {
	if sc == nil {
		return
	}
	*sc = SegCursor{runs: sc.runs[:0], dict: sc.dict[:0]}
	segCursorFree.mu.Lock()
	if len(segCursorFree.s) < segCursorFreeCap {
		segCursorFree.s = append(segCursorFree.s, sc)
	}
	segCursorFree.mu.Unlock()
}

// Codec returns the segment codec id the cursor runs over.
func (sc *SegCursor) Codec() uint8 { return sc.codec }

// Rows returns the number of rows the segment encodes.
func (sc *SegCursor) Rows() int { return sc.n }

// Runs returns the RLE run summary, or nil for non-RLE segments. The slice
// is owned by the cursor.
func (sc *SegCursor) Runs() []Run {
	if sc.codec != segRLE {
		return nil
	}
	return sc.runs
}

// NumCodes returns the dictionary size, or 0 for non-dict segments.
func (sc *SegCursor) NumCodes() int {
	if sc.codec != segDict {
		return 0
	}
	return len(sc.dict)
}

// DictVal returns the stored value for a dictionary code. Codes come from
// ForEachCode, which only ever yields validated codes below NumCodes.
func (sc *SegCursor) DictVal(code uint32) int64 { return sc.dict[code] }

// ForEachCode streams the segment's dictionary codes in row order without
// materializing them; fn returning false stops the walk. It reports whether
// the cursor is a dict cursor at all.
func (sc *SegCursor) ForEachCode(fn func(code uint32) bool) bool {
	if sc.codec != segDict {
		return false
	}
	unpackEach(sc.packed, sc.n, sc.width, func(u uint64) bool { return fn(uint32(u)) })
	return true
}

// ConstVal reports the single value every row stores when the segment is a
// width-0 FOR constant, the encoding the cost model picks for single-valued
// columns.
func (sc *SegCursor) ConstVal() (int64, bool) {
	if sc.codec == segFOR && sc.width == 0 {
		return sc.base, true
	}
	return 0, false
}

// unpackEach streams n width-bit LSB-first values from src through fn
// without materializing them; fn returning false stops the walk. src must
// hold packedLen(n, width) bytes (the callers validated it with take).
func unpackEach(src []byte, n int, width uint, fn func(u uint64) bool) {
	if width == 0 {
		for i := 0; i < n; i++ {
			if !fn(0) {
				return
			}
		}
		return
	}
	i := 0
	if width <= maxWordWidth {
		mask := uint64(1)<<width - 1
		bit := uint(0)
		for fast := wordUnpackable(len(src), n, width); i < fast; i++ {
			if !fn(binary.LittleEndian.Uint64(src[bit>>3:]) >> (bit & 7) & mask) {
				return
			}
			bit += width
		}
	}
	unpackBytes(src, i, n, width, fn)
}

// SegCursorAt builds a compressed-domain cursor over column col's segment.
// It returns (nil, nil) when the column has no compressed-domain structure —
// raw segments, the Start/End delta chains, or empty blocks — and
// ErrBadFormat when the segment's wire claims are invalid. The cursor reads
// the block payload in place and is safe for concurrent use once built.
func (bd *BlockData) SegCursorAt(col int) (*SegCursor, error) {
	set := ColSet(1) << col
	if bd.count == 0 || set&(ColStart|ColEnd) != 0 {
		return nil, nil
	}
	if bd.segCodecs[col] == segRaw {
		return nil, nil
	}
	off := int64(bd.segBase)
	for i := 0; i < col; i++ {
		off += bd.colLens[i]
	}
	cur, err := newSegCursor(bd.segCodecs[col], bd.payload[off+1:off+bd.colLens[col]], bd.count, set&unsignedCols != 0)
	if err != nil {
		return nil, fmt.Errorf("block %d %s column: %w", bd.block, colNames[col], err)
	}
	return cur, nil
}
