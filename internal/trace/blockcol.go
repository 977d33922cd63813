package trace

// Block payload encode/decode and BlockData, the in-memory handle on one
// unwrapped block: eleven independent, self-contained column segments
// (Start and End are each delta-chained within their own segment) whose
// byte lengths and codec ids the footer records — so a scan plan can skip
// whole blocks from the index and decode only the segments its column set
// names.

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"
)

// blockStats computes a block's footer statistics: time and rank bounds
// plus level/op occupancy masks (the pruning surface).
func blockStats(evs []Event) BlockInfo {
	bi := BlockInfo{Count: len(evs)}
	if len(evs) == 0 {
		return bi
	}
	bi.MinStart, bi.MaxStart = evs[0].Start, evs[0].Start
	bi.MinRank, bi.MaxRank = evs[0].Rank, evs[0].Rank
	for i := range evs {
		e := &evs[i]
		if e.Start < bi.MinStart {
			bi.MinStart = e.Start
		} else if e.Start > bi.MaxStart {
			bi.MaxStart = e.Start
		}
		if e.Rank < bi.MinRank {
			bi.MinRank = e.Rank
		} else if e.Rank > bi.MaxRank {
			bi.MaxRank = e.Rank
		}
		if uint(e.Level) < 32 {
			bi.LevelMask |= 1 << e.Level
		}
		if uint(e.Op) < 32 {
			bi.OpMask |= 1 << e.Op
		}
	}
	return bi
}

// encodeBlockFrame encodes one block's events as a framed payload: every
// segment carries its codec id byte and the body the cost model (or the
// forced codec, when force >= 0) chose. The footer entry records the
// per-segment byte ranges and codec ids.
func encodeBlockFrame(evs []Event, compress bool, force int) ([]byte, BlockInfo) {
	bi := blockStats(evs)
	sc := segScratchPool.Get().(*segScratch)
	pp := getPayloadBuf(16 + minEventBytes*2*len(evs))
	payload := binary.AppendUvarint((*pp)[:0], uint64(len(evs)))
	for col := 0; col < NumCols; col++ {
		n := len(payload)
		payload, bi.SegCodecs[col] = appendSegV22(payload, col, evs, force, sc)
		bi.ColLens[col] = int64(len(payload) - n)
	}
	frame := wrapFrame(payload, compress)
	if compress && force < 0 {
		// Deflate feeds on exactly the byte-level redundancy the
		// lightweight codecs strip: a bitpacked or dictionary segment is
		// near-incompressible while its raw varint form often deflates
		// below it. Under an outer flate layer, auto mode therefore also
		// tries the all-raw payload and keeps whichever frame compressed
		// smaller — per block, so the choice stays deterministic at any
		// encode parallelism.
		rawBi := bi
		rp := getPayloadBuf(16 + minEventBytes*2*len(evs))
		raw := binary.AppendUvarint((*rp)[:0], uint64(len(evs)))
		for col := 0; col < NumCols; col++ {
			n := len(raw)
			raw, rawBi.SegCodecs[col] = appendSegV22(raw, col, evs, segRaw, sc)
			rawBi.ColLens[col] = int64(len(raw) - n)
		}
		if rawFrame := wrapFrame(raw, true); len(rawFrame) < len(frame) {
			frame, bi = rawFrame, rawBi
		}
		*rp = raw
		putPayloadBuf(rp)
	}
	segScratchPool.Put(sc)
	*pp = payload
	putPayloadBuf(pp)
	return frame, bi
}

// decodeBlockSeq decodes a payload sequentially — every segment in order.
// Each segment is self-describing (codec id byte first), so readers without
// the footer (the streaming Scanner) decode with no other metadata.
func decodeBlockSeq(payload []byte, blockEvents int, cols *Columns) error {
	c := &byteCursor{b: payload}
	count := c.uvarint()
	if c.err != nil {
		return c.err
	}
	if err := checkPayloadCount(count, len(payload), blockEvents); err != nil {
		return err
	}
	cols.grow(int(count))
	for col := 0; col < NumCols; col++ {
		if err := decodeSegV22(c, col, int(count), cols); err != nil {
			return fmt.Errorf("%s column: %w", colNames[col], err)
		}
	}
	if c.off != len(payload) {
		return badf("%d trailing bytes after block columns", len(payload)-c.off)
	}
	return nil
}

// colsToEvents transposes decoded columns into row-major events, appending
// into dst's capacity (dst is reset).
func colsToEvents(cols *Columns, dst []Event) []Event {
	dst = dst[:0]
	for i := 0; i < cols.N; i++ {
		dst = append(dst, Event{
			Level:  Level(cols.Level[i]),
			Op:     Op(cols.Op[i]),
			Lib:    Lib(cols.Lib[i]),
			Rank:   cols.Rank[i],
			Node:   cols.Node[i],
			App:    cols.App[i],
			File:   cols.File[i],
			Offset: cols.Offset[i],
			Size:   cols.Size[i],
			Start:  time.Duration(cols.Start[i]),
			End:    time.Duration(cols.End[i]),
		})
	}
	return dst
}

// BlockData is one block's unwrapped payload held in memory for on-demand
// column materialization: colstore's lazy chunks keep a BlockData and
// decode individual segments only when an analysis kernel first touches
// them. Decode is additive over a shared Columns value and is not safe for
// concurrent use on the same receiver (colstore serializes per-chunk
// materialization behind the chunk's lock).
type BlockData struct {
	payload   []byte
	count     int
	block     int
	segBase   int // payload offset of the first segment
	colLens   [NumCols]int64
	segCodecs [NumCols]uint8
	memo      *colMemo
}

// colMemo caches a block's fully decoded columns so a handle shared across
// requests (vanid's block cache) decodes its payload exactly once. The memo
// lives as long as its cache entry, so its columns are sized exactly (grow)
// and never come from the column pools: a block-capacity slice per column
// of every short block would overrun the MemoRowBytes budget the cache
// charges.
type colMemo struct {
	mu     sync.Mutex
	filled bool
	cols   Columns
}

// memoRowBytes is the resident size of one decoded row across all eleven
// columns (3 × uint8, 4 × int32, 4 × int64) — the cache-budget estimate for
// a filled memo.
const memoRowBytes = 3*1 + 4*4 + 4*8

// MemoRowBytes is the worst-case resident bytes one memoized row costs —
// the budget unit for memory-bounded block caches.
const MemoRowBytes = memoRowBytes

// EnableMemo arms the block's decoded-column memo: the first Decode call
// materializes every column once and reports its decoded byte count; every
// later call reports zero decoded bytes. Either way the caller receives
// copies of exactly the columns it asked for.
// A memoized BlockData is safe for concurrent Decode calls — that is what
// lets vanid's shared block cache hand one handle to many requests.
func (bd *BlockData) EnableMemo() {
	if bd.memo == nil {
		bd.memo = &colMemo{}
	}
}

// copyColumns fills the columns of dst named by want with copies of src's
// values. The memo's slices are shared across requests, so callers get
// copies they are free to adopt, reuse, or overwrite.
func copyColumns(dst, src *Columns, want ColSet) {
	dst.growSet(src.N, want)
	if want&ColLevel != 0 {
		copy(dst.Level, src.Level)
	}
	if want&ColOp != 0 {
		copy(dst.Op, src.Op)
	}
	if want&ColLib != 0 {
		copy(dst.Lib, src.Lib)
	}
	if want&ColRank != 0 {
		copy(dst.Rank, src.Rank)
	}
	if want&ColNode != 0 {
		copy(dst.Node, src.Node)
	}
	if want&ColApp != 0 {
		copy(dst.App, src.App)
	}
	if want&ColFile != 0 {
		copy(dst.File, src.File)
	}
	if want&ColOffset != 0 {
		copy(dst.Offset, src.Offset)
	}
	if want&ColSize != 0 {
		copy(dst.Size, src.Size)
	}
	if want&ColStart != 0 {
		copy(dst.Start, src.Start)
	}
	if want&ColEnd != 0 {
		copy(dst.End, src.End)
	}
}

// Count returns the number of events in the block.
func (bd *BlockData) Count() int { return bd.count }

// PayloadBytes returns the unwrapped payload size in bytes.
func (bd *BlockData) PayloadBytes() int { return len(bd.payload) }

// ReadBlock fetches and unwraps block k, validating the payload's count
// prefix, that the footer's column byte ranges tile the payload exactly,
// and that each segment's leading codec id is known and is the one the
// footer recorded. The returned BlockData is independent of the reader's
// file handle.
func (br *BlockReader) ReadBlock(k int) (*BlockData, error) {
	payload, err := br.readBlockPayload(k)
	if err != nil {
		return nil, err
	}
	bi := &br.blocks[k]
	c := &byteCursor{b: payload}
	count := c.uvarint()
	if c.err != nil {
		return nil, fmt.Errorf("block %d: %w", k, c.err)
	}
	if err := checkPayloadCount(count, len(payload), br.blockEvents); err != nil {
		return nil, fmt.Errorf("block %d: %w", k, err)
	}
	if int(count) != bi.Count {
		return nil, badf("block %d payload holds %d events, index says %d", k, count, bi.Count)
	}
	sum := int64(c.off)
	for _, cl := range bi.ColLens {
		sum += cl
	}
	if sum != int64(len(payload)) {
		return nil, badf("block %d column ranges cover %d of %d payload bytes", k, sum, len(payload))
	}
	off := int64(c.off)
	for col, cl := range bi.ColLens {
		if cl < 1 {
			return nil, badf("block %d %s column: empty segment", k, colNames[col])
		}
		if id := payload[off]; id >= numSegCodecs {
			return nil, badf("block %d %s column: unknown segment codec %d", k, colNames[col], id)
		} else if id != bi.SegCodecs[col] {
			return nil, badf("block %d %s column: payload codec %d, footer says %d", k, colNames[col], id, bi.SegCodecs[col])
		}
		off += cl
	}
	return &BlockData{
		payload:   payload,
		count:     bi.Count,
		block:     k,
		segBase:   c.off,
		colLens:   bi.ColLens,
		segCodecs: bi.SegCodecs,
	}, nil
}

// SegCodec returns the segment codec id of the given column.
func (bd *BlockData) SegCodec(col int) uint8 { return bd.segCodecs[col] }

// Decode materializes the requested columns into cols, growing it to the
// block's row count, and returns the payload bytes it actually decoded:
// only the wanted segments are touched. Additive: columns decoded by an
// earlier call on the same cols are preserved. The wanted columns of cols
// must be nil or left by an earlier Decode: they are drawn from the column
// pools, the caller may hand them back with cols.Recycle once it is done
// reading them, and on error they come back nil. Memoized blocks (see
// EnableMemo) decode and validate every column exactly once, on the first
// call, and serve every call as copies of the wanted columns; calls after
// the first report zero decoded bytes.
func (bd *BlockData) Decode(want ColSet, cols *Columns) (int64, error) {
	m := bd.memo
	if m == nil {
		n, err := bd.decodeInto(want, cols)
		if err != nil {
			// No partly written column leaves a failed decode.
			cols.Recycle(want)
		}
		return n, err
	}
	var decoded int64
	m.mu.Lock()
	if !m.filled {
		m.cols.grow(bd.count)
		n, err := bd.decodeInto(AllCols, &m.cols)
		if err != nil {
			m.mu.Unlock()
			return 0, err
		}
		decoded, m.filled = n, true
	}
	m.mu.Unlock()
	copyColumns(cols, &m.cols, want)
	return decoded, nil
}

// decodeInto is Decode without the memo layer.
func (bd *BlockData) decodeInto(want ColSet, cols *Columns) (int64, error) {
	cols.growSet(bd.count, want)
	// The count prefix was parsed by ReadBlock; only segment bytes count.
	var decoded int64
	off := int64(bd.segBase)
	for col := 0; col < NumCols; col++ {
		cl := bd.colLens[col]
		if want&(ColSet(1)<<col) != 0 {
			c := &byteCursor{b: bd.payload[off : off+cl]}
			if err := decodeSegV22(c, col, bd.count, cols); err != nil {
				return decoded, fmt.Errorf("block %d %s column: %w", bd.block, colNames[col], err)
			}
			if c.off != int(cl) {
				return decoded, badf("block %d %s column: %d trailing bytes", bd.block, colNames[col], int(cl)-c.off)
			}
			decoded += cl
		}
		off += cl
	}
	return decoded, nil
}
