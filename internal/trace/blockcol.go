package trace

// Block payload encode/decode and BlockData, the in-memory handle on one
// unwrapped block: eleven independent, self-contained column segments
// (Start and End are each delta-chained within their own segment) whose
// byte lengths and codec ids the footer records — so a scan plan can skip
// whole blocks from the index and decode only the segments its column set
// names.

import (
	"fmt"
	"io"
	"sync"
	"time"

	"vani/internal/parallel"
)

// columnStats computes a block's footer statistics from its columns: time
// and rank bounds plus level/op occupancy masks (the pruning surface).
func columnStats(cols *Columns) BlockInfo {
	bi := BlockInfo{Count: cols.N}
	if cols.N == 0 {
		return bi
	}
	bi.MinStart, bi.MaxStart = time.Duration(cols.Start[0]), time.Duration(cols.Start[0])
	bi.MinRank, bi.MaxRank = cols.Rank[0], cols.Rank[0]
	for i := 0; i < cols.N; i++ {
		if s := time.Duration(cols.Start[i]); s < bi.MinStart {
			bi.MinStart = s
		} else if s > bi.MaxStart {
			bi.MaxStart = s
		}
		if r := cols.Rank[i]; r < bi.MinRank {
			bi.MinRank = r
		} else if r > bi.MaxRank {
			bi.MaxRank = r
		}
		if l := cols.Level[i]; l < 32 {
			bi.LevelMask |= 1 << l
		}
		if o := cols.Op[i]; o < 32 {
			bi.OpMask |= 1 << o
		}
	}
	return bi
}

// encodeBlockFrame encodes one block's columns as a framed payload: every
// segment carries its codec id byte and the body the cost model (or the
// forced codec, when force >= 0) chose. A stored block bd that holds
// exactly cols' rows is framed from its payload as stored instead, which
// is what re-running the cost model gives when the cost model wrote it:
// the compactor's shortcut past the model. The footer entry records the
// per-segment byte ranges and codec ids.
func encodeBlockFrame(cols *Columns, compress bool, force int, bd *BlockData) (*[]byte, BlockInfo) {
	bi := columnStats(cols)
	sc := segScratches.Get()
	if sc == nil {
		sc = &segScratch{vals: make([]int64, 0, DefaultBlockEvents)}
	}
	defer segScratches.Put(sc)
	var frame *[]byte
	if bd != nil {
		bi.ColLens, bi.SegCodecs = bd.colLens, bd.segCodecs
		frame = wrapFrame(bd.payload, compress)
	} else {
		pp := takeBuf(&payloadBufs, 16+minEventBytes*2*cols.N)
		payload := appendPayload((*pp)[:0], cols, force, sc, &bi)
		frame = wrapFrame(payload, compress)
		*pp = payload
		payloadBufs.Put(pp)
	}
	if compress && force < 0 {
		// Deflate feeds on exactly the byte-level redundancy the
		// lightweight codecs strip: a bitpacked or dictionary segment is
		// near-incompressible while its raw varint form often deflates
		// below it. Under an outer flate layer, auto mode therefore also
		// tries the all-raw payload and keeps it only when its frame
		// compresses strictly smaller — per block, so the choice stays
		// deterministic at any encode parallelism.
		rawBi := bi
		rp := takeBuf(&payloadBufs, 16+minEventBytes*2*cols.N)
		raw := appendPayload((*rp)[:0], cols, segRaw, sc, &rawBi)
		rawFrame := wrapFrame(raw, true)
		*rp = raw
		payloadBufs.Put(rp)
		if len(*rawFrame) < len(*frame) {
			frame, rawFrame, bi = rawFrame, frame, rawBi
		}
		frameList.Put(rawFrame)
	}
	return frame, bi
}

// WriteCompressed writes the log to out as WriteV2With(ReadTrace(Filter{}),
// V2Options{Compress: true}) would, without materializing a single Event:
// the header is kept, the rows are cut into default-size blocks and each is
// encoded by the writer's encodeBlockFrame — an output block that is one
// whole stored block from its stored payload, any other through the cost
// model — so a log the writer made in auto mode, at any geometry, is
// rewritten byte for byte as that re-encode. The output blocks go to the
// worker pool in runs that span about one stored block each, and a run
// decodes each stored block it reads once: a stored block is decoded once
// when the log's geometry is a multiple of the default one, at most three
// times otherwise. A block that does not decode fails the rewrite with its
// error (ErrBadFormat for corrupt input) before anything is written; the
// frames the other blocks made are then left to the collector, not handed
// back to frameList as writeLog hands back what it writes. Returns the
// bytes written.
func (br *BlockReader) WriteCompressed(out io.Writer) (int64, error) {
	nb := (int(br.nEvents) + DefaultBlockEvents - 1) / DefaultBlockEvents
	frames := make([]*[]byte, nb)
	infos := make([]BlockInfo, nb)
	run := max(1, br.blockEvents/DefaultBlockEvents)
	errs := make([]error, (nb+run-1)/run)
	parallel.ForEach(0, len(errs), func(t int) {
		errs[t] = br.rewriteRun(t*run, min((t+1)*run, nb), frames, infos)
	})
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return writeLog(out, br.hdr, DefaultBlockEvents, br.nEvents, frames, infos)
}

// rewriteRun is WriteCompressed's work on output blocks [j0, j1). The
// stored block last read stays decoded in src: an output block it holds
// whole is encoded from it in place, any other is gathered into cols from
// the stored blocks it spans.
func (br *BlockReader) rewriteRun(j0, j1 int, frames []*[]byte, infos []BlockInfo) error {
	var src, cols Columns
	var bd *BlockData // the stored block src holds
	defer func() {
		if bd != nil {
			bd.Release()
		}
		src.Recycle(AllCols)
		cols.Recycle(AllCols)
	}()
	load := func(k int) error {
		if bd != nil && bd.block == k {
			return nil
		}
		if bd != nil {
			bd.Release()
			bd = nil
		}
		b, err := br.ReadBlock(k)
		if err != nil {
			return err
		}
		if _, _, err := b.Decode(AllCols, &src); err != nil {
			b.Release()
			return err
		}
		bd = b
		return nil
	}
	n, be := int(br.nEvents), br.blockEvents
	for j := j0; j < j1; j++ {
		lo, hi := j*DefaultBlockEvents, min((j+1)*DefaultBlockEvents, n)
		if k := lo / be; k == (hi-1)/be {
			if err := load(k); err != nil {
				return err
			}
			var whole *BlockData
			if lo == k*be && hi-lo == src.N {
				whole = bd
			}
			view := src.rows(lo-k*be, hi-k*be)
			frames[j], infos[j] = encodeBlockFrame(&view, true, -1, whole)
			continue
		}
		cols.growSet(hi-lo, AllCols)
		for k := lo / be; k*be < hi; k++ {
			if err := load(k); err != nil {
				return err
			}
			from, to := max(lo, k*be), min(hi, k*be+src.N)
			cols.copyRows(from-lo, &src, from-k*be, to-from)
		}
		frames[j], infos[j] = encodeBlockFrame(&cols, true, -1, nil)
	}
	return nil
}

// appendEvents transposes the decoded rows of cols that m matches (every
// row when m is nil) into row-major events appended to dst.
func appendEvents(dst []Event, cols *Columns, m *Matcher) []Event {
	for i := 0; i < cols.N; i++ {
		if m != nil && !m.Match(cols.Level[i], cols.Op[i], cols.Rank[i], cols.Start[i]) {
			continue
		}
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

// BlockData is one block's unwrapped payload held in memory while its
// column segments decode: a planned scan decodes the filter's segments,
// then the rest of a block some row survives, then hands the payload back
// (Release). Decode is additive over a shared Columns value and is not safe
// for concurrent use on the same receiver unless the block is memoized.
type BlockData struct {
	payload   []byte
	buf       *[]byte                    // recycled buffer payload lives in (readBlockPayload)
	bufList   *parallel.FreeList[[]byte] // the list buf came from
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

// rows returns rows [from, to) of cols as a view on its arrays, which the
// view must not Recycle.
func (cols *Columns) rows(from, to int) Columns {
	return Columns{N: to - from,
		Level: cols.Level[from:to], Op: cols.Op[from:to], Lib: cols.Lib[from:to],
		Rank: cols.Rank[from:to], Node: cols.Node[from:to], App: cols.App[from:to], File: cols.File[from:to],
		Offset: cols.Offset[from:to], Size: cols.Size[from:to], Start: cols.Start[from:to], End: cols.End[from:to]}
}

// copyRows copies n rows of src from row from on into cols from row at on.
func (cols *Columns) copyRows(at int, src *Columns, from, n int) {
	copy(cols.Level[at:at+n], src.Level[from:])
	copy(cols.Op[at:at+n], src.Op[from:])
	copy(cols.Lib[at:at+n], src.Lib[from:])
	copy(cols.Rank[at:at+n], src.Rank[from:])
	copy(cols.Node[at:at+n], src.Node[from:])
	copy(cols.App[at:at+n], src.App[from:])
	copy(cols.File[at:at+n], src.File[from:])
	copy(cols.Offset[at:at+n], src.Offset[from:])
	copy(cols.Size[at:at+n], src.Size[from:])
	copy(cols.Start[at:at+n], src.Start[from:])
	copy(cols.End[at:at+n], src.End[from:])
}

// Count returns the number of events in the block.
func (bd *BlockData) Count() int { return bd.count }

// PayloadBytes returns the unwrapped payload size in bytes.
func (bd *BlockData) PayloadBytes() int { return len(bd.payload) }

// Release hands the payload buffer back to its list once nothing reads the
// payload any more; the handle decodes nothing afterwards. It does nothing
// on a memoized handle (EnableMemo), which a block cache shares across
// requests and which keeps its buffer. Only the sole holder of any other
// handle may call it. Not calling it is always correct: the buffer is
// ordinary garbage then.
func (bd *BlockData) Release() {
	if bd.memo != nil || bd.buf == nil {
		return
	}
	if poisonRecycled.Load() {
		poisonCol((*bd.buf)[:cap(*bd.buf)])
	}
	bd.bufList.Put(bd.buf)
	bd.payload, bd.buf = nil, nil
}

// ReadBlock fetches and unwraps block k, validating the payload's count
// prefix, that the footer's column byte ranges tile the payload exactly,
// and that each segment's leading codec id is known and is the one the
// footer recorded. The returned BlockData is independent of the reader's
// file handle.
func (br *BlockReader) ReadBlock(k int) (*BlockData, error) {
	payload, buf, list, err := br.readBlockPayload(k)
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
		buf:       buf,
		bufList:   list,
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
// block's row count, and returns the columns whose segments it actually
// decoded and their payload bytes: without a memo, exactly the wanted
// segments are touched. Additive: columns decoded by an earlier call on the
// same cols are preserved. The wanted columns of cols must be nil or left by
// an earlier Decode: they are drawn from the column pools, the caller may
// hand them back with cols.Recycle once it is done reading them, and on
// error they come back nil. Memoized blocks (see EnableMemo) decode and
// validate every column exactly once, on the first call, which reports
// AllCols whatever it wanted, and serve every call as copies of the wanted
// columns; calls after the first report no columns and zero bytes.
func (bd *BlockData) Decode(want ColSet, cols *Columns) (ColSet, int64, error) {
	m := bd.memo
	if m == nil {
		n, err := bd.decodeInto(want, cols)
		if err != nil {
			// No partly written column leaves a failed decode.
			cols.Recycle(want)
			return 0, 0, err
		}
		return want, n, nil
	}
	var decoded int64
	var set ColSet
	m.mu.Lock()
	if !m.filled {
		m.cols.grow(bd.count)
		n, err := bd.decodeInto(AllCols, &m.cols)
		if err != nil {
			m.mu.Unlock()
			return 0, 0, err
		}
		decoded, set, m.filled = n, AllCols, true
	}
	m.mu.Unlock()
	copyColumns(cols, &m.cols, want)
	return set, decoded, nil
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
			if err := decodeColumnSeg(c, col, bd.count, cols); err != nil {
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
