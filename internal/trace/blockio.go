package trace

// VANITRC2 v2.2, the one on-disk trace log: a block-structured columnar log
// whose event section decodes in independent fixed-size blocks, so ingest
// parallelizes the way the paper's parquet row groups do for DASK, and
// whose footer index lets a scan plan skip blocks and columns unread.
//
// Layout:
//
//	magic "VANITRC2" (8 bytes)
//	header            meta, apps, files, samples (codec.go)
//	uvarint blockEvents   events per block (last block may hold fewer)
//	uvarint eventCount
//	uvarint blockCount    == ceil(eventCount/blockEvents)
//	blockCount × frame:
//	    byte codec            4 = raw payload, 5 = flate payload
//	    uvarint rawLen        payload length in bytes
//	    [uvarint compLen]     flate frames only
//	    payload               rawLen raw bytes, or compLen flate bytes
//	footer:
//	    uvarint blockCount
//	    blockCount × entry:
//	        uvarint offset    absolute file offset of the block frame
//	        uvarint frameLen  framed length in bytes
//	        uvarint count     events in the block
//	        varint  minStart, maxStart   event start bounds (ns)
//	        varint  minRank, maxRank
//	        uvarint levelMask, opMask    occupancy bitmasks
//	        NumCols × uvarint colLen     per-column segment byte lengths
//	        NumCols × byte segCodec      per-column segment codec ids
//	trailer:
//	    8 bytes LE footerLen  bytes from "uvarint blockCount" through entries
//	    "VANIIDX4"
//
// Block payload: uvarint count, then one segment per column in ColSet bit
// order. Every segment leads with a codec id byte and its body uses the
// lightweight encoding a per-block cost model chose — RLE, dictionary,
// frame-of-reference bit-packing, or raw varints (segcodec.go). Start and
// End store delta chains from 0, every other column its values. Segments
// decode with no state from each other and blocks with no state from their
// neighbors, so encode fans out over the worker pool at write time, decode
// at read time, a projected read touches only the byte ranges the footer
// records for the wanted columns — and, because blocks default to
// colstore's chunk size, a decoded block's column slices hand off to the
// analyzer's columnar store with no copy.

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"vani/internal/parallel"
)

const (
	magicV2     = "VANITRC2"
	footerMagic = "VANIIDX4"

	// Block frame codecs: the payload as is, or under an outer flate layer.
	frameRaw   = 4
	frameFlate = 5

	// DefaultBlockEvents is the default number of events per block and the
	// capacity of the recycled column arrays (colpool.go). It matches
	// colstore.ChunkRows, so a default log chunks like its in-memory trace
	// (asserted by a colstore test).
	DefaultBlockEvents = 1 << 14

	// maxBlockEvents bounds the per-block event count a decoder will
	// accept, capping allocation on corrupt input.
	maxBlockEvents = 1 << 20

	// minEventBytes is the raw-varint size of the smallest event (11 fields
	// of one byte each); encoders size their payload buffers from it.
	minEventBytes = 11

	// maxFlateRatio bounds the decompressed/compressed size a flate block
	// may claim, so rawLen cannot demand allocations unbacked by input.
	maxFlateRatio = 1032

	trailerLen = 16 // 8-byte LE footer length + footer magic
)

// badf wraps a decode failure in ErrBadFormat. Every error on the decode
// paths goes through it (or wraps ErrBadFormat directly), so corrupt input
// is always distinguishable from I/O failure by errors.Is.
func badf(format string, args ...interface{}) error {
	return fmt.Errorf("%w: "+format, append([]interface{}{ErrBadFormat}, args...)...)
}

// Older vintages of this format are outside input like any other bytes:
// recognized here, and only here, so the refusal can name what the file is.
// Nothing converts them; the last commit that read them does.
const retired = "retired format, only VANITRC2 v2.2 is read"

// checkMagic compares a file or footer magic against the one expected.
func checkMagic(got []byte, want string) error {
	switch string(got) {
	case want:
		return nil
	case "VANITRC1":
		return badf("VANITRC1 (v1 serial log): %s", retired)
	case "VANIIDX2":
		return badf("VANIIDX2 footer (v2.0 row layout): %s", retired)
	case "VANIIDX3":
		return badf("VANIIDX3 footer (v2.1 raw-varint columns): %s", retired)
	}
	return badf("bad magic %q (want %s)", got, want)
}

// frameIsFlate classifies a block frame's codec byte.
func frameIsFlate(codec byte) (bool, error) {
	switch codec {
	case frameRaw:
		return false, nil
	case frameFlate:
		return true, nil
	case 0, 1:
		return false, badf("block codec %d (v2.0 row layout): %s", codec, retired)
	case 2, 3:
		return false, badf("block codec %d (v2.1 raw-varint columns): %s", codec, retired)
	}
	return false, badf("unknown block codec %d", codec)
}

// CodecMode selects how the writer picks segment codecs. The zero value
// (CodecAuto) lets the cost model choose per segment; the remaining modes
// force one segment codec everywhere (the equivalence matrix exercises
// every decode kernel through them).
type CodecMode int

const (
	// CodecAuto (the default) encodes each segment with the codec the
	// per-block cost model picks.
	CodecAuto CodecMode = iota
	// CodecForceRaw..CodecForceFOR force every segment to one codec,
	// regardless of size.
	CodecForceRaw
	CodecForceRLE
	CodecForceDict
	CodecForceFOR
)

// String returns the flag-style name.
func (m CodecMode) String() string {
	switch m {
	case CodecAuto:
		return "auto"
	case CodecForceRaw:
		return "raw"
	case CodecForceRLE:
		return "rle"
	case CodecForceDict:
		return "dict"
	case CodecForceFOR:
		return "for"
	}
	return fmt.Sprintf("CodecMode(%d)", int(m))
}

// ParseCodecMode parses a flag-style codec mode name.
func ParseCodecMode(s string) (CodecMode, error) {
	switch s {
	case "auto", "":
		return CodecAuto, nil
	case "raw":
		return CodecForceRaw, nil
	case "rle":
		return CodecForceRLE, nil
	case "dict":
		return CodecForceDict, nil
	case "for", "pack":
		return CodecForceFOR, nil
	}
	return 0, fmt.Errorf("unknown codec mode %q (want auto, raw, rle, dict or for)", s)
}

// forceSeg maps a CodecMode to the forced segment codec id, or -1 for the
// cost model.
func (m CodecMode) forceSeg() int {
	switch m {
	case CodecForceRaw:
		return segRaw
	case CodecForceRLE:
		return segRLE
	case CodecForceDict:
		return segDict
	case CodecForceFOR:
		return segFOR
	}
	return -1
}

// V2Options tunes the writer.
type V2Options struct {
	// BlockEvents is the number of events per block; 0 means
	// DefaultBlockEvents. Values above maxBlockEvents are clamped.
	BlockEvents int
	// Compress flate-compresses block payloads (size-prefixed), trading
	// encode/decode CPU for trace size. The segment codecs already leave
	// the payload compact, so flate is an optional outer layer.
	Compress bool
	// Parallelism bounds the encode workers (0 = GOMAXPROCS, 1 = inline).
	// The output bytes are identical at every setting.
	Parallelism int
	// Codec selects the segment codec policy; the zero value is CodecAuto.
	Codec CodecMode
}

// WriteV2 encodes the trace with default options.
func WriteV2(out io.Writer, t *Trace) error {
	return WriteV2With(out, t, V2Options{})
}

// WriteV2With encodes the trace to out. Each block is transposed into
// pooled columns (Columns.Transpose) and encoded from them, in parallel,
// then written in block order, so the output is byte-identical at any
// Parallelism.
func WriteV2With(out io.Writer, t *Trace, opt V2Options) error {
	be := opt.BlockEvents
	if be <= 0 {
		be = DefaultBlockEvents
	}
	if be > maxBlockEvents {
		be = maxBlockEvents
	}
	nEvents := len(t.Events)
	nBlocks := (nEvents + be - 1) / be

	// Fan block encoding out over the worker pool; frames land in their
	// block's slot and are written strictly in block order.
	force := opt.Codec.forceSeg()
	frames := make([]*[]byte, nBlocks)
	infos := make([]BlockInfo, nBlocks)
	parallel.ForEach(opt.Parallelism, nBlocks, func(k int) {
		var cols Columns
		cols.Transpose(t.Events[k*be : min((k+1)*be, nEvents)])
		frames[k], infos[k] = encodeBlockFrame(&cols, opt.Compress, force, nil)
		cols.Recycle(AllCols)
	})
	_, err := writeLog(out, t, be, uint64(nEvents), frames, infos)
	return err
}

// writeLog writes a whole log around its encoded block frames: magic,
// header, geometry, the frames in block order, then the footer index and
// trailer. Each frame goes back to frameList once it is written. It fills
// in each info's Offset and Len and returns the bytes written.
func writeLog(out io.Writer, hdr *Trace, be int, nEvents uint64, frames []*[]byte, infos []BlockInfo) (int64, error) {
	w := &writer{w: bufio.NewWriterSize(out, 1<<16)}
	w.raw([]byte(magicV2))
	writeHeader(w, hdr)
	w.uvarint(uint64(be))
	w.uvarint(nEvents)
	w.uvarint(uint64(len(frames)))
	for k, f := range frames {
		infos[k].Offset = w.n
		infos[k].Len = int64(len(*f))
		w.raw(*f)
		frameList.Put(f)
	}

	footStart := w.n
	w.uvarint(uint64(len(infos)))
	for k := range infos {
		bi := &infos[k]
		w.uvarint(uint64(bi.Offset))
		w.uvarint(uint64(bi.Len))
		w.uvarint(uint64(bi.Count))
		w.varint(int64(bi.MinStart))
		w.varint(int64(bi.MaxStart))
		w.varint(int64(bi.MinRank))
		w.varint(int64(bi.MaxRank))
		w.uvarint(uint64(bi.LevelMask))
		w.uvarint(uint64(bi.OpMask))
		for _, cl := range bi.ColLens {
			w.uvarint(uint64(cl))
		}
		w.raw(bi.SegCodecs[:])
	}
	var trailer [trailerLen]byte
	binary.LittleEndian.PutUint64(trailer[:8], uint64(w.n-footStart))
	copy(trailer[8:], footerMagic)
	w.raw(trailer[:])
	if w.err != nil {
		return w.n, w.err
	}
	return w.n, w.w.Flush()
}

// Encoder and decoder scratch, recycled through free lists: whatever a
// worker draws, the goroutine that finishes with it hands back. Block
// payloads, encoded or inflated, share payloadBufs; block frames, written
// or read, share frameList. wrapFrame always copies the payload into the
// frame it returns (raw frames append it, flate frames compress it), so an
// encoder's payload buffer goes back at once, and a frame goes back once
// writeLog has written it. On the decode side a block's payload lives in
// the frame buffer itself for a raw frame, in a payload buffer for a flate
// one, whose frame buffer goes straight back. A planned scan and a
// whole-log read hand each one back once the block's columns are decoded
// (BlockData.Release); only a block cache's memoized handles keep theirs.
var (
	payloadBufs parallel.FreeList[[]byte]
	frameList   parallel.FreeList[[]byte]
	deflaters   parallel.FreeList[deflater]
	inflaters   parallel.FreeList[inflater]
)

// deflater is a flate writer and the buffer it compresses into.
type deflater struct {
	out bytes.Buffer
	w   *flate.Writer
}

// inflater is a flate reader and the source it reads from.
type inflater struct {
	src bytes.Reader
	r   io.ReadCloser
}

// takeBuf draws a buffer from l, or makes one, and cuts it to n elements,
// reallocating when its capacity falls short. The elements are not zeroed.
func takeBuf[E any](l *parallel.FreeList[[]E], n int) *[]E {
	p := l.Get()
	if p == nil {
		p = new([]E)
	}
	if cap(*p) < n {
		*p = make([]E, n)
	}
	*p = (*p)[:n]
	return p
}

// wrapFrame frames a block payload: codec byte, length claims, and the raw
// or flate-compressed bytes, in a buffer from frameList that the caller
// hands back (writeLog does). The payload is copied, never retained.
func wrapFrame(payload []byte, compress bool) *[]byte {
	if !compress {
		f := takeBuf(&frameList, len(payload)+binary.MaxVarintLen64+1)
		*f = append((*f)[:0], frameRaw)
		*f = binary.AppendUvarint(*f, uint64(len(payload)))
		*f = append(*f, payload...)
		return f
	}
	d := deflaters.Get()
	if d == nil {
		d = new(deflater)
		d.w, _ = flate.NewWriter(&d.out, flate.DefaultCompression) // a valid level: no error
	}
	d.out.Reset()
	d.w.Reset(&d.out)
	d.w.Write(payload)
	d.w.Close()
	comp := d.out.Bytes()
	f := takeBuf(&frameList, len(comp)+2*binary.MaxVarintLen64+1)
	*f = append((*f)[:0], frameFlate)
	*f = binary.AppendUvarint(*f, uint64(len(payload)))
	*f = binary.AppendUvarint(*f, uint64(len(comp)))
	*f = append(*f, comp...)
	deflaters.Put(d)
	return f
}

// byteCursor decodes varints from an in-memory payload: a contiguous slice,
// not an io.ByteReader, which is what makes block decode fast.
type byteCursor struct {
	b   []byte
	off int
	err error
}

func (c *byteCursor) uvarint() uint64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.b[c.off:])
	if n <= 0 {
		c.err = badf("truncated uvarint at payload offset %d", c.off)
		return 0
	}
	c.off += n
	return v
}

func (c *byteCursor) varint() int64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Varint(c.b[c.off:])
	if n <= 0 {
		c.err = badf("truncated varint at payload offset %d", c.off)
		return 0
	}
	c.off += n
	return v
}

// checkPayloadCount validates a block's event-count claim before anything
// is allocated from it. Run-length segments legitimately amplify (a constant
// 16K-row column is a handful of bytes), so the claim is bounded by the
// validated block geometry and by the smallest payload an encoder emits for
// that many rows; each segment codec then validates its own claims (run
// totals, dict sizes, packed lengths) against real input bytes before
// touching memory.
func checkPayloadCount(count uint64, payloadLen, blockEvents int) error {
	if count > uint64(blockEvents) || count > uint64(maxBlockEvents) {
		return badf("block count %d exceeds block size %d", count, blockEvents)
	}
	// After the count byte, every segment of a non-empty block holds a codec
	// byte and the smallest body an encoder emits for that many rows: one
	// byte per row as raw values, or two bytes for any number of rows (one
	// value and a run length, or a base and a zero width).
	if count > 0 && payloadLen < 1+NumCols*(1+int(min(count, 2))) {
		return badf("block count %d impossible for %d payload bytes", count, payloadLen)
	}
	return nil
}

// boundedInt decodes a varint that must fit a non-negative int32 (the
// footer's rank bounds).
func boundedInt(c *byteCursor, what string) int64 {
	v := c.varint()
	if c.err == nil && (v < 0 || v > math.MaxInt32) {
		c.err = badf("%s %d out of range", what, v)
	}
	return v
}

// Columns is one decoded block in column-major form: the exact per-field
// slices a colstore chunk is made of. Decode fills it straight from the
// block payload — no Event structs materialize — and colstore adopts the
// slices without copying, first cut to a filter's rows by Keep.
type Columns struct {
	N      int
	Level  []uint8
	Op     []uint8
	Lib    []uint8
	Rank   []int32
	Node   []int32
	App    []int32
	File   []int32
	Offset []int64
	Size   []int64
	Start  []int64 // nanoseconds
	End    []int64 // nanoseconds
}

// growSet resizes only the columns in set to n rows: in place where their
// capacity allows, else from the block-column pools (colpool.go), whose
// slices arrive holding whatever their last user left — the caller must
// write every row before anything reads one. Columns outside set are left
// untouched — possibly stale from an earlier decode — so callers must read
// only the columns they asked for.
func (cols *Columns) growSet(n int, set ColSet) {
	cols.N = n
	if set&ColLevel != 0 {
		cols.Level = growCol(&u8Cols, cols.Level, n)
	}
	if set&ColOp != 0 {
		cols.Op = growCol(&u8Cols, cols.Op, n)
	}
	if set&ColLib != 0 {
		cols.Lib = growCol(&u8Cols, cols.Lib, n)
	}
	if set&ColRank != 0 {
		cols.Rank = growCol(&i32Cols, cols.Rank, n)
	}
	if set&ColNode != 0 {
		cols.Node = growCol(&i32Cols, cols.Node, n)
	}
	if set&ColApp != 0 {
		cols.App = growCol(&i32Cols, cols.App, n)
	}
	if set&ColFile != 0 {
		cols.File = growCol(&i32Cols, cols.File, n)
	}
	if set&ColOffset != 0 {
		cols.Offset = growCol(&i64Cols, cols.Offset, n)
	}
	if set&ColSize != 0 {
		cols.Size = growCol(&i64Cols, cols.Size, n)
	}
	if set&ColStart != 0 {
		cols.Start = growCol(&i64Cols, cols.Start, n)
	}
	if set&ColEnd != 0 {
		cols.End = growCol(&i64Cols, cols.End, n)
	}
}

// Transpose fills every column of cols with evs' fields, row for row, at
// len(evs) rows in arrays from the block-column pools (growSet): how an
// in-memory trace becomes a table's chunks (colstore.FromEvents). The
// caller owns what it filled as it would a Decode's and hands it back with
// Recycle.
func (cols *Columns) Transpose(evs []Event) {
	n := len(evs)
	cols.growSet(n, AllCols)
	level, op, lib := cols.Level[:n], cols.Op[:n], cols.Lib[:n]
	rank, node, app, file := cols.Rank[:n], cols.Node[:n], cols.App[:n], cols.File[:n]
	offset, size, start, end := cols.Offset[:n], cols.Size[:n], cols.Start[:n], cols.End[:n]
	for i := range evs {
		ev := &evs[i]
		level[i], op[i], lib[i] = uint8(ev.Level), uint8(ev.Op), uint8(ev.Lib)
		rank[i], node[i], app[i], file[i] = ev.Rank, ev.Node, ev.App, ev.File
		offset[i], size[i], start[i], end[i] = ev.Offset, ev.Size, int64(ev.Start), int64(ev.End)
	}
}

// grow resizes every column to n rows, reusing capacity where possible and
// allocating exactly n rows where not — the sizing of the long-lived memo,
// which never draws from the column pools.
func (cols *Columns) grow(n int) {
	cols.N = n
	if cap(cols.Level) < n {
		cols.Level = make([]uint8, n)
		cols.Op = make([]uint8, n)
		cols.Lib = make([]uint8, n)
		cols.Rank = make([]int32, n)
		cols.Node = make([]int32, n)
		cols.App = make([]int32, n)
		cols.File = make([]int32, n)
		cols.Offset = make([]int64, n)
		cols.Size = make([]int64, n)
		cols.Start = make([]int64, n)
		cols.End = make([]int64, n)
		return
	}
	cols.Level = cols.Level[:n]
	cols.Op = cols.Op[:n]
	cols.Lib = cols.Lib[:n]
	cols.Rank = cols.Rank[:n]
	cols.Node = cols.Node[:n]
	cols.App = cols.App[:n]
	cols.File = cols.File[:n]
	cols.Offset = cols.Offset[:n]
	cols.Size = cols.Size[:n]
	cols.Start = cols.Start[:n]
	cols.End = cols.End[:n]
}

// unwrapFrame strips a block frame down to its raw payload. A raw frame's
// payload aliases the frame bytes and inflated is nil; a flate frame
// decompresses into a buffer from payloadBufs, returned as inflated.
// Allocation is bounded by the actual frame bytes: a flate block may not
// claim a decoded size beyond the codec's maximum ratio (the
// decompression-bomb guard).
func unwrapFrame(frame []byte) (payload []byte, inflated *[]byte, err error) {
	if len(frame) == 0 {
		return nil, nil, badf("empty block frame")
	}
	flated, err := frameIsFlate(frame[0])
	if err != nil {
		return nil, nil, err
	}
	c := &byteCursor{b: frame, off: 1}
	rawLen := c.uvarint()
	if !flated {
		if c.err != nil {
			return nil, nil, c.err
		}
		rest := frame[c.off:]
		if uint64(len(rest)) != rawLen {
			return nil, nil, badf("raw block length %d != framed %d", rawLen, len(rest))
		}
		return rest, nil, nil
	}
	compLen := c.uvarint()
	if c.err != nil {
		return nil, nil, c.err
	}
	rest := frame[c.off:]
	if uint64(len(rest)) != compLen {
		return nil, nil, badf("compressed block length %d != framed %d", compLen, len(rest))
	}
	if rawLen > maxFlateRatio*compLen+64 {
		return nil, nil, badf("compressed block claims %d bytes from %d", rawLen, compLen)
	}
	inf := inflaters.Get()
	if inf == nil {
		inf = new(inflater)
		inf.r = flate.NewReader(&inf.src)
	}
	inf.src.Reset(rest)
	inf.r.(flate.Resetter).Reset(&inf.src, nil)
	defer inflaters.Put(inf)
	inflated = takeBuf(&payloadBufs, int(rawLen))
	if _, err := io.ReadFull(inf.r, *inflated); err != nil {
		payloadBufs.Put(inflated)
		return nil, nil, badf("inflating block: %v", err)
	}
	var one [1]byte
	if n, _ := inf.r.Read(one[:]); n != 0 {
		payloadBufs.Put(inflated)
		return nil, nil, badf("compressed block longer than declared %d bytes", rawLen)
	}
	return *inflated, inflated, nil
}

// BlockInfo is one block's entry in the footer index: where its frame
// lives, the statistics a scan plan prunes by, and the byte range and codec
// of every column segment.
type BlockInfo struct {
	Offset   int64 // absolute file offset of the block frame
	Len      int64 // framed length in bytes
	Count    int   // events in the block
	MinStart time.Duration
	MaxStart time.Duration

	MinRank   int32
	MaxRank   int32
	LevelMask uint32         // bit l set ⇒ some event has Level l
	OpMask    uint32         // bit o set ⇒ some event has Op o
	ColLens   [NumCols]int64 // byte length of each column segment
	SegCodecs [NumCols]uint8 // segment codec id per column
}

// BlockReader reads a trace log through its footer index: the header
// decodes eagerly, and each block decodes independently — concurrent
// ReadBlock calls are safe, which is what
// lets the analyzer fan decode out over the worker pool.
type BlockReader struct {
	r           io.ReaderAt
	hdr         *Trace
	blockEvents int
	nEvents     uint64
	blocks      []BlockInfo
}

// minFooterEntry is the smallest footer entry: nine one-byte varints, then
// a length byte and a codec byte per column.
const minFooterEntry = 9 + 2*NumCols

// NewBlockReader opens a trace log of the given size (as from
// os.File.Stat). It reads the header and the footer index; blocks decode
// on demand. A log without a valid footer is refused.
func NewBlockReader(r io.ReaderAt, size int64) (*BlockReader, error) {
	// Preamble: magic, header, block geometry.
	sr := getReader(io.NewSectionReader(r, 0, size), size)
	defer putReader(sr)
	head := make([]byte, len(magicV2))
	if _, err := io.ReadFull(sr.r, head); err != nil {
		return nil, readErr(err)
	}
	if err := checkMagic(head, magicV2); err != nil {
		return nil, err
	}
	hdr, err := readHeader(sr, size-int64(len(magicV2)))
	if err != nil {
		if IsCtxErr(err) {
			return nil, err
		}
		return nil, badf("header: %v", err)
	}
	be, nEvents, nBlocks := sr.uvarint(), sr.uvarint(), sr.uvarint()
	if sr.err != nil {
		return nil, readErr(sr.err)
	}
	if be == 0 || be > maxBlockEvents {
		return nil, badf("block size %d", be)
	}
	if nEvents > 1<<32 {
		return nil, badf("event count %d", nEvents)
	}
	if want := (nEvents + be - 1) / be; nBlocks != want {
		return nil, badf("block count %d for %d events of %d", nBlocks, nEvents, be)
	}

	// Footer: fixed trailer at the tail locates the index.
	if size < trailerLen {
		return nil, badf("no room for footer trailer")
	}
	var trailer [trailerLen]byte
	if _, err := r.ReadAt(trailer[:], size-trailerLen); err != nil {
		if IsCtxErr(err) {
			return nil, err
		}
		return nil, badf("footer trailer: %v", err)
	}
	if err := checkMagic(trailer[8:], footerMagic); err != nil {
		return nil, err
	}
	footLen := binary.LittleEndian.Uint64(trailer[:8])
	if footLen > uint64(size-trailerLen) {
		return nil, badf("footer length %d exceeds file", footLen)
	}
	// Each entry needs at least one byte per field, so the footer length
	// itself bounds the index allocation a corrupt header can demand.
	if nBlocks*minFooterEntry > footLen {
		return nil, badf("footer %d bytes too small for %d blocks", footLen, nBlocks)
	}
	foot := make([]byte, footLen)
	footStart := size - trailerLen - int64(footLen)
	if _, err := r.ReadAt(foot, footStart); err != nil {
		if IsCtxErr(err) {
			return nil, err
		}
		return nil, badf("footer: %v", err)
	}
	c := &byteCursor{b: foot}
	if got := c.uvarint(); c.err != nil || got != nBlocks {
		return nil, badf("footer block count %d != header %d", got, nBlocks)
	}
	blocks := make([]BlockInfo, nBlocks)
	prevEnd := int64(len(magicV2))
	var total uint64
	for k := range blocks {
		bi := &blocks[k]
		bi.Offset = int64(c.uvarint())
		bi.Len = int64(c.uvarint())
		bi.Count = int(c.uvarint())
		bi.MinStart = time.Duration(c.varint())
		bi.MaxStart = time.Duration(c.varint())
		bi.MinRank = int32(boundedInt(c, "footer min rank"))
		bi.MaxRank = int32(boundedInt(c, "footer max rank"))
		lm := c.uvarint()
		om := c.uvarint()
		if c.err == nil && (lm > math.MaxUint32 || om > math.MaxUint32) {
			return nil, badf("block %d stat masks out of range", k)
		}
		bi.LevelMask = uint32(lm)
		bi.OpMask = uint32(om)
		var sum int64
		for col := 0; col < NumCols; col++ {
			cl := c.uvarint()
			if c.err == nil && cl > uint64(math.MaxInt32) {
				return nil, badf("block %d column %d segment length %d", k, col, cl)
			}
			bi.ColLens[col] = int64(cl)
			sum += int64(cl)
		}
		if c.err == nil && sum > maxFlateRatio*bi.Len+64 {
			return nil, badf("block %d column segments claim %d bytes from %d-byte frame", k, sum, bi.Len)
		}
		ids, err := c.take(NumCols)
		if err != nil {
			return nil, err
		}
		for col, id := range ids {
			if id >= numSegCodecs {
				return nil, badf("block %d column %d segment codec %d", k, col, id)
			}
			bi.SegCodecs[col] = id
		}
		if bi.Offset < prevEnd || bi.Len <= 0 || bi.Offset+bi.Len > footStart {
			return nil, badf("block %d frame [%d,+%d) out of bounds", k, bi.Offset, bi.Len)
		}
		prevEnd = bi.Offset + bi.Len
		want := int(be)
		if k == len(blocks)-1 {
			want = int(nEvents - total)
		}
		if bi.Count != want {
			return nil, badf("block %d holds %d events, want %d", k, bi.Count, want)
		}
		total += uint64(bi.Count)
	}
	if c.off != len(foot) {
		return nil, badf("%d trailing footer bytes", len(foot)-c.off)
	}
	if total != nEvents {
		return nil, badf("blocks hold %d events, header says %d", total, nEvents)
	}
	// The index is today's; a retired frame behind it is refused here, not
	// by whichever query first reads the block.
	if len(blocks) > 0 {
		var codec [1]byte
		if _, err := r.ReadAt(codec[:], blocks[0].Offset); err != nil {
			if IsCtxErr(err) {
				return nil, err
			}
			return nil, badf("block 0: %v", err)
		}
		if _, err := frameIsFlate(codec[0]); err != nil {
			return nil, fmt.Errorf("block 0: %w", err)
		}
	}
	return &BlockReader{
		r:           r,
		hdr:         hdr,
		blockEvents: int(be),
		nEvents:     nEvents,
		blocks:      blocks,
	}, nil
}

// Header returns the decoded trace header (Meta, Apps, Files, Samples; no
// Events). The reader retains no reference to it.
func (br *BlockReader) Header() *Trace { return br.hdr }

// NumBlocks returns the number of event blocks.
func (br *BlockReader) NumBlocks() int { return len(br.blocks) }

// BlockEvents returns the events-per-block geometry of the log.
func (br *BlockReader) BlockEvents() int { return br.blockEvents }

// NumEvents returns the total event count.
func (br *BlockReader) NumEvents() uint64 { return br.nEvents }

// BlockAt returns block k's index entry (offset, length, count, time
// bounds) without decoding it — the seekable pruning surface.
func (br *BlockReader) BlockAt(k int) BlockInfo { return br.blocks[k] }

// BlockSource is the read surface the columnar scan consumes: footer-index
// geometry plus on-demand block handles. *BlockReader is the canonical
// implementation; vanid wraps one in a caching source so hot traces decode
// zero times across requests.
type BlockSource interface {
	Header() *Trace
	NumBlocks() int
	BlockAt(k int) BlockInfo
	ReadBlock(k int) (*BlockData, error)
}

var _ BlockSource = (*BlockReader)(nil)

// readBlockPayload fetches and unwraps block k's raw payload, returning the
// recycled buffer it lives in and that buffer's list: the frame buffer for
// a raw frame, a payload buffer for a flate one (whose frame buffer goes
// straight back). No buffer stays out on error.
func (br *BlockReader) readBlockPayload(k int) (payload []byte, buf *[]byte, list *parallel.FreeList[[]byte], err error) {
	bi := br.blocks[k]
	fp := takeBuf(&frameList, int(bi.Len))
	if _, err := br.r.ReadAt(*fp, bi.Offset); err != nil {
		frameList.Put(fp)
		if IsCtxErr(err) {
			return nil, nil, nil, err // canceled read, not corrupt input
		}
		return nil, nil, nil, badf("block %d: %v", k, err)
	}
	payload, inflated, err := unwrapFrame(*fp)
	switch {
	case err != nil:
		frameList.Put(fp)
		return nil, nil, nil, fmt.Errorf("block %d: %w", k, err)
	case inflated != nil:
		frameList.Put(fp)
		return payload, inflated, &payloadBufs, nil
	}
	return payload, fp, &frameList, nil
}

// ReadTrace returns the log's header with Events holding every event that
// matches f, in log order; the zero Filter keeps them all. Blocks the footer
// statistics rule out are never read. Each block's rows append straight
// into the result, and its decoded columns and payload buffer go back to
// their pools before the next block is read, so beyond the result the read
// holds one block's scratch.
func (br *BlockReader) ReadTrace(f Filter) (*Trace, error) {
	t := *br.hdr
	var m *Matcher
	if f.Empty() {
		// A corrupt count claim could still be far past what the blocks
		// decode to, so the reservation is capped; the blocks' own
		// validation refuses the rest.
		t.Events = make([]Event, 0, min(br.nEvents, 1<<24))
	} else {
		m = f.NewMatcher()
	}
	for k := range br.blocks {
		if m != nil && m.SkipBlock(br.blocks[k]) {
			continue
		}
		var err error
		if t.Events, err = br.appendBlock(t.Events, k, m); err != nil {
			return nil, err
		}
	}
	return &t, nil
}

// appendBlock appends block k's events that m matches (all of them when m
// is nil) to dst, through the footer-checked ReadBlock and Decode.
func (br *BlockReader) appendBlock(dst []Event, k int, m *Matcher) ([]Event, error) {
	bd, err := br.ReadBlock(k)
	if err != nil {
		return nil, err
	}
	defer bd.Release()
	var cols Columns
	if _, _, err := bd.Decode(AllCols, &cols); err != nil {
		return nil, err
	}
	dst = appendEvents(dst, &cols, m)
	cols.Recycle(AllCols)
	return dst, nil
}

// Read decodes a whole trace log from a stream. The stream is buffered —
// in one allocation when it is a file or an in-memory reader, whose length
// is known — and read through its footer index like a file: the encoded
// bytes are a small fraction of the events they decode to.
func Read(in io.Reader) (*Trace, error) {
	var buf bytes.Buffer
	switch r := in.(type) {
	case interface{ Len() int }:
		buf.Grow(r.Len() + bytes.MinRead)
	case *os.File:
		if info, err := r.Stat(); err == nil {
			buf.Grow(int(info.Size()) + bytes.MinRead)
		}
	}
	if _, err := buf.ReadFrom(in); err != nil {
		return nil, err
	}
	br, err := NewBlockReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		return nil, err
	}
	return br.ReadTrace(Filter{})
}
