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
	"sync"
	"time"

	"vani/internal/parallel"
)

const (
	magicV2     = "VANITRC2"
	footerMagic = "VANIIDX4"

	// Block frame codecs: the payload as is, or under an outer flate layer.
	frameRaw   = 4
	frameFlate = 5

	// DefaultBlockEvents is the default number of events per block. It
	// matches colstore.ChunkRows so one decoded block fills exactly one
	// column chunk (asserted by a colstore test).
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

// WriteV2With encodes the trace to out. Blocks are encoded
// in parallel (encoding is embarrassingly parallel once the event log is
// sharded into blocks) and written in block order, so the output is
// byte-identical at any Parallelism.
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

	w := &writer{w: bufio.NewWriterSize(out, 1<<16)}
	w.raw([]byte(magicV2))
	writeHeader(w, t)
	w.uvarint(uint64(be))
	w.uvarint(uint64(nEvents))
	w.uvarint(uint64(nBlocks))

	// Fan block encoding out over the worker pool; frames land in their
	// block's slot and are written strictly in block order below.
	force := opt.Codec.forceSeg()
	frames := make([][]byte, nBlocks)
	infos := make([]BlockInfo, nBlocks)
	parallel.ForEach(opt.Parallelism, nBlocks, func(k int) {
		lo := k * be
		hi := lo + be
		if hi > nEvents {
			hi = nEvents
		}
		frames[k], infos[k] = encodeBlockFrame(t.Events[lo:hi], opt.Compress, force)
	})

	for k := range frames {
		infos[k].Offset = w.n
		infos[k].Len = int64(len(frames[k]))
		w.raw(frames[k])
	}

	footStart := w.n
	w.uvarint(uint64(nBlocks))
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
		return w.err
	}
	return w.w.Flush()
}

// Encoder and decoder scratch pools. wrapFrame always copies the payload
// into the returned frame (raw frames append it, flate frames compress it),
// so encoder payload buffers recycle; flate writers, their output buffers,
// and flate readers reset cleanly and recycle too. Decode-side frame
// buffers recycle only on the flate path — a raw frame's payload aliases
// the frame bytes and BlockData retains it for lazy materialization.
var (
	payloadBufPool = sync.Pool{New: func() interface{} {
		b := make([]byte, 0, 1<<16)
		return &b
	}}
	compBufPool     = sync.Pool{New: func() interface{} { return new(bytes.Buffer) }}
	flateWriterPool = sync.Pool{New: func() interface{} {
		fw, err := flate.NewWriter(io.Discard, flate.DefaultCompression)
		if err != nil {
			panic(err) // impossible: level is a valid constant
		}
		return fw
	}}
	flateReaderPool = sync.Pool{New: func() interface{} {
		return flate.NewReader(bytes.NewReader(nil))
	}}
	// A raw frame's buffer leaves the pool as the block's payload, so most
	// Gets find the pool empty: New hands out no capacity and
	// readBlockPayload sizes the buffer to the frame, once.
	frameBufPool = sync.Pool{New: func() interface{} { return new([]byte) }}
)

func getPayloadBuf(capHint int) *[]byte {
	p := payloadBufPool.Get().(*[]byte)
	if cap(*p) < capHint {
		*p = make([]byte, 0, capHint)
	}
	return p
}

func putPayloadBuf(p *[]byte) { payloadBufPool.Put(p) }

// wrapFrame frames a block payload: codec byte, length claims, and the raw
// or flate-compressed bytes. The payload is copied, never retained.
func wrapFrame(payload []byte, compress bool) []byte {
	if !compress {
		frame := make([]byte, 0, len(payload)+binary.MaxVarintLen64+1)
		frame = append(frame, frameRaw)
		frame = binary.AppendUvarint(frame, uint64(len(payload)))
		return append(frame, payload...)
	}
	comp := compBufPool.Get().(*bytes.Buffer)
	comp.Reset()
	fw := flateWriterPool.Get().(*flate.Writer)
	fw.Reset(comp)
	fw.Write(payload)
	fw.Close()
	frame := make([]byte, 0, comp.Len()+2*binary.MaxVarintLen64+1)
	frame = append(frame, frameFlate)
	frame = binary.AppendUvarint(frame, uint64(len(payload)))
	frame = binary.AppendUvarint(frame, uint64(comp.Len()))
	frame = append(frame, comp.Bytes()...)
	flateWriterPool.Put(fw)
	compBufPool.Put(comp)
	return frame
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
// slices without copying when block size matches its chunk size.
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
		cols.Level = growCol(&u8ColPool, cols.Level, n)
	}
	if set&ColOp != 0 {
		cols.Op = growCol(&u8ColPool, cols.Op, n)
	}
	if set&ColLib != 0 {
		cols.Lib = growCol(&u8ColPool, cols.Lib, n)
	}
	if set&ColRank != 0 {
		cols.Rank = growCol(&i32ColPool, cols.Rank, n)
	}
	if set&ColNode != 0 {
		cols.Node = growCol(&i32ColPool, cols.Node, n)
	}
	if set&ColApp != 0 {
		cols.App = growCol(&i32ColPool, cols.App, n)
	}
	if set&ColFile != 0 {
		cols.File = growCol(&i32ColPool, cols.File, n)
	}
	if set&ColOffset != 0 {
		cols.Offset = growCol(&i64ColPool, cols.Offset, n)
	}
	if set&ColSize != 0 {
		cols.Size = growCol(&i64ColPool, cols.Size, n)
	}
	if set&ColStart != 0 {
		cols.Start = growCol(&i64ColPool, cols.Start, n)
	}
	if set&ColEnd != 0 {
		cols.End = growCol(&i64ColPool, cols.End, n)
	}
}

// grow resizes every column to n rows, reusing capacity where possible and
// allocating exactly n rows where not — the sizing of long-lived holders
// (the memo, a Scanner), which never draw from the column pools.
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

// unwrapFrame strips a block frame down to its raw payload, decompressing
// if needed; fresh reports that the payload is a new buffer rather than an
// alias of the frame bytes. Allocation is bounded by the actual frame
// bytes: a flate block may not claim a decoded size beyond the codec's
// maximum ratio (the decompression-bomb guard).
func unwrapFrame(frame []byte) (payload []byte, fresh bool, err error) {
	if len(frame) == 0 {
		return nil, false, badf("empty block frame")
	}
	flated, err := frameIsFlate(frame[0])
	if err != nil {
		return nil, false, err
	}
	c := &byteCursor{b: frame, off: 1}
	rawLen := c.uvarint()
	if !flated {
		if c.err != nil {
			return nil, false, c.err
		}
		rest := frame[c.off:]
		if uint64(len(rest)) != rawLen {
			return nil, false, badf("raw block length %d != framed %d", rawLen, len(rest))
		}
		return rest, false, nil
	}
	compLen := c.uvarint()
	if c.err != nil {
		return nil, false, c.err
	}
	rest := frame[c.off:]
	if uint64(len(rest)) != compLen {
		return nil, false, badf("compressed block length %d != framed %d", compLen, len(rest))
	}
	if rawLen > maxFlateRatio*compLen+64 {
		return nil, false, badf("compressed block claims %d bytes from %d", rawLen, compLen)
	}
	fr := flateReaderPool.Get().(io.ReadCloser)
	fr.(flate.Resetter).Reset(bytes.NewReader(rest), nil)
	defer flateReaderPool.Put(fr)
	payload = make([]byte, rawLen)
	if _, err := io.ReadFull(fr, payload); err != nil {
		return nil, false, badf("inflating block: %v", err)
	}
	var one [1]byte
	if n, _ := fr.Read(one[:]); n != 0 {
		return nil, false, badf("compressed block longer than declared %d bytes", rawLen)
	}
	return payload, true, nil
}

// geometry is the block-section preamble that follows the header.
type geometry struct {
	blockEvents, nEvents, nBlocks uint64
}

// readPreamble reads everything ahead of the first block frame — magic,
// header, block geometry — the part Scanner and BlockReader open alike.
func readPreamble(r *reader) (*Trace, geometry, error) {
	var g geometry
	head := make([]byte, len(magicV2))
	if _, err := io.ReadFull(r.r, head); err != nil {
		return nil, g, readErr(err)
	}
	if err := checkMagic(head, magicV2); err != nil {
		return nil, g, err
	}
	hdr, err := readHeader(r)
	if err != nil {
		if IsCtxErr(err) {
			return nil, g, err
		}
		return nil, g, badf("header: %v", err)
	}
	g.blockEvents = r.uvarint()
	g.nEvents = r.uvarint()
	g.nBlocks = r.uvarint()
	if r.err != nil {
		return nil, g, readErr(r.err)
	}
	if g.blockEvents == 0 || g.blockEvents > maxBlockEvents {
		return nil, g, badf("block size %d", g.blockEvents)
	}
	if g.nEvents > 1<<32 {
		return nil, g, badf("event count %d", g.nEvents)
	}
	if want := (g.nEvents + g.blockEvents - 1) / g.blockEvents; g.nBlocks != want {
		return nil, g, badf("block count %d for %d events of %d", g.nBlocks, g.nEvents, g.blockEvents)
	}
	return hdr, g, nil
}

// readFrame reads the next block frame from the sequential stream into the
// reused scratch buffer. Reads grow incrementally so a truncated stream
// cannot force a large allocation from a corrupt length claim.
func (s *Scanner) readFrame() ([]byte, error) {
	r := s.r
	codec, err := r.r.ReadByte()
	if err != nil {
		return nil, badf("block frame: %v", err)
	}
	flated, err := frameIsFlate(codec)
	if err != nil {
		return nil, err
	}
	need := r.uvarint()
	head := binary.AppendUvarint([]byte{codec}, need)
	if flated {
		need = r.uvarint()
		head = binary.AppendUvarint(head, need)
	}
	if r.err != nil {
		return nil, badf("block frame: %v", r.err)
	}
	if s.frame == nil {
		s.frame = make([]byte, 0, 1<<16)
	}
	frame := append(s.frame[:0], head...)
	const step = 1 << 20
	for got := uint64(0); got < need; {
		n := need - got
		if n > step {
			n = step
		}
		pos := len(frame)
		frame = append(frame, make([]byte, n)...)
		if _, err := io.ReadFull(r.r, frame[pos:]); err != nil {
			return nil, badf("block frame body: %v", err)
		}
		got += n
	}
	s.frame = frame
	return frame, nil
}

// Next decodes up to len(buf) events into buf and returns how many were
// filled: the next block decodes when the current one is drained, then
// events copy out. It returns io.EOF (with n == 0) once the event log is
// exhausted, and a decoding error if the log is corrupt or truncated.
func (s *Scanner) Next(buf []Event) (int, error) {
	if s.remaining == 0 {
		return 0, io.EOF
	}
	if s.buf == nil {
		// Size the block buffer up front so the first block's transpose
		// doesn't grow it allocation by allocation. The claim is capped so
		// a corrupt header cannot force a large allocation before any
		// event bytes have been read.
		s.buf = make([]Event, 0, min(uint64(s.blockEvents), s.remaining, 1<<15))
	}
	filled := 0
	for filled < len(buf) && s.remaining > 0 {
		if s.pos == len(s.buf) {
			if s.blocksLeft == 0 {
				return filled, badf("event log short: %d events missing", s.remaining)
			}
			frame, err := s.readFrame()
			if err != nil {
				return filled, err
			}
			payload, _, err := unwrapFrame(frame)
			if err != nil {
				return filled, err
			}
			if err := decodeBlockSeq(payload, s.blockEvents, &s.cols); err != nil {
				return filled, err
			}
			evs := colsToEvents(&s.cols, s.buf)
			if uint64(len(evs)) > s.remaining {
				return filled, badf("block overruns declared event count")
			}
			if s.blocksLeft > 1 && len(evs) != s.blockEvents {
				return filled, badf("interior block holds %d events, want %d", len(evs), s.blockEvents)
			}
			s.buf, s.pos = evs, 0
			s.blocksLeft--
		}
		n := copy(buf[filled:], s.buf[s.pos:])
		s.pos += n
		filled += n
		s.remaining -= uint64(n)
	}
	return filled, nil
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
// ReadBlock/DecodeEvents calls on distinct blocks are safe, which is what
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
// on demand. Use Scanner for sequential access to non-seekable inputs.
func NewBlockReader(r io.ReaderAt, size int64) (*BlockReader, error) {
	sr := &reader{r: bufio.NewReaderSize(io.NewSectionReader(r, 0, size), 1<<16)}
	hdr, g, err := readPreamble(sr)
	if err != nil {
		return nil, err
	}
	be, nEvents, nBlocks := g.blockEvents, g.nEvents, g.nBlocks

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
	BlockEvents() int
	NumEvents() uint64
	BlockAt(k int) BlockInfo
	ReadBlock(k int) (*BlockData, error)
}

var _ BlockSource = (*BlockReader)(nil)

// readBlockPayload fetches and unwraps block k's raw payload. Frame buffers
// come from a pool and recycle whenever the payload does not alias them
// (flate frames decompress into fresh memory; raw frames hand their own
// bytes out and the buffer leaves the pool).
func (br *BlockReader) readBlockPayload(k int) ([]byte, error) {
	bi := br.blocks[k]
	fp := frameBufPool.Get().(*[]byte)
	if int64(cap(*fp)) < bi.Len {
		*fp = make([]byte, bi.Len)
	}
	frame := (*fp)[:bi.Len]
	*fp = frame
	if _, err := br.r.ReadAt(frame, bi.Offset); err != nil {
		frameBufPool.Put(fp)
		if IsCtxErr(err) {
			return nil, err // canceled read, not corrupt input
		}
		return nil, badf("block %d: %v", k, err)
	}
	payload, fresh, err := unwrapFrame(frame)
	if err != nil {
		// No payload escapes on error — recycle unconditionally, including
		// raw frames whose length claims failed validation.
		frameBufPool.Put(fp)
		return nil, fmt.Errorf("block %d: %w", k, err)
	}
	if fresh {
		frameBufPool.Put(fp)
	}
	return payload, nil
}

// DecodeEvents decodes block k into row-major events, appending into dst's
// capacity (dst is reset). Safe to call concurrently for distinct dst.
func (br *BlockReader) DecodeEvents(k int, dst []Event) ([]Event, error) {
	payload, err := br.readBlockPayload(k)
	if err != nil {
		return nil, err
	}
	var cols Columns
	if err := decodeBlockSeq(payload, br.blockEvents, &cols); err != nil {
		return nil, fmt.Errorf("block %d: %w", k, err)
	}
	if cols.N != br.blocks[k].Count {
		return nil, badf("block %d decodes %d events, index says %d", k, cols.N, br.blocks[k].Count)
	}
	return colsToEvents(&cols, dst), nil
}
