package trace

// VANITRC2: a block-structured trace log whose event section decodes in
// independent fixed-size blocks, so ingest parallelizes the way the paper's
// parquet row groups do for DASK. The header is byte-identical to
// VANITRC1's; the event log is reshaped into self-contained blocks (each
// with its own time base for delta encoding, optionally flate-compressed),
// followed by a seekable block-index footer.
//
// Layout:
//
//	magic "VANITRC2" (8 bytes)
//	header            (same bytes as VANITRC1: meta, apps, files, samples)
//	uvarint blockEvents   events per block (last block may hold fewer)
//	uvarint eventCount
//	uvarint blockCount    == ceil(eventCount/blockEvents)
//	blockCount × frame:
//	    byte codec            0 = raw row, 1 = flate row,
//	                          2 = raw columnar, 3 = flate columnar,
//	                          4 = raw columnar v2.2, 5 = flate columnar v2.2
//	    uvarint rawLen        decoded payload length in bytes
//	    [uvarint compLen]     only for flate codecs
//	    payload               rawLen raw bytes, or compLen flate bytes
//	footer (v2.0, trailer magic "VANIIDX2"):
//	    uvarint blockCount
//	    blockCount × entry:
//	        uvarint offset    absolute file offset of the block frame
//	        uvarint frameLen  framed length in bytes
//	        uvarint count     events in the block
//	        varint  minStart  earliest event start (ns)
//	        varint  maxStart  latest event start (ns)
//	footer (v2.1, trailer magic "VANIIDX3"): each v2.0 entry followed by
//	        varint  minRank, maxRank
//	        uvarint levelMask, opMask   occupancy bitmasks
//	        NumCols × uvarint colLen    per-column segment byte lengths
//	footer (v2.2, trailer magic "VANIIDX4"): each v2.1 entry followed by
//	        NumCols × byte segCodec     per-column segment codec ids
//	(every footer ends with a fixed-size trailer)
//	    8 bytes LE footerLen  bytes from "uvarint blockCount" through entries
//	    footer magic (8 bytes)
//
// Row block payload (codecs 0/1 — the PR 2 layout, still written under
// V2Options.RowLayout and always readable):
//
//	uvarint count
//	varint  base              first event's Start (ns)
//	count × event: uvarint Level, Op, Lib; varint Rank, Node, App, File,
//	               Offset, Size, Start-prev, End-Start   (prev starts at base)
//
// Columnar block payload (codecs 2/3, written under Codec: CodecV21): see
// blockcol.go — one independent segment per column, byte-ranged by the
// v2.1 footer, so a scan plan decodes only the columns it names and skips
// blocks its predicates rule out.
//
// v2.2 columnar payload (codecs 4/5, the default): the same segment order,
// but every segment leads with a codec id byte and its body uses the
// lightweight encoding a per-block cost model chose — RLE, dictionary,
// frame-of-reference bit-packing, or the v2.1 raw varints (segcodec.go).
//
// Every block decodes with no state from its neighbors, so encode fans out
// over the worker pool at write time and decode fans out at read time —
// and, because blocks default to colstore's chunk size, a decoded block's
// column slices hand off to the analyzer's columnar store with no copy.

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
	footerMagic = "VANIIDX2"

	// DefaultBlockEvents is the default number of events per block. It
	// matches colstore.ChunkRows so one decoded block fills exactly one
	// column chunk (asserted by a colstore test).
	DefaultBlockEvents = 1 << 14

	// maxBlockEvents bounds the per-block event count a decoder will
	// accept, capping allocation on corrupt input.
	maxBlockEvents = 1 << 20

	// minEventBytes is the smallest possible encoding of one event (11
	// varints of one byte each); count claims are validated against it.
	minEventBytes = 11

	// maxFlateRatio bounds the decompressed/compressed size a flate block
	// may claim, so rawLen cannot demand allocations unbacked by input.
	maxFlateRatio = 1032

	trailerLen = 16 // 8-byte LE footer length + footer magic
)

// Block payload codecs.
const (
	codecRaw   = 0
	codecFlate = 1
)

// Format identifies an on-disk trace log format version.
type Format int

// Supported formats.
const (
	FormatV1 Format = 1 // VANITRC1: one serial delta-encoded event stream
	FormatV2 Format = 2 // VANITRC2: block-structured, parallel decode
)

// String returns the flag-style name ("v1", "v2").
func (f Format) String() string {
	switch f {
	case FormatV1:
		return "v1"
	case FormatV2:
		return "v2"
	}
	return fmt.Sprintf("Format(%d)", int(f))
}

// ParseFormat parses a flag-style format name.
func ParseFormat(s string) (Format, error) {
	switch s {
	case "v1", "1", magic:
		return FormatV1, nil
	case "v2", "2", magicV2:
		return FormatV2, nil
	}
	return 0, fmt.Errorf("unknown trace format %q (want v1 or v2)", s)
}

// SniffMagic reports the format of a log beginning with head (at least 8
// bytes), and whether head is a known trace magic at all.
func SniffMagic(head []byte) (Format, bool) {
	if len(head) < len(magic) {
		return 0, false
	}
	switch string(head[:len(magic)]) {
	case magic:
		return FormatV1, true
	case magicV2:
		return FormatV2, true
	}
	return 0, false
}

// badf wraps a decode failure in ErrBadFormat. Every error on the VANITRC2
// decode paths goes through it (or wraps ErrBadFormat directly), so corrupt
// input is always distinguishable from I/O failure by errors.Is.
func badf(format string, args ...interface{}) error {
	return fmt.Errorf("%w: "+format, append([]interface{}{ErrBadFormat}, args...)...)
}

// CodecMode selects the columnar segment encoding the VANITRC2 writer
// uses. The zero value (CodecAuto) writes v2.2 payloads with per-segment
// codecs chosen by the cost model; CodecV21 writes the raw-varint v2.1
// layout; the remaining modes force one segment codec everywhere (the
// equivalence matrix exercises every decode kernel through them).
type CodecMode int

const (
	// CodecAuto (the default) writes v2.2 payloads, each segment encoded
	// with the codec the per-block cost model picks.
	CodecAuto CodecMode = iota
	// CodecV21 writes the v2.1 raw-varint columnar layout (VANIIDX3).
	CodecV21
	// CodecForceRaw..CodecForceFOR write v2.2 payloads with every segment
	// forced to one codec, regardless of size.
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
	case CodecV21:
		return "v21"
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
	case "v21", "v2.1", "off":
		return CodecV21, nil
	case "raw":
		return CodecForceRaw, nil
	case "rle":
		return CodecForceRLE, nil
	case "dict":
		return CodecForceDict, nil
	case "for", "pack":
		return CodecForceFOR, nil
	}
	return 0, fmt.Errorf("unknown codec mode %q (want auto, v21, raw, rle, dict or for)", s)
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

// V2Options tunes the VANITRC2 writer.
type V2Options struct {
	// BlockEvents is the number of events per block; 0 means
	// DefaultBlockEvents. Values above maxBlockEvents are clamped.
	BlockEvents int
	// Compress flate-compresses block payloads (size-prefixed), trading
	// encode/decode CPU for trace size. With the default v2.2 codecs the
	// segments are already compact, so flate is an optional outer layer.
	Compress bool
	// Parallelism bounds the encode workers (0 = GOMAXPROCS, 1 = inline).
	// The output bytes are identical at every setting.
	Parallelism int
	// RowLayout writes the legacy v2.0 row-interleaved block payloads and
	// VANIIDX2 footer instead of columnar payloads. Row-layout logs decode
	// everywhere but cannot serve projected (per-column) reads.
	RowLayout bool
	// Codec selects the columnar segment encoding (ignored under
	// RowLayout). The zero value is CodecAuto: v2.2 with per-segment
	// cost-model choice.
	Codec CodecMode
}

// WriteFormat encodes the trace to out in the requested format, with
// default options.
func WriteFormat(out io.Writer, t *Trace, f Format) error {
	switch f {
	case FormatV1:
		return Write(out, t)
	case FormatV2:
		return WriteV2(out, t)
	}
	return fmt.Errorf("trace: unknown format %d", int(f))
}

// WriteV2 encodes the trace as a VANITRC2 block log with default options.
func WriteV2(out io.Writer, t *Trace) error {
	return WriteV2With(out, t, V2Options{})
}

// WriteV2With encodes the trace as a VANITRC2 block log. Blocks are encoded
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
	v22 := !opt.RowLayout && opt.Codec != CodecV21
	force := opt.Codec.forceSeg()
	frames := make([][]byte, nBlocks)
	infos := make([]BlockInfo, nBlocks)
	parallel.ForEach(opt.Parallelism, nBlocks, func(k int) {
		lo := k * be
		hi := lo + be
		if hi > nEvents {
			hi = nEvents
		}
		evs := t.Events[lo:hi]
		switch {
		case opt.RowLayout:
			frames[k] = encodeBlockFrame(evs, opt.Compress)
			infos[k] = blockStats(evs)
		case v22:
			frames[k], infos[k] = encodeColumnarFrameV22(evs, opt.Compress, force)
		default:
			frames[k], infos[k] = encodeColumnarFrame(evs, opt.Compress)
		}
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
		if !opt.RowLayout {
			w.varint(int64(bi.MinRank))
			w.varint(int64(bi.MaxRank))
			w.uvarint(uint64(bi.LevelMask))
			w.uvarint(uint64(bi.OpMask))
			for _, cl := range bi.ColLens {
				w.uvarint(uint64(cl))
			}
			if v22 {
				w.raw(bi.SegCodecs[:])
			}
		}
	}
	var trailer [trailerLen]byte
	binary.LittleEndian.PutUint64(trailer[:8], uint64(w.n-footStart))
	switch {
	case opt.RowLayout:
		copy(trailer[8:], footerMagic)
	case v22:
		copy(trailer[8:], footerMagicV4)
	default:
		copy(trailer[8:], footerMagicV3)
	}
	w.raw(trailer[:])
	if w.err != nil {
		return w.err
	}
	return w.w.Flush()
}

// blockStats computes the footer statistics for one block's events.
func blockStats(evs []Event) BlockInfo {
	bi := BlockInfo{Count: len(evs)}
	if len(evs) == 0 {
		return bi
	}
	bi.MinStart, bi.MaxStart = evs[0].Start, evs[0].Start
	for i := 1; i < len(evs); i++ {
		if s := evs[i].Start; s < bi.MinStart {
			bi.MinStart = s
		} else if s > bi.MaxStart {
			bi.MaxStart = s
		}
	}
	return bi
}

// encodeBlockFrame encodes one block's events into a complete row-layout
// frame (codec byte, lengths, payload).
func encodeBlockFrame(evs []Event, compress bool) []byte {
	pp := getPayloadBuf(16 + minEventBytes*2*len(evs))
	payload := appendBlockPayload((*pp)[:0], evs)
	frame := wrapFrame(payload, compress, payloadRow)
	*pp = payload
	putPayloadBuf(pp)
	return frame
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
	frameBufPool = sync.Pool{New: func() interface{} {
		b := make([]byte, 0, 1<<16)
		return &b
	}}
)

func getPayloadBuf(capHint int) *[]byte {
	p := payloadBufPool.Get().(*[]byte)
	if cap(*p) < capHint {
		*p = make([]byte, 0, capHint)
	}
	return p
}

func putPayloadBuf(p *[]byte) { payloadBufPool.Put(p) }

// frameCodecs maps a payload kind to its raw/flate frame codec bytes.
func frameCodecs(kind payloadKind) (raw, flated byte) {
	switch kind {
	case payloadCol:
		return codecRawCol, codecFlateCol
	case payloadColV22:
		return codecRawColV22, codecFlateColV22
	}
	return codecRaw, codecFlate
}

// wrapFrame frames a block payload: codec byte, length claims, and the raw
// or flate-compressed bytes. The payload is copied, never retained.
func wrapFrame(payload []byte, compress bool, kind payloadKind) []byte {
	rawCodec, flateCodec := frameCodecs(kind)
	if !compress {
		frame := make([]byte, 0, len(payload)+binary.MaxVarintLen64+1)
		frame = append(frame, rawCodec)
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
	frame = append(frame, flateCodec)
	frame = binary.AppendUvarint(frame, uint64(len(payload)))
	frame = binary.AppendUvarint(frame, uint64(comp.Len()))
	frame = append(frame, comp.Bytes()...)
	flateWriterPool.Put(fw)
	compBufPool.Put(comp)
	return frame
}

// appendBlockPayload encodes evs as a self-contained block payload: the
// time base is the first event's Start, so delta decoding needs no state
// from earlier blocks.
func appendBlockPayload(dst []byte, evs []Event) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(evs)))
	if len(evs) == 0 {
		return dst
	}
	base := evs[0].Start
	dst = binary.AppendVarint(dst, int64(base))
	prev := base
	for i := range evs {
		e := &evs[i]
		dst = binary.AppendUvarint(dst, uint64(e.Level))
		dst = binary.AppendUvarint(dst, uint64(e.Op))
		dst = binary.AppendUvarint(dst, uint64(e.Lib))
		dst = binary.AppendVarint(dst, int64(e.Rank))
		dst = binary.AppendVarint(dst, int64(e.Node))
		dst = binary.AppendVarint(dst, int64(e.App))
		dst = binary.AppendVarint(dst, int64(e.File))
		dst = binary.AppendVarint(dst, e.Offset)
		dst = binary.AppendVarint(dst, e.Size)
		dst = binary.AppendVarint(dst, int64(e.Start-prev))
		dst = binary.AppendVarint(dst, int64(e.End-e.Start))
		prev = e.Start
	}
	return dst
}

// byteCursor decodes varints from an in-memory payload. Unlike the
// io.ByteReader path of the v1 scanner, it runs over a contiguous slice,
// which is what makes block decode fast enough to beat the serial stream.
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

// checkBlockCount validates a block's event-count claim against the actual
// payload size, so allocation is always backed by real input bytes.
func checkBlockCount(count uint64, payloadLen, blockEvents int) error {
	if count > uint64(blockEvents) || count > uint64(maxBlockEvents) {
		return badf("block count %d exceeds block size %d", count, blockEvents)
	}
	// One byte of count, then minEventBytes per event; the columnar v2.1
	// layout has nothing else (the row layout's leading timestamp makes its
	// true minimum one byte more).
	if count > 0 && minEventBytes*count+1 > uint64(payloadLen) {
		return badf("block count %d impossible for %d payload bytes", count, payloadLen)
	}
	return nil
}

// checkPayloadCount is the per-layout count validation. v1/v2.0/v2.1
// payloads spend at least minEventBytes per event, so the claim must be
// backed byte-for-byte; v2.2 run-length segments legitimately amplify (a
// constant 16K-row column is a handful of bytes), so the claim is bounded
// by the validated block geometry instead, each segment codec then
// validates its own claims (run totals, dict sizes, packed lengths) against
// real input bytes before touching memory.
func checkPayloadCount(count uint64, payloadLen, blockEvents int, kind payloadKind) error {
	if kind != payloadColV22 {
		return checkBlockCount(count, payloadLen, blockEvents)
	}
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

// decodeBlockEvents decodes a raw block payload into events, appending to
// dst (which is reset). blockEvents bounds the accepted count.
func decodeBlockEvents(payload []byte, blockEvents int, dst []Event) ([]Event, error) {
	c := &byteCursor{b: payload}
	count := c.uvarint()
	if c.err != nil {
		return nil, c.err
	}
	if err := checkBlockCount(count, len(payload), blockEvents); err != nil {
		return nil, err
	}
	dst = dst[:0]
	if count == 0 {
		if c.off != len(payload) {
			return nil, badf("trailing bytes after empty block")
		}
		return dst, nil
	}
	prev := time.Duration(c.varint())
	for i := uint64(0); i < count; i++ {
		var e Event
		e.Level = Level(c.uvarint())
		e.Op = Op(c.uvarint())
		e.Lib = Lib(c.uvarint())
		e.Rank = int32(boundedInt(c, "rank"))
		e.Node = int32(boundedInt(c, "node"))
		e.App = int32(c.varint())
		e.File = int32(c.varint())
		e.Offset = c.varint()
		e.Size = c.varint()
		e.Start = prev + time.Duration(c.varint())
		e.End = e.Start + time.Duration(c.varint())
		prev = e.Start
		if c.err != nil {
			return nil, c.err
		}
		dst = append(dst, e)
	}
	if c.off != len(payload) {
		return nil, badf("%d trailing bytes after block events", len(payload)-c.off)
	}
	return dst, nil
}

// boundedInt decodes a varint that must fit a non-negative int32 (ranks and
// node ids), matching the v1 decoder's validation.
func boundedInt(c *byteCursor, what string) int64 {
	v := c.varint()
	if c.err == nil && (v < 0 || v > math.MaxInt32) {
		c.err = badf("%s %d out of range", what, v)
	}
	return v
}

// Columns is one decoded block in column-major form: the exact per-field
// slices a colstore chunk is made of. DecodeColumns fills it straight from
// the block payload — no Event structs materialize — and colstore adopts
// the slices without copying when block size matches its chunk size.
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

// growSet resizes only the columns in set to n rows, reusing capacity
// where possible. Columns outside set are left untouched — possibly stale
// from an earlier decode — so callers must read only the columns they
// asked for.
func (cols *Columns) growSet(n int, set ColSet) {
	if set == AllCols {
		cols.grow(n)
		return
	}
	cols.N = n
	if set&ColLevel != 0 {
		cols.Level = growSlice(cols.Level, n)
	}
	if set&ColOp != 0 {
		cols.Op = growSlice(cols.Op, n)
	}
	if set&ColLib != 0 {
		cols.Lib = growSlice(cols.Lib, n)
	}
	if set&ColRank != 0 {
		cols.Rank = growSlice(cols.Rank, n)
	}
	if set&ColNode != 0 {
		cols.Node = growSlice(cols.Node, n)
	}
	if set&ColApp != 0 {
		cols.App = growSlice(cols.App, n)
	}
	if set&ColFile != 0 {
		cols.File = growSlice(cols.File, n)
	}
	if set&ColOffset != 0 {
		cols.Offset = growSlice(cols.Offset, n)
	}
	if set&ColSize != 0 {
		cols.Size = growSlice(cols.Size, n)
	}
	if set&ColStart != 0 {
		cols.Start = growSlice(cols.Start, n)
	}
	if set&ColEnd != 0 {
		cols.End = growSlice(cols.End, n)
	}
}

func growSlice[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// grow resizes every column to n rows, reusing capacity where possible.
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

// decodeBlockColumns decodes a raw block payload directly into column
// slices — the zero-copy handoff path into the columnar store.
func decodeBlockColumns(payload []byte, blockEvents int, cols *Columns) error {
	c := &byteCursor{b: payload}
	count := c.uvarint()
	if c.err != nil {
		return c.err
	}
	if err := checkBlockCount(count, len(payload), blockEvents); err != nil {
		return err
	}
	cols.grow(int(count))
	if count == 0 {
		if c.off != len(payload) {
			return badf("trailing bytes after empty block")
		}
		return nil
	}
	prev := c.varint()
	for i := 0; i < int(count); i++ {
		cols.Level[i] = uint8(c.uvarint())
		cols.Op[i] = uint8(c.uvarint())
		cols.Lib[i] = uint8(c.uvarint())
		cols.Rank[i] = int32(boundedInt(c, "rank"))
		cols.Node[i] = int32(boundedInt(c, "node"))
		cols.App[i] = int32(c.varint())
		cols.File[i] = int32(c.varint())
		cols.Offset[i] = c.varint()
		cols.Size[i] = c.varint()
		start := prev + c.varint()
		cols.Start[i] = start
		cols.End[i] = start + c.varint()
		prev = start
		if c.err != nil {
			return c.err
		}
	}
	if c.off != len(payload) {
		return badf("%d trailing bytes after block events", len(payload)-c.off)
	}
	return nil
}

// framePayloadKind maps a frame codec byte to its payload layout.
func framePayloadKind(codec byte) (payloadKind, bool) {
	switch codec {
	case codecRaw, codecFlate:
		return payloadRow, true
	case codecRawCol, codecFlateCol:
		return payloadCol, true
	case codecRawColV22, codecFlateColV22:
		return payloadColV22, true
	}
	return 0, false
}

// unwrapFrame strips a block frame down to its raw payload, decompressing
// if needed, and reports the payload layout. Allocation is bounded by the
// actual frame bytes: a flate block may not claim a decoded size beyond the
// codec's maximum ratio — the decompression-bomb guard applies identically
// to row, v2.1 and v2.2 columnar frames.
func unwrapFrame(frame []byte) ([]byte, payloadKind, error) {
	if len(frame) == 0 {
		return nil, 0, badf("empty block frame")
	}
	kind, ok := framePayloadKind(frame[0])
	if !ok {
		return nil, 0, badf("unknown block codec %d", frame[0])
	}
	c := &byteCursor{b: frame, off: 1}
	switch frame[0] {
	case codecRaw, codecRawCol, codecRawColV22:
		rawLen := c.uvarint()
		if c.err != nil {
			return nil, 0, c.err
		}
		rest := frame[c.off:]
		if uint64(len(rest)) != rawLen {
			return nil, 0, badf("raw block length %d != framed %d", rawLen, len(rest))
		}
		return rest, kind, nil
	default: // codecFlate, codecFlateCol, codecFlateColV22
		rawLen := c.uvarint()
		compLen := c.uvarint()
		if c.err != nil {
			return nil, 0, c.err
		}
		rest := frame[c.off:]
		if uint64(len(rest)) != compLen {
			return nil, 0, badf("compressed block length %d != framed %d", compLen, len(rest))
		}
		if rawLen > maxFlateRatio*compLen+64 {
			return nil, 0, badf("compressed block claims %d bytes from %d", rawLen, compLen)
		}
		fr := flateReaderPool.Get().(io.ReadCloser)
		fr.(flate.Resetter).Reset(bytes.NewReader(rest), nil)
		defer flateReaderPool.Put(fr)
		payload := make([]byte, rawLen)
		if _, err := io.ReadFull(fr, payload); err != nil {
			return nil, 0, badf("inflating block: %v", err)
		}
		var one [1]byte
		if n, _ := fr.Read(one[:]); n != 0 {
			return nil, 0, badf("compressed block longer than declared %d bytes", rawLen)
		}
		return payload, kind, nil
	}
}

// v2stream is the VANITRC2 state of a streaming Scanner: blocks decode
// sequentially, one at a time, into a reused event buffer.
type v2stream struct {
	blockEvents int
	blocksLeft  int
	buf         []Event // decoded current block
	pos         int
	frame       []byte  // reused frame scratch
	cols        Columns // reused scratch for columnar blocks
}

// newScannerV2 finishes scanner construction after a VANITRC2 magic: the
// shared header, then the block-section preamble.
func newScannerV2(r *reader) (*Scanner, error) {
	t, err := readHeader(r)
	if err != nil {
		return nil, err
	}
	be := r.uvarint()
	nEvents := r.uvarint()
	nBlocks := r.uvarint()
	if r.err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, r.err)
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
	return &Scanner{
		r:         r,
		hdr:       t,
		remaining: nEvents,
		v2:        &v2stream{blockEvents: int(be), blocksLeft: int(nBlocks)},
	}, nil
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
	rawLen := r.uvarint()
	var need uint64
	head := []byte{codec}
	head = binary.AppendUvarint(head, rawLen)
	switch codec {
	case codecRaw, codecRawCol, codecRawColV22:
		need = rawLen
	case codecFlate, codecFlateCol, codecFlateColV22:
		compLen := r.uvarint()
		head = binary.AppendUvarint(head, compLen)
		need = compLen
	default:
		return nil, badf("unknown block codec %d", codec)
	}
	if r.err != nil {
		return nil, badf("block frame: %v", r.err)
	}
	frame := append(s.frameScratch()[:0], head...)
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
	s.v2.frame = frame
	return frame, nil
}

func (s *Scanner) frameScratch() []byte {
	if s.v2.frame == nil {
		s.v2.frame = make([]byte, 0, 1<<16)
	}
	return s.v2.frame
}

// nextV2 serves Scanner.Next for block logs: decode the next block when
// the current one is drained, then copy events out.
func (s *Scanner) nextV2(buf []Event) (int, error) {
	v := s.v2
	if v.buf == nil {
		// Size the block buffer up front so the first block's transpose
		// doesn't grow it allocation by allocation. The claim is capped so
		// a corrupt header cannot force a large allocation before any
		// event bytes have been read.
		n := uint64(v.blockEvents)
		if n > s.remaining {
			n = s.remaining
		}
		if n > 1<<15 {
			n = 1 << 15
		}
		v.buf = make([]Event, 0, n)
	}
	filled := 0
	for filled < len(buf) && s.remaining > 0 {
		if v.pos == len(v.buf) {
			if v.blocksLeft == 0 {
				return filled, badf("event log short: %d events missing", s.remaining)
			}
			frame, err := s.readFrame()
			if err != nil {
				return filled, err
			}
			payload, kind, err := unwrapFrame(frame)
			if err != nil {
				return filled, err
			}
			var evs []Event
			switch kind {
			case payloadColV22:
				if err := decodeBlockColumnsSeqV22(payload, v.blockEvents, &v.cols); err != nil {
					return filled, err
				}
				evs = colsToEvents(&v.cols, v.buf)
			case payloadCol:
				if err := decodeBlockColumnsSeq(payload, v.blockEvents, &v.cols); err != nil {
					return filled, err
				}
				evs = colsToEvents(&v.cols, v.buf)
			default:
				evs, err = decodeBlockEvents(payload, v.blockEvents, v.buf)
				if err != nil {
					return filled, err
				}
			}
			if uint64(len(evs)) > s.remaining {
				return filled, badf("block overruns declared event count")
			}
			if v.blocksLeft > 1 && len(evs) != v.blockEvents {
				return filled, badf("interior block holds %d events, want %d", len(evs), v.blockEvents)
			}
			v.buf, v.pos = evs, 0
			v.blocksLeft--
		}
		n := copy(buf[filled:], v.buf[v.pos:])
		v.pos += n
		filled += n
		s.remaining -= uint64(n)
	}
	return filled, nil
}

// BlockInfo describes one block in the VANITRC2 footer index. The v2.0
// footer carries only the time bounds; v2.1 entries add rank bounds,
// level/op occupancy masks, and per-column segment byte lengths (HasStats
// reports which kind this entry is); v2.2 entries additionally record each
// segment's codec id (HasCodecs).
type BlockInfo struct {
	Offset   int64 // absolute file offset of the block frame
	Len      int64 // framed length in bytes
	Count    int   // events in the block
	MinStart time.Duration
	MaxStart time.Duration

	// v2.1 statistics (valid only when HasStats).
	MinRank   int32
	MaxRank   int32
	LevelMask uint32         // bit l set ⇒ some event has Level l
	OpMask    uint32         // bit o set ⇒ some event has Op o
	ColLens   [NumCols]int64 // byte length of each column segment

	// v2.2 codec ids (valid only when HasCodecs).
	SegCodecs [NumCols]uint8 // segment codec id per column

	HasStats  bool
	HasCodecs bool
}

// BlockReader reads a VANITRC2 log through its footer index: the header
// decodes eagerly, and each block decodes independently — concurrent
// DecodeColumns/DecodeEvents calls on distinct blocks are safe, which is
// what lets the analyzer fan decode out over the worker pool.
type BlockReader struct {
	r           io.ReaderAt
	hdr         *Trace
	blockEvents int
	nEvents     uint64
	blocks      []BlockInfo
}

// NewBlockReader opens a VANITRC2 log of the given size (as from
// os.File.Stat). It reads the header and the footer index; blocks decode
// on demand. Use Scanner for sequential access to non-seekable inputs.
func NewBlockReader(r io.ReaderAt, size int64) (*BlockReader, error) {
	sr := &reader{r: bufio.NewReaderSize(io.NewSectionReader(r, 0, size), 1<<16)}
	head := make([]byte, len(magicV2))
	if _, err := io.ReadFull(sr.r, head); err != nil {
		return nil, readErr(err)
	}
	if string(head) != magicV2 {
		return nil, badf("bad magic %q (not a VANITRC2 log)", head)
	}
	hdr, err := readHeader(sr)
	if err != nil {
		if IsCtxErr(err) {
			return nil, err
		}
		return nil, fmt.Errorf("%w: header: %v", ErrBadFormat, err)
	}
	be := sr.uvarint()
	nEvents := sr.uvarint()
	nBlocks := sr.uvarint()
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
	var hasStats, hasCodecs bool
	switch string(trailer[8:]) {
	case footerMagic:
	case footerMagicV3:
		hasStats = true
	case footerMagicV4:
		hasStats, hasCodecs = true, true
	default:
		return nil, badf("bad footer magic %q", trailer[8:])
	}
	footLen := binary.LittleEndian.Uint64(trailer[:8])
	if footLen > uint64(size-trailerLen) {
		return nil, badf("footer length %d exceeds file", footLen)
	}
	// Each entry needs at least one byte per field, so the footer length
	// itself bounds the index allocation a corrupt header can demand.
	minEntry := uint64(5)
	if hasStats {
		minEntry = 9 + NumCols
	}
	if hasCodecs {
		minEntry += NumCols
	}
	if nBlocks*minEntry > footLen {
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
		if hasStats {
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
			bi.HasStats = true
			if hasCodecs {
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
				bi.HasCodecs = true
			}
		}
		if c.err != nil {
			return nil, c.err
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

// readBlockPayload fetches and unwraps block k's raw payload, reporting its
// layout. Frame buffers come from a pool and recycle whenever the payload
// does not alias them (flate frames decompress into fresh memory; raw
// frames hand their own bytes out and the buffer leaves the pool).
func (br *BlockReader) readBlockPayload(k int) ([]byte, payloadKind, error) {
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
			return nil, 0, err // canceled read, not corrupt input
		}
		return nil, 0, badf("block %d: %v", k, err)
	}
	payload, kind, err := unwrapFrame(frame)
	if err != nil {
		// No payload escapes on error — recycle unconditionally, including
		// raw-codec frames whose length claims failed validation.
		frameBufPool.Put(fp)
		return nil, 0, fmt.Errorf("block %d: %w", k, err)
	}
	if frame[0] != codecRaw && frame[0] != codecRawCol && frame[0] != codecRawColV22 {
		frameBufPool.Put(fp) // flate payload is a fresh buffer, not an alias
	}
	return payload, kind, nil
}

// DecodeColumns decodes every column of block k into column slices, reusing
// the capacity of cols. Safe to call concurrently for distinct cols. Use
// ReadBlock + BlockData.Decode for projected (per-column) reads.
func (br *BlockReader) DecodeColumns(k int, cols *Columns) error {
	payload, kind, err := br.readBlockPayload(k)
	if err != nil {
		return err
	}
	switch kind {
	case payloadColV22:
		err = decodeBlockColumnsSeqV22(payload, br.blockEvents, cols)
	case payloadCol:
		err = decodeBlockColumnsSeq(payload, br.blockEvents, cols)
	default:
		err = decodeBlockColumns(payload, br.blockEvents, cols)
	}
	if err != nil {
		return fmt.Errorf("block %d: %w", k, err)
	}
	if cols.N != br.blocks[k].Count {
		return badf("block %d decodes %d events, index says %d", k, cols.N, br.blocks[k].Count)
	}
	return nil
}

// DecodeEvents decodes block k into row-major events, appending into dst's
// capacity (dst is reset). Safe to call concurrently for distinct dst.
func (br *BlockReader) DecodeEvents(k int, dst []Event) ([]Event, error) {
	payload, kind, err := br.readBlockPayload(k)
	if err != nil {
		return nil, err
	}
	var evs []Event
	switch kind {
	case payloadColV22, payloadCol:
		var cols Columns
		if kind == payloadColV22 {
			err = decodeBlockColumnsSeqV22(payload, br.blockEvents, &cols)
		} else {
			err = decodeBlockColumnsSeq(payload, br.blockEvents, &cols)
		}
		if err != nil {
			return nil, fmt.Errorf("block %d: %w", k, err)
		}
		evs = colsToEvents(&cols, dst)
	default:
		evs, err = decodeBlockEvents(payload, br.blockEvents, dst)
		if err != nil {
			return nil, fmt.Errorf("block %d: %w", k, err)
		}
	}
	if len(evs) != br.blocks[k].Count {
		return nil, badf("block %d decodes %d events, index says %d", k, len(evs), br.blocks[k].Count)
	}
	return evs, nil
}
