package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"vani/internal/parallel"
)

// The on-disk trace log plays the role of Recorder's native trace format,
// which the paper converts to columnar parquet before analysis; ours is
// columnar on disk already (blockio.go holds the layout). This file holds
// the parts the reader and the writer share: the varint framing and the
// trace header.
//
// Strings are uvarint length + bytes. Signed ints use zig-zag varints.

// ErrBadFormat is returned when decoding input that is not a trace log.
var ErrBadFormat = errors.New("trace: bad format")

type writer struct {
	w   *bufio.Writer
	buf [binary.MaxVarintLen64]byte
	n   int64 // bytes written so far (for the v2 block index)
	err error
}

func (w *writer) raw(b []byte) {
	if w.err != nil {
		return
	}
	var n int
	n, w.err = w.w.Write(b)
	w.n += int64(n)
}

func (w *writer) uvarint(v uint64) {
	if w.err != nil {
		return
	}
	n := binary.PutUvarint(w.buf[:], v)
	_, w.err = w.w.Write(w.buf[:n])
	w.n += int64(n)
}

func (w *writer) varint(v int64) {
	if w.err != nil {
		return
	}
	n := binary.PutVarint(w.buf[:], v)
	_, w.err = w.w.Write(w.buf[:n])
	w.n += int64(n)
}

func (w *writer) str(s string) {
	w.uvarint(uint64(len(s)))
	if w.err != nil {
		return
	}
	_, w.err = w.w.WriteString(s)
	w.n += int64(len(s))
}

// writeHeader encodes the trace header: job metadata, the app/file
// interning tables, and the dataset samples.
func writeHeader(w *writer, t *Trace) {
	m := &t.Meta
	w.str(m.Workload)
	w.str(m.JobID)
	w.varint(int64(m.Nodes))
	w.varint(int64(m.CoresPerNode))
	w.varint(int64(m.GPUsPerNode))
	w.varint(int64(m.MemPerNodeGB))
	w.varint(int64(m.Ranks))
	w.str(m.NodeLocalDir)
	w.str(m.SharedBBDir)
	w.str(m.PFSDir)
	w.varint(int64(m.JobTimeLimit))
	w.varint(int64(m.TraceOverhead))

	w.uvarint(uint64(len(t.Apps)))
	for _, a := range t.Apps {
		w.str(a)
	}
	w.uvarint(uint64(len(t.Files)))
	for i := range t.Files {
		f := &t.Files[i]
		w.str(f.Path)
		w.varint(f.Size)
		w.str(f.Target)
		w.str(f.Format)
		w.varint(int64(f.NDims))
		w.str(f.DataType)
	}
	w.uvarint(uint64(len(t.Samples)))
	for i := range t.Samples {
		s := &t.Samples[i]
		w.str(s.Name)
		w.uvarint(uint64(len(s.Values)))
		for _, v := range s.Values {
			w.uvarint(math.Float64bits(v))
		}
	}
}

type reader struct {
	r   *bufio.Reader
	err error
	// String-arena state for header decoding: strTo accumulates string
	// bytes in strBuf and records destinations in pend; flushStrs converts
	// the whole arena to one immutable string and hands out slices of it,
	// so a header with hundreds of interned paths costs two allocations
	// instead of two per string.
	strBuf []byte
	pend   []pendingStr
	// left bounds the string bytes still to come: the bytes the log held
	// when the header began, less the string bytes read since. A length
	// claim past it is refused before anything is allocated.
	left int64
}

// readBufSize is the header reader's buffer size.
const readBufSize = 1 << 16

// readerPool recycles the header reader's scratch across NewBlockReader
// calls on logs of at least readBufSize bytes: the read buffer, the string
// arena and the pending-string list. flushStrs copies the arena out, so a
// decoded header owns nothing pooled.
var readerPool parallel.FreeList[reader]

// getReader returns a header reader over src, a log of size bytes. A log
// shorter than the read buffer gets a reader of its own sized by the log,
// so a few-byte log allocates a few bytes; the others share readerPool's.
func getReader(src io.Reader, size int64) *reader {
	if size < readBufSize {
		return &reader{r: bufio.NewReaderSize(src, int(size))}
	}
	r := readerPool.Get()
	if r == nil {
		return &reader{r: bufio.NewReaderSize(src, readBufSize)}
	}
	r.r.Reset(src)
	return r
}

// putReader hands a pooled reader back, first dropping what it points at:
// the source, and the header fields an unflushed pending string names.
func putReader(r *reader) {
	if r.r.Size() < readBufSize {
		return
	}
	r.r.Reset(nil)
	clear(r.pend[:cap(r.pend)])
	r.pend, r.strBuf = r.pend[:0], r.strBuf[:0]
	r.err, r.left = nil, 0
	readerPool.Put(r)
}

// pendingStr is one string awaiting arena flush: dst receives
// arena[start:end] once the arena is frozen.
type pendingStr struct {
	dst        *string
	start, end int
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(r.r)
	r.err = err
	return v
}

func (r *reader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, err := binary.ReadVarint(r.r)
	r.err = err
	return v
}

const maxStringLen = 1 << 20

// strTo reads a length-prefixed string into the arena and schedules *dst
// to receive it at the next flushStrs. dst must stay valid until the
// flush: point it at a field of a preallocated slice element or a local
// that is flushed before any append can move it.
func (r *reader) strTo(dst *string) {
	n := r.uvarint()
	if r.err != nil {
		return
	}
	if n > maxStringLen || n > uint64(max(r.left, 0)) {
		r.err = fmt.Errorf("%w: string length %d", ErrBadFormat, n)
		return
	}
	r.left -= int64(n)
	if n == 0 {
		*dst = ""
		return
	}
	start := len(r.strBuf)
	need := start + int(n)
	if cap(r.strBuf) < need {
		grown := 2 * cap(r.strBuf)
		if grown < need {
			grown = need
		}
		if grown < 256 {
			grown = 256
		}
		nb := make([]byte, start, grown)
		copy(nb, r.strBuf)
		r.strBuf = nb
	}
	r.strBuf = r.strBuf[:need]
	if _, err := io.ReadFull(r.r, r.strBuf[start:]); err != nil {
		r.err = err
		return
	}
	r.pend = append(r.pend, pendingStr{dst, start, need})
}

// flushStrs freezes the arena into one string and resolves every pending
// destination as a slice of it.
func (r *reader) flushStrs() {
	if len(r.pend) > 0 {
		s := string(r.strBuf)
		for _, p := range r.pend {
			*p.dst = s[p.start:p.end]
		}
		r.pend = r.pend[:0]
	}
	r.strBuf = r.strBuf[:0]
}

// readHeader decodes the trace header (the mirror of writeHeader): meta,
// apps, files, and samples. left is the number of bytes the log holds
// after its magic; it bounds what a count claim may preallocate.
func readHeader(r *reader, left int64) (*Trace, error) {
	// A count preallocates its slice, so string destinations stay stable
	// until one arena flush at the end, only when the bytes left can hold
	// that many items at their smallest encoding and the count is at most
	// preallocMax; larger (corrupt or extreme) claims fall back to append
	// with a per-item flush, so a short stream cannot force a big
	// allocation. The smallest app is its length byte; a file is six
	// varints; a sample its name length and value count; a value one byte.
	const preallocMax = 1 << 16
	fits := func(n uint64, minBytes int64) bool {
		return r.err == nil && n > 0 && n <= preallocMax && n <= uint64(left/minBytes)
	}
	r.left = left
	t := &Trace{}
	m := &t.Meta
	r.strTo(&m.Workload)
	r.strTo(&m.JobID)
	m.Nodes = int(r.varint())
	m.CoresPerNode = int(r.varint())
	m.GPUsPerNode = int(r.varint())
	m.MemPerNodeGB = int(r.varint())
	m.Ranks = int(r.varint())
	r.strTo(&m.NodeLocalDir)
	r.strTo(&m.SharedBBDir)
	r.strTo(&m.PFSDir)
	m.JobTimeLimit = time.Duration(r.varint())
	m.TraceOverhead = time.Duration(r.varint())

	nApps := r.uvarint()
	if r.err == nil && nApps > 1<<20 {
		return nil, fmt.Errorf("%w: app count %d", ErrBadFormat, nApps)
	}
	if fits(nApps, 1) {
		t.Apps = make([]string, nApps)
		for i := uint64(0); i < nApps && r.err == nil; i++ {
			r.strTo(&t.Apps[i])
		}
	} else {
		for i := uint64(0); i < nApps && r.err == nil; i++ {
			var app string
			r.strTo(&app)
			r.flushStrs()
			t.Apps = append(t.Apps, app)
		}
	}
	nFiles := r.uvarint()
	if r.err == nil && nFiles > 1<<28 {
		return nil, fmt.Errorf("%w: file count %d", ErrBadFormat, nFiles)
	}
	readFile := func(f *FileInfo) {
		r.strTo(&f.Path)
		f.Size = r.varint()
		r.strTo(&f.Target)
		r.strTo(&f.Format)
		f.NDims = int(r.varint())
		r.strTo(&f.DataType)
	}
	if fits(nFiles, 6) {
		t.Files = make([]FileInfo, nFiles)
		for i := uint64(0); i < nFiles && r.err == nil; i++ {
			readFile(&t.Files[i])
		}
	} else {
		for i := uint64(0); i < nFiles && r.err == nil; i++ {
			var f FileInfo
			readFile(&f)
			r.flushStrs()
			t.Files = append(t.Files, f)
		}
	}
	nSamples := r.uvarint()
	if r.err == nil && nSamples > 1<<20 {
		return nil, fmt.Errorf("%w: sample count %d", ErrBadFormat, nSamples)
	}
	prealloc := fits(nSamples, 2)
	if prealloc {
		t.Samples = make([]DatasetSample, 0, nSamples)
	}
	for i := uint64(0); i < nSamples && r.err == nil; i++ {
		var s DatasetSample
		if prealloc {
			t.Samples = t.Samples[:i+1]
			r.strTo(&t.Samples[i].Name)
		} else {
			r.strTo(&s.Name)
			r.flushStrs()
		}
		nv := r.uvarint()
		if r.err == nil && nv > 1<<24 {
			return nil, fmt.Errorf("%w: sample size %d", ErrBadFormat, nv)
		}
		if fits(nv, 1) {
			s.Values = make([]float64, 0, nv)
		}
		for j := uint64(0); j < nv && r.err == nil; j++ {
			s.Values = append(s.Values, math.Float64frombits(r.uvarint()))
		}
		if prealloc {
			t.Samples[i].Values = s.Values
		} else {
			t.Samples = append(t.Samples, s)
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	r.flushStrs()
	return t, nil
}
