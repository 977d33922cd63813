package iface

import (
	"fmt"
	"time"

	"vani/internal/trace"
)

// A STDIO stream is a client-buffered File (fopen/fread/fwrite semantics).
// Application-level accesses of any size are recorded at LevelMiddleware;
// the buffer turns them into StdioBufSize-granularity POSIX transfers, which
// is why Montage's <4KB application accesses appear as 64KB transfers at
// the storage system (Figure 5a) and why the paper's Middleware entity
// (Table VII) reports the post-buffering granularity.

// StdioOpen sets o up to open a buffered stream into f. mode is 'r' (read)
// or 'w' (write, creating/truncating the file).
func (c *Client) StdioOpen(o *Op, f *File, path string, mode byte) {
	o.begin(c, f, kStdioOpen)
	o.path, o.mode, o.create = path, mode, mode == 'w'
}

func (o *Op) stdioOpen() (time.Duration, bool) {
	c, f := o.c, o.f
	switch o.mw.stage {
	case 0:
		if o.mode != 'r' && o.mode != 'w' {
			return o.fail(fmt.Errorf("iface: stdio mode %q not supported", o.mode))
		}
		if c.opt.StdioBufSize <= 0 {
			return o.fail(fmt.Errorf("iface: stdio buffer size %d", c.opt.StdioBufSize))
		}
		o.mw.start, o.mw.stage = o.now(), 1
		fallthrough
	case 1:
		if t, more := o.posixOpen(Stdio); more || o.err != nil {
			return t, more
		}
		f.mode = o.mode
		o.mw.stage = 2
		if d := c.emit(trace.LevelMiddleware, trace.LibStdio, trace.OpOpen, f.id, 0, 0, o.mw.start); d > 0 {
			return o.now() + d, true
		}
	}
	return 0, false
}

// flush sets up the POSIX write of the buffered bytes, and reports whether
// there are any.
func (o *Op) flush() bool {
	f := o.f
	if f.buffered == 0 {
		return false
	}
	n := f.buffered
	f.buffered = 0
	o.posixAt(f.off, n, true, true)
	return true
}

// stdioWrite appends o.size bytes at the cursor through the buffer. A full
// buffer flushes as one POSIX write.
func (o *Op) stdioWrite() (time.Duration, bool) {
	c, f := o.c, o.f
	bufSize := c.opt.StdioBufSize
	for {
		switch o.mw.stage {
		case 0:
			if f.mode != 'w' {
				return o.fail(fmt.Errorf("iface: write to read-mode stream %s", f.path))
			}
			o.mw.start, o.mw.stage, o.rem = o.now(), 1, o.size
			if c.opt.StdioPerOpCPU > 0 {
				return o.now() + c.opt.StdioPerOpCPU, true
			}
		case 1:
			if o.rem <= 0 {
				o.mw.stage = 3
				if d := c.emit(trace.LevelMiddleware, trace.LibStdio, trace.OpWrite, f.id, f.pos, o.size, o.mw.start); d > 0 {
					return o.now() + d, true
				}
				continue
			}
			n := min(o.rem, bufSize-f.buffered)
			f.buffered += n
			o.rem -= n
			if f.buffered == bufSize {
				o.flush()
				o.mw.stage = 2
			}
		case 2:
			if t, more := o.posixData(); more || o.err != nil {
				return t, more
			}
			o.mw.stage = 1
		default:
			f.pos += o.size
			return 0, false
		}
	}
}

// stdioRead consumes o.size bytes at the cursor. Misses fill the buffer
// with one POSIX read of up to the buffer size.
func (o *Op) stdioRead() (time.Duration, bool) {
	c, f := o.c, o.f
	for {
		switch o.mw.stage {
		case 0:
			if f.mode != 'r' {
				return o.fail(fmt.Errorf("iface: read from write-mode stream %s", f.path))
			}
			fileSize, ok := f.h.Size()
			if !ok {
				return o.fail(fmt.Errorf("iface: stdio read: %s vanished", f.path))
			}
			if f.pos+o.size > fileSize {
				return o.fail(fmt.Errorf("iface: stdio read past EOF on %s: %d+%d > %d",
					f.path, f.pos, o.size, fileSize))
			}
			o.mw.start, o.mw.stage, o.rem, o.fileSize = o.now(), 1, o.size, fileSize
			if c.opt.StdioPerOpCPU > 0 {
				return o.now() + c.opt.StdioPerOpCPU, true
			}
		case 1:
			if o.rem <= 0 {
				o.mw.stage = 3
				if d := c.emit(trace.LevelMiddleware, trace.LibStdio, trace.OpRead, f.id, f.pos-o.size, o.size, o.mw.start); d > 0 {
					return o.now() + d, true
				}
				continue
			}
			if f.pos >= f.bufStart && f.pos < f.bufEnd {
				n := min(f.bufEnd-f.pos, o.rem)
				f.pos += n
				o.rem -= n
				continue
			}
			// Miss: fill the buffer starting at the cursor.
			o.fill = c.opt.StdioBufSize
			if f.pos+o.fill > o.fileSize {
				o.fill = o.fileSize - f.pos
			}
			o.posixAt(f.pos, o.fill, false, false)
			o.mw.stage = 2
		case 2:
			if t, more := o.posixData(); more || o.err != nil {
				return t, more
			}
			f.bufStart, f.bufEnd = f.pos, f.pos+o.fill
			o.mw.stage = 1
		default:
			return 0, false
		}
	}
}

// stdioMeta seeks (to o.off) or closes the stream. A write stream's buffer
// flushes first; a seek keeps the read buffer only if the target is inside
// it.
func (o *Op) stdioMeta() (time.Duration, bool) {
	f := o.f
	op, off := trace.OpClose, int64(0)
	if o.kind == kSeek {
		op, off = trace.OpSeek, o.off
	}
	for {
		switch o.mw.stage {
		case 0:
			o.mw.start, o.mw.stage = o.now(), 2
			if f.mode == 'w' && o.flush() {
				o.mw.stage = 1
			}
		case 1:
			if t, more := o.posixData(); more || o.err != nil {
				return t, more
			}
			o.mw.stage = 2
		case 2:
			o.px = level{}
			o.mw.stage = 3
		case 3:
			if t, more := o.posixMeta(); more || o.err != nil {
				return t, more
			}
			if op == trace.OpSeek {
				f.pos = off
				if off < f.bufStart || off >= f.bufEnd {
					f.bufStart, f.bufEnd = 0, 0 // invalidate read buffer
				}
			}
			o.mw.stage = 4
			if d := o.c.emit(trace.LevelMiddleware, trace.LibStdio, op, f.id, off, 0, o.mw.start); d > 0 {
				return o.now() + d, true
			}
		default:
			return 0, false
		}
	}
}
