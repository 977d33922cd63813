package iface

import (
	"fmt"

	"vani/internal/sim"
	"vani/internal/trace"
)

// StdioFile is a client-buffered stream (fopen/fread/fwrite semantics).
// Application-level accesses of any size are recorded at LevelMiddleware;
// the buffer turns them into StdioBufSize-granularity POSIX transfers, which
// is why Montage's <4KB application accesses appear as 64KB transfers at
// the storage system (Figure 5a) and why the paper's Middleware entity
// (Table VII) reports the post-buffering granularity.
type StdioFile struct {
	c    *Client
	f    *PosixFile
	mode byte // 'r' or 'w'

	// Write buffering.
	buffered int64

	// Read buffering: [bufStart, bufEnd) of the file is in the buffer.
	bufStart, bufEnd int64

	pos int64 // application-visible cursor
}

// StdioOpen opens a buffered stream. mode is 'r' (read) or 'w' (write,
// creating/truncating the file).
func (c *Client) StdioOpen(p *sim.Proc, path string, mode byte) (*StdioFile, error) {
	if mode != 'r' && mode != 'w' {
		return nil, fmt.Errorf("iface: stdio mode %q not supported", mode)
	}
	if c.opt.StdioBufSize <= 0 {
		return nil, fmt.Errorf("iface: stdio buffer size %d", c.opt.StdioBufSize)
	}
	start := p.Now()
	f, err := c.PosixOpen(p, path, mode == 'w')
	if err != nil {
		return nil, err
	}
	c.emit(p, trace.LevelMiddleware, trace.LibStdio, trace.OpOpen, f.id, 0, 0, start)
	return &StdioFile{c: c, f: f, mode: mode}, nil
}

// Path returns the stream's file path.
func (s *StdioFile) Path() string { return s.f.path }

// Pos returns the application-visible cursor.
func (s *StdioFile) Pos() int64 { return s.pos }

// Write appends size bytes at the cursor through the buffer. A full buffer
// flushes as one POSIX write.
func (s *StdioFile) Write(p *sim.Proc, size int64) error {
	if s.mode != 'w' {
		return fmt.Errorf("iface: write to read-mode stream %s", s.f.path)
	}
	start := p.Now()
	if s.c.opt.StdioPerOpCPU > 0 {
		p.Sleep(s.c.opt.StdioPerOpCPU)
	}
	remaining := size
	for remaining > 0 {
		room := s.c.opt.StdioBufSize - s.buffered
		n := remaining
		if n > room {
			n = room
		}
		s.buffered += n
		remaining -= n
		if s.buffered == s.c.opt.StdioBufSize {
			if err := s.flush(p); err != nil {
				return err
			}
		}
	}
	s.c.emit(p, trace.LevelMiddleware, trace.LibStdio, trace.OpWrite, s.f.id, s.pos, size, start)
	s.pos += size
	return nil
}

// flush writes the buffered bytes as one POSIX write.
func (s *StdioFile) flush(p *sim.Proc) error {
	if s.buffered == 0 {
		return nil
	}
	n := s.buffered
	s.buffered = 0
	return s.f.Write(p, n)
}

// Read consumes size bytes at the cursor. Misses fill the buffer with one
// POSIX read of up to the buffer size.
func (s *StdioFile) Read(p *sim.Proc, size int64) error {
	if s.mode != 'r' {
		return fmt.Errorf("iface: read from write-mode stream %s", s.f.path)
	}
	fileSize, ok := s.f.h.Size()
	if !ok {
		return fmt.Errorf("iface: stdio read: %s vanished", s.f.path)
	}
	if s.pos+size > fileSize {
		return fmt.Errorf("iface: stdio read past EOF on %s: %d+%d > %d",
			s.f.path, s.pos, size, fileSize)
	}
	start := p.Now()
	if s.c.opt.StdioPerOpCPU > 0 {
		p.Sleep(s.c.opt.StdioPerOpCPU)
	}
	remaining := size
	for remaining > 0 {
		if s.pos >= s.bufStart && s.pos < s.bufEnd {
			n := s.bufEnd - s.pos
			if n > remaining {
				n = remaining
			}
			s.pos += n
			remaining -= n
			continue
		}
		// Miss: fill the buffer starting at the cursor.
		fill := s.c.opt.StdioBufSize
		if s.pos+fill > fileSize {
			fill = fileSize - s.pos
		}
		if err := s.f.ReadAt(p, s.pos, fill, false); err != nil {
			return err
		}
		s.bufStart, s.bufEnd = s.pos, s.pos+fill
	}
	s.c.emit(p, trace.LevelMiddleware, trace.LibStdio, trace.OpRead, s.f.id, start2Off(s.pos, size), size, start)
	return nil
}

// start2Off recovers the offset a read started at from the final cursor.
func start2Off(pos, size int64) int64 { return pos - size }

// Seek repositions the cursor. Write buffers flush first; read buffers stay
// valid only if the target is inside them.
func (s *StdioFile) Seek(p *sim.Proc, off int64) error {
	start := p.Now()
	if s.mode == 'w' {
		if err := s.flush(p); err != nil {
			return err
		}
	}
	if err := s.f.Seek(p, off); err != nil {
		return err
	}
	s.pos = off
	if off < s.bufStart || off >= s.bufEnd {
		s.bufStart, s.bufEnd = 0, 0 // invalidate read buffer
	}
	s.c.emit(p, trace.LevelMiddleware, trace.LibStdio, trace.OpSeek, s.f.id, off, 0, start)
	return nil
}

// Close flushes and closes the stream.
func (s *StdioFile) Close(p *sim.Proc) error {
	start := p.Now()
	if s.mode == 'w' {
		if err := s.flush(p); err != nil {
			return err
		}
	}
	if err := s.f.Close(p); err != nil {
		return err
	}
	s.c.emit(p, trace.LevelMiddleware, trace.LibStdio, trace.OpClose, s.f.id, 0, 0, start)
	return nil
}
