package trace

// The file-owning constructor. NewBlockReader borrows its reader and never
// owns a descriptor, which pushes lifetime management onto every caller —
// and a constructor error between os.Open and the deferred Close is exactly
// where descriptors leak in long-running processes. OpenBlockReader opens
// the file itself and guarantees it is closed on every error path; on
// success the caller holds a Close method that is safe to defer.

import "os"

// FileBlockReader is a BlockReader that owns its underlying file.
type FileBlockReader struct {
	*BlockReader
	f *os.File
}

// Close releases the underlying file. Safe to call more than once.
func (b *FileBlockReader) Close() error {
	if b.f == nil {
		return nil
	}
	err := b.f.Close()
	b.f = nil
	return err
}

// OpenBlockReader opens the trace log at path and returns a block reader
// over it. The file is closed on every error path — stat failure, a bad
// magic, or a corrupt footer — so no descriptor escapes.
func OpenBlockReader(path string) (*FileBlockReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	br, err := NewBlockReader(f, info.Size())
	if err != nil {
		f.Close()
		return nil, err
	}
	return &FileBlockReader{BlockReader: br, f: f}, nil
}
