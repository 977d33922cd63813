// Package repo is vanid's persistent trace repository: a sharded,
// content-addressed store of VANITRC2/v1 trace files with a crash-safe
// manifest, a background compactor that merges small per-upload files
// into consolidated v2.2 packs, retention GC, and a fleet-query reducer
// that folds per-trace characterizations into cross-trace aggregates.
//
// Layout under the repository root:
//
//	manifest.log                      append-only JSON-lines op log
//	manifest.ckpt                     atomic-rename checkpoint of the log
//	shards/<workload>/<bucket>/<sha>.trc   loose per-upload trace files
//	packs/<name>.vpk                  compacted multi-trace pack files
//	tmp/                              staging for in-flight writes
//
// Every mutation reaches the filesystem before the manifest records it
// (write → fsync → rename → log), so a crash at any point leaves either
// an orphan file (deleted or re-adopted on boot) or a fully recorded
// state — never a recorded entry without bytes. Boot replays checkpoint
// + log, then rescans the tree: loose files missing from the manifest
// are adopted (content hash re-verified), entries whose backing vanished
// are dropped, and unreferenced packs are removed.
package repo

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"vani/internal/trace"
)

// ErrNotTrace reports that uploaded bytes are not a recognizable trace
// file; servers map it to 400.
var ErrNotTrace = errors.New("repo: not a trace file")

// ErrReadOnly reports a mutation attempted on a read-only repository.
var ErrReadOnly = errors.New("repo: read-only")

// ErrNotFound reports an unknown trace hash.
var ErrNotFound = errors.New("repo: trace not found")

// Options configures Open. The zero value is a writable repository with
// no background compaction and no retention limit.
type Options struct {
	// CompactEvery starts a background loop compacting + GCing at this
	// period. Zero disables the loop; CompactNow/GC still work.
	CompactEvery time.Duration
	// CompactMinFiles is the minimum number of loose files a shard needs
	// before the compactor packs it (default 2).
	CompactMinFiles int
	// RetainAge drops traces older than this (by upload time) during GC.
	// Zero keeps everything.
	RetainAge time.Duration
	// RetainCount caps the number of stored traces: GC drops the oldest
	// (by upload time, SHA tie-break) beyond it. Zero means no cap.
	RetainCount int
	// RetainBytes caps the stored traces' total backing size the same
	// way. Zero means no cap.
	RetainBytes int64
	// ReadOnly opens the repository for queries only: no manifest writes,
	// no adoption of orphans, no compactor. Suitable for `vani fleet`
	// pointed at a live daemon's data dir.
	ReadOnly bool
	// Now overrides the clock (tests). Nil means time.Now.
	Now func() time.Time
}

// Entry is one stored trace. Location fields are guarded by the owning
// Repo's mutex; Handle snapshots them under that lock.
type Entry struct {
	SHA      string
	Workload string
	Bucket   string
	Size     int64  // bytes of the current backing (loose file or pack member)
	Added    int64  // upload unix time (UTC)
	Pack     string // relative pack path ("packs/x.vpk"), "" while loose
	Off      int64  // offset of the member inside Pack
}

// fileRef reference-counts one backing file so compaction and GC can
// doom a file while scans still hold it: removal happens when the last
// reader releases, never under one.
type fileRef struct {
	refs   int
	doomed bool
}

// Repo is a trace repository rooted at one directory. All methods are
// safe for concurrent use.
type Repo struct {
	dir string
	opt Options

	mu          sync.Mutex
	entries     map[string]*Entry
	packBytes   map[string]int64 // live pack rel path -> file size
	packLive    map[string]int   // live pack rel path -> member count
	files       map[string]*fileRef
	log         *os.File
	compactions int64
	closed      bool
	setAside    map[string]bool // loose members compaction cannot rewrite, by SHA

	stop chan struct{}
	done chan struct{}

	// hookAfterPackRename, when set, runs after a pack file lands in
	// packs/ but before the manifest records it — the crash window the
	// recovery tests exercise. A non-nil error aborts the compaction.
	hookAfterPackRename func() error
}

// Stats is the repository gauge set surfaced on /metrics.
type Stats struct {
	Shards      int64 // distinct (workload, bucket) shards holding traces
	Files       int64 // stored traces
	Compactions int64 // packs built since this Repo opened
	Bytes       int64 // bytes on disk across loose files and packs
}

func (r *Repo) now() time.Time {
	if r.opt.Now != nil {
		return r.opt.Now()
	}
	return time.Now()
}

// Open opens (creating if needed) the repository rooted at dir, replays
// the manifest, rescans the tree, and — unless read-only — rewrites a
// fresh checkpoint and starts the background compactor when configured.
func Open(dir string, opt Options) (*Repo, error) {
	if opt.CompactMinFiles <= 0 {
		opt.CompactMinFiles = 2
	}
	r := &Repo{
		dir:       dir,
		opt:       opt,
		entries:   make(map[string]*Entry),
		packBytes: make(map[string]int64),
		packLive:  make(map[string]int),
		files:     make(map[string]*fileRef),
		setAside:  make(map[string]bool),
	}
	if opt.ReadOnly {
		if _, err := os.Stat(dir); err != nil {
			return nil, fmt.Errorf("repo: open read-only: %w", err)
		}
	} else {
		for _, d := range []string{dir, r.shardsDir(), r.packsDir(), r.tmpDir()} {
			if err := os.MkdirAll(d, 0o755); err != nil {
				return nil, fmt.Errorf("repo: %w", err)
			}
		}
	}
	if err := r.loadManifest(); err != nil {
		return nil, err
	}
	if err := r.rescan(); err != nil {
		return nil, err
	}
	if !opt.ReadOnly {
		// Collapse boot-time repairs (adoptions, drops) into one atomic
		// checkpoint, then start a fresh log.
		if err := r.writeCheckpoint(); err != nil {
			return nil, err
		}
		f, err := os.OpenFile(r.logPath(), os.O_CREATE|os.O_WRONLY|os.O_TRUNC|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("repo: %w", err)
		}
		r.log = f
		if opt.CompactEvery > 0 {
			r.stop = make(chan struct{})
			r.done = make(chan struct{})
			go r.compactLoop()
		}
	}
	return r, nil
}

// Close stops the compactor and, for writable repositories, persists a
// final checkpoint so the next Open replays nothing.
func (r *Repo) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	stop, done := r.stop, r.done
	r.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.log == nil {
		return nil
	}
	err := r.writeCheckpointLocked()
	if terr := r.log.Truncate(0); err == nil {
		err = terr
	}
	if cerr := r.log.Close(); err == nil {
		err = cerr
	}
	r.log = nil
	return err
}

func (r *Repo) logPath() string   { return filepath.Join(r.dir, "manifest.log") }
func (r *Repo) ckptPath() string  { return filepath.Join(r.dir, "manifest.ckpt") }
func (r *Repo) shardsDir() string { return filepath.Join(r.dir, "shards") }
func (r *Repo) packsDir() string  { return filepath.Join(r.dir, "packs") }
func (r *Repo) tmpDir() string    { return filepath.Join(r.dir, "tmp") }

func (r *Repo) loosePath(e *Entry) string {
	return filepath.Join(r.shardsDir(), e.Workload, e.Bucket, e.SHA+".trc")
}

func (r *Repo) packPath(rel string) string { return filepath.Join(r.dir, rel) }

// sanitizeLabel restricts a workload label to path-safe characters so it
// can name a shard directory. Empty or fully-hostile labels become
// "unknown".
func sanitizeLabel(s string) string {
	var b strings.Builder
	for _, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
			b.WriteRune(c)
		}
	}
	out := strings.Trim(b.String(), ".")
	if out == "" {
		return "unknown"
	}
	return out
}

// readWorkloadLabel extracts Meta.Workload from a stored trace file; a file
// the block reader cannot open is not a trace.
func readWorkloadLabel(path string) (string, error) {
	br, err := trace.OpenBlockReader(path)
	if err != nil {
		return "", err
	}
	defer br.Close()
	return br.Header().Meta.Workload, nil
}

// Add stores the trace read from src, content-addressed by SHA-256.
// Returns the hash and whether the trace was already present. Bytes that
// do not decode as a trace header yield ErrNotTrace; bytes already stored
// are neither synced nor parsed again.
func (r *Repo) Add(src io.Reader) (sha string, existed bool, err error) {
	if r.opt.ReadOnly {
		return "", false, ErrReadOnly
	}
	tmpf, err := os.CreateTemp(r.tmpDir(), "add-*.part")
	if err != nil {
		return "", false, fmt.Errorf("repo: %w", err)
	}
	tmp := tmpf.Name()
	defer func() {
		if err != nil {
			tmpf.Close()
			os.Remove(tmp)
		}
	}()
	h := sha256.New()
	size, err := io.Copy(io.MultiWriter(tmpf, h), src)
	if err != nil {
		return "", false, fmt.Errorf("repo: spooling upload: %w", err)
	}
	sha = hex.EncodeToString(h.Sum(nil))
	// A stored duplicate is already durable and already validated: skip
	// the fsync and the header parse.
	r.mu.Lock()
	_, dup := r.entries[sha]
	r.mu.Unlock()
	if dup {
		tmpf.Close()
		os.Remove(tmp)
		return sha, true, nil
	}
	if err = tmpf.Sync(); err != nil {
		return "", false, fmt.Errorf("repo: %w", err)
	}
	if err = tmpf.Close(); err != nil {
		return "", false, fmt.Errorf("repo: %w", err)
	}

	workload, werr := readWorkloadLabel(tmp)
	if werr != nil {
		err = fmt.Errorf("%w: %w", ErrNotTrace, werr)
		return "", false, err
	}
	workload = sanitizeLabel(workload)

	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.entries[sha]; ok {
		os.Remove(tmp)
		return sha, true, nil
	}
	now := r.now().UTC()
	e := &Entry{
		SHA:      sha,
		Workload: workload,
		Bucket:   now.Format("2006-01-02"),
		Size:     size,
		Added:    now.Unix(),
	}
	dest := r.loosePath(e)
	if err = os.MkdirAll(filepath.Dir(dest), 0o755); err != nil {
		return "", false, fmt.Errorf("repo: %w", err)
	}
	if err = os.Rename(tmp, dest); err != nil {
		return "", false, fmt.Errorf("repo: %w", err)
	}
	if err = r.appendRecLocked(manifestRec{
		Op: opAdd, SHA: sha, Workload: e.Workload, Bucket: e.Bucket,
		Size: e.Size, Added: e.Added,
	}); err != nil {
		return "", false, err
	}
	r.entries[sha] = e
	return sha, false, nil
}

// Handle pins one stored trace's bytes: the backing file cannot be
// removed (by compaction relocating it or GC dropping it) until Close.
// Location fields are an immutable snapshot taken at Acquire time.
type Handle struct {
	r    *Repo
	sha  string
	path string // absolute backing file
	off  int64  // byte offset of the trace within the file
	size int64  // byte length of the trace
	once sync.Once
}

// SHA returns the trace content hash.
func (h *Handle) SHA() string { return h.sha }

// Path returns the absolute backing file (a loose .trc or a .vpk pack).
func (h *Handle) Path() string { return h.path }

// Off returns the trace's byte offset within Path (0 for loose files).
func (h *Handle) Off() int64 { return h.off }

// Size returns the trace's encoded byte length.
func (h *Handle) Size() int64 { return h.size }

// Close releases the pin. Safe to call more than once.
func (h *Handle) Close() {
	h.once.Do(func() { h.r.release(h.path) })
}

// Acquire pins the trace with the given hash and returns a handle to its
// bytes.
func (r *Repo) Acquire(sha string) (*Handle, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[sha]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, sha)
	}
	h := &Handle{r: r, sha: sha, size: e.Size}
	if e.Pack != "" {
		h.path, h.off = r.packPath(e.Pack), e.Off
	} else {
		h.path = r.loosePath(e)
	}
	fr := r.files[h.path]
	if fr == nil {
		fr = &fileRef{}
		r.files[h.path] = fr
	}
	fr.refs++
	return h, nil
}

func (r *Repo) release(path string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	fr := r.files[path]
	if fr == nil {
		return
	}
	fr.refs--
	if fr.refs > 0 {
		return
	}
	delete(r.files, path)
	if fr.doomed {
		os.Remove(path)
	}
}

// doomLocked removes a backing file now, or defers removal to the last
// release if readers hold it. Callers hold r.mu.
func (r *Repo) doomLocked(path string) {
	if fr := r.files[path]; fr != nil && fr.refs > 0 {
		fr.doomed = true
		return
	}
	delete(r.files, path)
	os.Remove(path)
}

// List returns the hashes of stored traces, sha-sorted; a non-empty
// workload restricts to that shard label (sanitized form).
func (r *Repo) List(workload string) []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.entries))
	for sha, e := range r.entries {
		if workload != "" && e.Workload != workload {
			continue
		}
		out = append(out, sha)
	}
	sort.Strings(out)
	return out
}

// Workloads returns the distinct workload labels present, sorted.
func (r *Repo) Workloads() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	seen := make(map[string]bool)
	for _, e := range r.entries {
		seen[e.Workload] = true
	}
	out := make([]string, 0, len(seen))
	for w := range seen {
		out = append(out, w)
	}
	sort.Strings(out)
	return out
}

// Stats returns current repository gauges.
func (r *Repo) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	var s Stats
	shards := make(map[string]bool)
	for _, e := range r.entries {
		shards[e.Workload+"/"+e.Bucket] = true
		s.Files++
		if e.Pack == "" {
			s.Bytes += e.Size
		}
	}
	for _, sz := range r.packBytes {
		s.Bytes += sz
	}
	s.Shards = int64(len(shards))
	s.Compactions = r.compactions
	return s
}
