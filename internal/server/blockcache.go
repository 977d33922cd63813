package server

// The shared decoded-block cache: traces vanid serves repeatedly keep
// their bytes mmap-resident and their decoded blocks memoized, so a
// hot trace decodes each block exactly once across all requests — a report
// re-query with a different filter spec performs zero block decodes. The
// cache is trace-granular LRU (an entry is one spooled trace, keyed by its
// content SHA; block handles within it are keyed by block index and
// published first-wins), bounded by a byte budget that charges each entry
// its worst case: the raw bytes, one retained payload copy per block, and
// the fully memoized columns. Entries pinned by in-flight scans (refs > 0)
// never evict mid-read.

import (
	"bytes"
	"container/list"
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"vani/internal/trace"
)

// blockCache is the trace-granular LRU of mmap-backed block sources.
type blockCache struct {
	metrics  *Metrics
	capBytes int64

	mu    sync.Mutex
	used  int64
	order *list.List               // front = most recently used
	bySHA map[string]*list.Element // value: *traceEntry
}

func newBlockCache(capBytes int64, m *Metrics) *blockCache {
	return &blockCache{
		metrics:  m,
		capBytes: capBytes,
		order:    list.New(),
		bySHA:    make(map[string]*list.Element),
	}
}

// traceEntry is one cached trace: its raw bytes (mmap-backed where the
// platform allows), a block reader over them, and the first-wins published
// decoded-block handles. For repository pack members the entry maps the
// whole pack and scans a [off, off+size) slice of it — mappings must start
// at the file head (page alignment), slices can start anywhere.
type traceEntry struct {
	sha    string
	raw    []byte // the full mapping (or heap copy)
	data   []byte // the trace's bytes: raw[off : off+size]
	mapped bool
	br     *trace.BlockReader
	blocks []atomic.Pointer[trace.BlockData]
	bytes  int64 // worst-case charge; see newTraceEntry
	refs   int   // in-flight scans; guarded by the cache mutex
}

// newTraceEntry maps the stored trace and parses its footer. off/size
// select a pack member's section; size 0 means the whole file. The
// entry's byte charge is the worst case it can grow to: the trace bytes
// twice (raw plus one retained heap payload copy per block — payloads
// together are at most the section size) and every block's columns
// memoized.
func newTraceEntry(sha, path string, off, size int64) (*traceEntry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, err
	}
	raw, mapped, err := mapFile(f, info.Size())
	if err != nil || raw == nil {
		// Mapping unavailable (or an empty file): fall back to the heap.
		if raw, err = os.ReadFile(path); err != nil {
			return nil, err
		}
		mapped = false
	}
	if size == 0 {
		size = int64(len(raw)) - off
	}
	if off < 0 || size < 0 || off+size > int64(len(raw)) {
		if mapped {
			unmapFile(raw) //nolint:errcheck
		}
		return nil, fmt.Errorf("trace section [%d, %d) outside file of %d bytes", off, off+size, len(raw))
	}
	e := &traceEntry{sha: sha, raw: raw, data: raw[off : off+size], mapped: mapped}
	e.br, err = trace.NewBlockReader(bytes.NewReader(e.data), size)
	if err != nil {
		e.drop()
		return nil, err
	}
	e.blocks = make([]atomic.Pointer[trace.BlockData], e.br.NumBlocks())
	e.bytes = 2*size + int64(e.br.NumEvents())*trace.MemoRowBytes
	return e, nil
}

// drop releases the entry's raw bytes. Callers must guarantee no reader
// still touches them (refs == 0, or the entry never published).
func (e *traceEntry) drop() {
	if e.mapped {
		unmapFile(e.raw) //nolint:errcheck // nothing to do about munmap failure
	}
	e.raw, e.data, e.br = nil, nil, nil
}

// acquire returns a pinned block source for the trace, building and
// inserting an entry on miss. off/size locate the trace within the file
// (pack members); entries stay keyed by content sha, so the same trace
// hits the cache whether it is loose or packed. Release with release when
// the scan is done.
func (bc *blockCache) acquire(sha, path string, off, size int64) (*cachedSource, error) {
	bc.mu.Lock()
	if el, ok := bc.bySHA[sha]; ok {
		bc.order.MoveToFront(el)
		e := el.Value.(*traceEntry)
		e.refs++
		bc.mu.Unlock()
		return &cachedSource{e: e, m: bc.metrics}, nil
	}
	bc.mu.Unlock()

	// Build outside the lock: mapping and footer parsing can be slow.
	e, err := newTraceEntry(sha, path, off, size)
	if err != nil {
		return nil, err
	}
	bc.mu.Lock()
	defer bc.mu.Unlock()
	if el, ok := bc.bySHA[sha]; ok {
		e.drop() // lost the build race; use the winner
		bc.order.MoveToFront(el)
		winner := el.Value.(*traceEntry)
		winner.refs++
		return &cachedSource{e: winner, m: bc.metrics}, nil
	}
	bc.evictFor(e.bytes)
	e.refs = 1
	bc.bySHA[sha] = bc.order.PushFront(e)
	bc.used += e.bytes
	bc.metrics.BlockCacheBytes.Store(bc.used)
	return &cachedSource{e: e, m: bc.metrics}, nil
}

// release unpins one scan's hold on the source's entry.
func (bc *blockCache) release(cs *cachedSource) {
	bc.mu.Lock()
	cs.e.refs--
	bc.mu.Unlock()
}

// evictFor drops least-recently-used unpinned entries until need bytes fit
// in the budget (or nothing evictable remains — an oversized active trace
// is served anyway rather than refused). Caller holds the mutex.
func (bc *blockCache) evictFor(need int64) {
	for el := bc.order.Back(); el != nil && bc.used+need > bc.capBytes; {
		prev := el.Prev()
		e := el.Value.(*traceEntry)
		if e.refs == 0 {
			bc.order.Remove(el)
			delete(bc.bySHA, e.sha)
			bc.used -= e.bytes
			e.drop()
		}
		el = prev
	}
	bc.metrics.BlockCacheBytes.Store(bc.used)
}

// Len reports the number of cached traces (tests).
func (bc *blockCache) Len() int {
	bc.mu.Lock()
	defer bc.mu.Unlock()
	return bc.order.Len()
}

// cachedSource adapts a pinned cache entry to trace.BlockSource. ReadBlock
// publishes decoded-block handles first-wins and enables each block's
// column memo, so every block of a hot trace is read and decoded at most
// once no matter how many requests scan it.
type cachedSource struct {
	e *traceEntry
	m *Metrics
}

func (cs *cachedSource) Header() *trace.Trace          { return cs.e.br.Header() }
func (cs *cachedSource) NumBlocks() int                { return cs.e.br.NumBlocks() }
func (cs *cachedSource) BlockEvents() int              { return cs.e.br.BlockEvents() }
func (cs *cachedSource) NumEvents() uint64             { return cs.e.br.NumEvents() }
func (cs *cachedSource) BlockAt(k int) trace.BlockInfo { return cs.e.br.BlockAt(k) }

func (cs *cachedSource) ReadBlock(k int) (*trace.BlockData, error) {
	if bd := cs.e.blocks[k].Load(); bd != nil {
		cs.m.BlockCacheHits.Add(1)
		return bd, nil
	}
	cs.m.BlockCacheMisses.Add(1)
	bd, err := cs.e.br.ReadBlock(k)
	if err != nil {
		return nil, err
	}
	bd.EnableMemo()
	if !cs.e.blocks[k].CompareAndSwap(nil, bd) {
		bd = cs.e.blocks[k].Load() // concurrent reader won the publish
	}
	return bd, nil
}
