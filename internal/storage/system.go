package storage

import (
	"fmt"
	"strings"
	"time"

	"vani/internal/sim"
)

// System is one storage stack instance attached to a simulation: a striped
// PFS shared by all nodes, plus per-node node-local targets and page
// caches.
//
// A path is resolved once per open: Resolve (or Lookup) returns a File that
// carries the file's state, its target and its stripe hash, and every call
// on the file — an Op set up on it — goes through that handle without
// looking the path up.
type System struct {
	e   *sim.Engine
	cfg Config
	rng *sim.RNG

	dataServers *sim.Pool // PFS data servers
	metaServers *sim.Pool // PFS metadata servers
	bbServers   *sim.Pool // shared burst-buffer servers (nil if absent)
	bbMeta      *sim.Resource
	nodeLocal   []*sim.Resource
	nics        []*sim.Resource // per-node PFS client/injection bandwidth
	caches      []*pageCache

	files map[fileKey]*fileState

	// Counters per target, indexed by TargetKind.
	Stats [NumTargets]TargetStats
}

// fileKey names a file in the namespace. Node-local targets have per-node
// namespaces: /dev/shm/x on node 0 and node 3 are different files. PFS and
// shared-BB namespaces are global, with node -1.
type fileKey struct {
	path string
	node int
}

// TargetStats aggregates traffic per storage target.
type TargetStats struct {
	BytesRead    int64
	BytesWritten int64
	DataOps      int64
	MetaOps      int64
	CacheHits    int64
	CacheMisses  int64
}

// fileState is one file of the namespace. It is created the first time its
// path is resolved and lives as long as the System, so a handle resolved
// before the file exists sees it once it is created.
type fileState struct {
	path   string
	target TargetKind
	hash   uint64 // FNV-1a of the path: where the file's stripes start
	size   int64
	exists bool

	// openerNodes tracks which nodes have opened the file (capped at two:
	// beyond one the distinction stops mattering). GPFS-like token
	// management disables client caching for files accessed from multiple
	// nodes, which is why CM1's shared step files see raw PFS small-write
	// latency while Montage's node-private intermediates enjoy cache
	// speed.
	openerA, openerB int32 // node+1, 0 = unset
}

func (f *fileState) noteOpener(node int) {
	n := int32(node) + 1
	switch {
	case f.openerA == 0 || f.openerA == n:
		f.openerA = n
	case f.openerB == 0 || f.openerB == n:
		f.openerB = n
	}
}

// sharedAcrossNodes reports whether more than one node opened the file.
func (f *fileState) sharedAcrossNodes() bool { return f.openerB != 0 }

// New creates a storage system for a job spanning the given number of
// nodes. rng drives service-time jitter and may be shared with the caller.
func New(e *sim.Engine, cfg Config, nodes int, rng *sim.RNG) *System {
	if nodes <= 0 {
		panic("storage: node count must be positive")
	}
	if cfg.PFSServers <= 0 || cfg.PFSMetaServers <= 0 {
		panic("storage: config must have PFS servers")
	}
	if cfg.PFSStripeSize <= 0 || cfg.PFSServerBW <= 0 || cfg.NodeLocalBW <= 0 {
		panic("storage: config has non-positive rates")
	}
	s := &System{
		e:           e,
		cfg:         cfg,
		rng:         rng,
		dataServers: sim.NewPool(e, "oss", cfg.PFSServers),
		metaServers: sim.NewPool(e, "mds", cfg.PFSMetaServers),
		nodeLocal:   make([]*sim.Resource, nodes),
		caches:      make([]*pageCache, nodes),
		files:       make(map[fileKey]*fileState),
	}
	if cfg.SharedBBServers > 0 {
		if cfg.SharedBBDir == "" || cfg.SharedBBServerBW <= 0 || cfg.SharedBBStripe <= 0 {
			panic("storage: shared BB config incomplete")
		}
		s.bbServers = sim.NewPool(e, "bb", cfg.SharedBBServers)
		s.bbMeta = sim.NewResource(e, "bb-meta")
	}
	s.nics = make([]*sim.Resource, nodes)
	for i := range s.nodeLocal {
		s.nodeLocal[i] = sim.NewResource(e, fmt.Sprintf("node%d-local", i))
		s.nics[i] = sim.NewResource(e, fmt.Sprintf("node%d-nic", i))
		s.caches[i] = newPageCache(cfg.CacheCapacity)
	}
	return s
}

// Engine returns the simulation the system is attached to.
func (s *System) Engine() *sim.Engine { return s.e }

// Config returns the configuration the system was built with.
func (s *System) Config() Config { return s.cfg }

// Nodes returns the number of nodes the system serves.
func (s *System) Nodes() int { return len(s.nodeLocal) }

// Route returns the target a path resolves to, by mount-prefix matching.
// Unmatched paths go to the PFS (home directories live there too).
func (s *System) Route(path string) TargetKind {
	switch {
	case s.cfg.NodeLocalDir != "" && strings.HasPrefix(path, s.cfg.NodeLocalDir):
		return TargetNodeLocal
	case s.cfg.TmpDir != "" && strings.HasPrefix(path, s.cfg.TmpDir):
		return TargetTmp
	case s.bbServers != nil && s.cfg.SharedBBDir != "" && strings.HasPrefix(path, s.cfg.SharedBBDir):
		return TargetSharedBB
	default:
		return TargetPFS
	}
}

// state returns the file path names as seen from node, entering it into
// the namespace (not yet existing) on first sight.
func (s *System) state(node int, path string) *fileState {
	t := s.Route(path)
	k := fileKey{path: path, node: -1}
	if t != TargetPFS && t != TargetSharedBB {
		k.node = node
	}
	f := s.files[k]
	if f == nil {
		f = &fileState{path: path, target: t, hash: hashString(path)}
		s.files[k] = f
	}
	return f
}

// File is a path resolved on one node: the handle every data and
// metadata call after the open goes through.
type File struct {
	s    *System
	st   *fileState
	node int
	pc   *cacheEntry // the file in the node's page cache, once touched
}

// Resolve returns the file path names as seen from node without operating
// on it: no time passes and the file need not exist. An Op's Open on the
// handle performs the open; calls on a file that does not exist fail.
func (s *System) Resolve(node int, path string) *File {
	f := s.Lookup(node, path)
	return &f
}

// Lookup is Resolve returning the handle as a value, for a caller that
// keeps it in state of its own.
func (s *System) Lookup(node int, path string) File {
	return File{s: s, st: s.state(node, path), node: node}
}

// Materialize creates or grows a file instantly, with no time cost and no
// trace events. It stages pre-existing datasets (input FITS images, HDF5
// sample files) that exist before the job starts, so their creation does
// not pollute the workload's characterization.
func (s *System) Materialize(node int, path string, size int64) {
	f := s.state(node, path)
	f.exists = true
	if size > f.size {
		f.size = size
	}
}

// cache returns the file's entry in its node's page cache.
func (f *File) cache() *cacheEntry {
	if f.pc == nil {
		f.pc = f.s.caches[f.node].entry(f.st)
	}
	return f.pc
}

// Size reports the file's current size, and whether it exists.
func (f *File) Size() (int64, bool) {
	if !f.st.exists {
		return 0, false
	}
	return f.st.size, true
}

// Op is one call on a file in step form, for a process that runs as a step
// program: Open, Close, Stat, Seek, Sync, Write or Read sets it up without
// running anything, and each Step runs the call up to its next wait and
// returns the wake time, or reports that the call has finished. The process
// returns each wake time from its own step and calls Step again when it is
// woken. An Op is reused from call to call; it allocates nothing.
type Op struct {
	f     *File
	stage opStage
	write bool
	off   int64
	size  int64 // a data call's size; a PFS miss's fetched bytes, once known
	n     int64 // what Stat reports
	err   error
}

type opStage uint8

const (
	stDone     opStage = iota
	stOpen             // Open's namespace change and its metadata visit
	stFlush            // Close/Sync: wait out the file's write-back drain
	stCloseRel         // Close under relaxed consistency: no drain wait
	stMeta             // one metadata visit, then done
	stStat             // Stat's metadata visit
	stStatRead         // Stat after its visit: the file as it is then
	stSeek             // the client-side seek
	stData             // a transfer's checks and its service
	stDrain            // a cache-absorbed write after its copy: book the drain
	stFill             // a PFS read after its transfer: fill the page cache
)

// Open sets the Op up as the open metadata operation on f. With create true
// the file is created (or truncated to zero); otherwise the file must exist
// on the issuing node's view of the namespace.
func (o *Op) Open(f *File, create bool) {
	*o = Op{f: f, stage: stOpen, write: create}
}

// Close sets the Op up as the close metadata operation on f. For PFS files
// with dirty write-back data, close waits for the drain to finish: GPFS
// flushes dirty client-cache data on close to keep other nodes coherent,
// which is why buffered small-file writes still pay full PFS cost by the
// time a workflow stage hands its files to the next one.
func (o *Op) Close(f *File) {
	*o = Op{f: f, stage: stFlush}
	if f.s.cfg.RelaxedConsistency {
		o.stage = stCloseRel
	}
}

// Stat sets the Op up as a stat metadata operation on f; Size reports the
// size it found.
func (o *Op) Stat(f *File) { *o = Op{f: f, stage: stStat} }

// Seek sets the Op up as the (client-side, near-free) seek call on f; it is
// traced as a metadata op by the interface layers but costs no server time.
func (o *Op) Seek(f *File) { *o = Op{f: f, stage: stSeek} }

// Sync sets the Op up as an fsync-like metadata op on f; with the page
// cache enabled it also waits for the node's dirty data on that file to
// drain to the PFS.
func (o *Op) Sync(f *File) { *o = Op{f: f, stage: stFlush} }

// Write sets the Op up to move size bytes into f at offset. The file must
// have been opened (created).
func (o *Op) Write(f *File, offset, size int64) {
	*o = Op{f: f, stage: stData, write: true, off: offset, size: size}
}

// Read sets the Op up to move size bytes out of f at offset. Reading past
// the end of the file is an error (workload bugs should surface, not
// silently read).
func (o *Op) Read(f *File, offset, size int64) {
	*o = Op{f: f, stage: stData, off: offset, size: size}
}

// Err is the finished call's error.
func (o *Op) Err() error { return o.err }

// Size is what a finished Stat reports: the file's size.
func (o *Op) Size() int64 { return o.n }

// Step runs the call up to its next wait and returns the wake time with
// more set, or, with more false, reports that the call has finished.
func (o *Op) Step() (wake time.Duration, more bool) {
	if o.stage == stDone {
		return 0, false
	}
	f := o.f
	s, st := f.s, f.st
	switch o.stage {
	case stOpen:
		create := o.write
		if !st.exists {
			if !create {
				o.err = fmt.Errorf("storage: open %s on node %d: no such file", st.path, f.node)
			}
			st.exists = st.exists || create
		} else if create {
			st.size = 0 // truncate
		}
		if o.err == nil {
			st.noteOpener(f.node)
		}
		o.stage = stDone
		return s.meta(f.node, st.target), true
	case stFlush:
		o.stage = stMeta
		if st.target == TargetPFS && s.cfg.CacheEnabled {
			if end := f.cache().drain; end > s.e.Now() {
				return end, true
			}
		}
		fallthrough
	case stCloseRel, stMeta:
		o.stage = stDone
		return s.meta(f.node, st.target), true
	case stStat:
		o.stage = stStatRead
		return s.meta(f.node, st.target), true
	case stStatRead:
		o.stage = stDone
		if !st.exists {
			o.err = fmt.Errorf("storage: stat %s on node %d: no such file", st.path, f.node)
		} else {
			o.n = st.size
		}
	case stSeek:
		o.stage = stDone
		return s.e.Now() + 200*time.Nanosecond, true
	case stData:
		o.stage = stDone
		return o.data()
	case stDrain:
		o.stage = stDone
		c := s.caches[f.node]
		drainEnd := s.stripeReserve(st.hash, o.off, o.size)
		if nicEnd := s.nicReserve(f.node, o.size); nicEnd > drainEnd {
			drainEnd = nicEnd
		}
		e := f.cache()
		c.scheduleDrain(e, drainEnd)
		c.insert(e, o.off+o.size)
	case stFill:
		o.stage = stDone
		if s.cfg.CacheEnabled {
			s.caches[f.node].insert(f.cache(), o.off+o.size)
		}
	}
	return 0, false
}

// meta books one metadata operation against the right service and returns
// when it ends.
func (s *System) meta(node int, t TargetKind) time.Duration {
	s.Stats[t].MetaOps++
	var end time.Duration
	switch t {
	case TargetPFS:
		_, end = s.metaServers.BookLeastLoaded(s.cfg.PFSMetaLatency)
	case TargetSharedBB:
		_, end = s.bbMeta.Book(s.cfg.SharedBBMetaLat)
	default:
		_, end = s.nodeLocal[node].Book(s.cfg.NodeLocalMetaLat)
	}
	return end
}

// data checks a transfer, counts it and books its service.
func (o *Op) data() (time.Duration, bool) {
	f := o.f
	s, st := f.s, f.st
	offset, size, write := o.off, o.size, o.write
	if size < 0 || offset < 0 {
		o.err = fmt.Errorf("storage: negative offset/size on %s", st.path)
		return 0, false
	}
	if !st.exists {
		o.err = fmt.Errorf("storage: %s %s on node %d: no such file",
			opName(write), st.path, f.node)
		return 0, false
	}
	if !write && offset+size > st.size {
		o.err = fmt.Errorf("storage: read %s on node %d: [%d,%d) past EOF %d",
			st.path, f.node, offset, offset+size, st.size)
		return 0, false
	}
	stats := &s.Stats[st.target]
	stats.DataOps++
	if write {
		stats.BytesWritten += size
		if offset+size > st.size {
			st.size = offset + size
		}
	} else {
		stats.BytesRead += size
	}
	shared := st.sharedAcrossNodes()
	if s.cfg.RelaxedConsistency {
		// UnifyFS-style interposition buffers every write node-locally,
		// even on files other nodes have opened.
		shared = false
	}
	switch st.target {
	case TargetPFS:
		return o.pfsData(shared), true
	case TargetSharedBB:
		return s.bbData(st.hash, offset, size), true
	default:
		return s.localData(f.node, size), true
	}
}

// bbData books a shared burst-buffer transfer and returns when it ends:
// striped across the BB servers like the PFS, with SSD-class per-op
// latency and no client-cache semantics (DataWarp exposes a scratch
// namespace, not a coherent cached file system).
func (s *System) bbData(fileHash uint64, offset, size int64) time.Duration {
	stripe := s.cfg.SharedBBStripe
	n := len(s.bbServers.Servers)
	var last time.Duration
	remaining, off := size, offset
	for remaining > 0 {
		chunkIdx := off / stripe
		inChunk := stripe - off%stripe
		if inChunk > remaining {
			inChunk = remaining
		}
		svc := s.cfg.SharedBBLatency + bwTime(inChunk, s.cfg.SharedBBServerBW)
		server := int((fileHash + uint64(chunkIdx)) % uint64(n))
		_, end := s.bbServers.Servers[server].Reserve(svc)
		if end > last {
			last = end
		}
		off += inChunk
		remaining -= inChunk
	}
	if last == 0 {
		_, last = s.bbServers.Servers[int(fileHash%uint64(n))].Reserve(s.cfg.SharedBBLatency)
	}
	// Unlike the PFS path, burst-buffer traffic is not bounded by the PFS
	// client stack's per-node throughput: DataWarp's raison d'etre is a
	// fabric-level data path that sidesteps that bottleneck.
	return last
}

func opName(write bool) string {
	if write {
		return "write"
	}
	return "read"
}

// localData books a node-local transfer — per-op latency plus bytes over
// the node controller's bandwidth, serialized FCFS on the node resource —
// and returns when it ends.
func (s *System) localData(node int, size int64) time.Duration {
	svc := s.cfg.NodeLocalLatency + bwTime(size, s.cfg.NodeLocalBW)
	_, end := s.nodeLocal[node].Book(svc)
	return end
}

// pfsData books a PFS transfer and returns when it ends. Writes land in
// the node page cache when enabled and there is room, with asynchronous
// drain to the data servers booked after the copy (stDrain); reads hit the
// cache when the node recently wrote or read the file. Otherwise the
// request is split into stripe chunks routed across the data servers in
// parallel, and the call waits for the last chunk to land (then stFill).
func (o *Op) pfsData(shared bool) time.Duration {
	f := o.f
	s, node, fileSize := f.s, f.node, f.st.size
	offset, size, write := o.off, o.size, o.write
	c := s.caches[node]
	now := s.e.Now()
	if s.cfg.CacheEnabled && !shared {
		if write {
			if c.reserveDirty(size, now) {
				s.Stats[TargetPFS].CacheHits++
				// Absorb at memory speed; drain to servers in background.
				o.stage = stDrain
				return now + s.cfg.CacheLatency + bwTime(size, s.cfg.CacheBW)
			}
			s.Stats[TargetPFS].CacheMisses++
			// No room: synchronous write-through below.
		} else {
			if f.cache().extent >= offset+size {
				s.Stats[TargetPFS].CacheHits++
				return now + s.cfg.CacheLatency + bwTime(size, s.cfg.CacheBW)
			}
			s.Stats[TargetPFS].CacheMisses++
		}
	}
	// Sequential read-ahead: a cache-miss read on a cacheable file
	// prefetches a larger window, so streaming 64KB reads amortize the
	// per-request PFS latency and run at NIC speed (GPFS prefetch).
	fetch := size
	if !write && s.cfg.CacheEnabled && !shared && s.cfg.ReadAhead > size {
		fetch = s.cfg.ReadAhead
		if offset+fetch > fileSize {
			fetch = fileSize - offset
		}
		if fetch < size {
			fetch = size
		}
	}
	end := s.stripeReserve(f.st.hash, offset, fetch)
	if nicEnd := s.nicReserve(node, fetch); nicEnd > end {
		end = nicEnd
	}
	if !write {
		o.stage, o.size = stFill, fetch
	}
	return end
}

// nicReserve books the node's PFS client bandwidth for a transfer and
// returns its completion time (zero when the NIC is unconstrained).
func (s *System) nicReserve(node int, size int64) time.Duration {
	if s.cfg.NodeNICBW <= 0 {
		return 0
	}
	_, end := s.nics[node].Reserve(bwTime(size, s.cfg.NodeNICBW))
	return end
}

// stripeReserve splits [offset, offset+size) into stripe chunks, reserves
// each on its server (FCFS), and returns the latest completion time.
func (s *System) stripeReserve(fileHash uint64, offset, size int64) time.Duration {
	stripe := s.cfg.PFSStripeSize
	n := len(s.dataServers.Servers)
	var last time.Duration
	for size > 0 {
		chunkIdx := offset / stripe
		inChunk := stripe - offset%stripe
		if inChunk > size {
			inChunk = size
		}
		svc := s.cfg.PFSDataLatency + bwTime(inChunk, s.cfg.PFSServerBW)
		if s.cfg.JitterFrac > 0 && s.rng != nil {
			svc = time.Duration(s.rng.Jitter(float64(svc), s.cfg.JitterFrac))
		}
		server := int((fileHash + uint64(chunkIdx)) % uint64(n))
		_, end := s.dataServers.Servers[server].Reserve(svc)
		if end > last {
			last = end
		}
		offset += inChunk
		size -= inChunk
	}
	if last == 0 { // zero-byte op still pays one round trip
		svc := s.cfg.PFSDataLatency
		server := int(fileHash % uint64(n))
		_, last = s.dataServers.Servers[server].Reserve(svc)
	}
	return last
}

// bwTime converts bytes at bytes/sec into a duration.
func bwTime(size, bw int64) time.Duration {
	if size <= 0 {
		return 0
	}
	return time.Duration(float64(size) / float64(bw) * float64(time.Second))
}

// hashString is FNV-1a, used to spread files across servers.
func hashString(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// pageCache is a per-node client cache. It tracks which files have data
// cached on the node and how much dirty write-back data is outstanding.
// Whole-extent tracking ([0, high)) is enough for the workloads modeled,
// which write and read files contiguously.
type pageCache struct {
	capacity int64
	used     int64
	dirty    int64
	drainEnd time.Duration
	files    map[*fileState]*cacheEntry
	order    []*cacheEntry // cached files in LRU order, oldest first
}

// cacheEntry is one file on one node's cache. Entries are never removed
// (eviction empties them), so a File keeps its entry for its lifetime.
type cacheEntry struct {
	extent int64         // cached bytes [0, extent)
	drain  time.Duration // the file's write-back completion
	listed bool          // in order
}

func newPageCache(capacity int64) *pageCache {
	return &pageCache{capacity: capacity, files: make(map[*fileState]*cacheEntry)}
}

// entry returns the file's entry, creating an empty one.
func (c *pageCache) entry(f *fileState) *cacheEntry {
	e := c.files[f]
	if e == nil {
		e = &cacheEntry{}
		c.files[f] = e
	}
	return e
}

// insert records that [0, end) of the file is now cached, evicting
// least-recently-inserted files when over budget.
func (c *pageCache) insert(e *cacheEntry, end int64) {
	if c.capacity <= 0 || end <= e.extent {
		return
	}
	c.used += end - e.extent
	e.extent = end
	if !e.listed {
		e.listed = true
		c.order = append(c.order, e)
	}
	for c.used > c.capacity && len(c.order) > 0 {
		victim := c.order[0]
		c.order = c.order[1:]
		if victim == e {
			// Never evict the file just inserted; push it to the back.
			c.order = append(c.order, victim)
			if len(c.order) == 1 {
				break
			}
			continue
		}
		c.used -= victim.extent
		victim.extent, victim.listed = 0, false
	}
}

// reserveDirty claims write-back budget for size bytes, failing when the
// cache cannot absorb the write.
func (c *pageCache) reserveDirty(size int64, now time.Duration) bool {
	if c.capacity <= 0 {
		return false
	}
	if now >= c.drainEnd {
		c.dirty = 0 // everything scheduled so far has drained
	}
	if c.dirty+size > c.capacity {
		return false
	}
	c.dirty += size
	return true
}

// scheduleDrain records when the reserved dirty bytes of one file will
// have drained to the PFS.
func (c *pageCache) scheduleDrain(e *cacheEntry, end time.Duration) {
	if end > c.drainEnd {
		c.drainEnd = end
	}
	if end > e.drain {
		e.drain = end
	}
}
