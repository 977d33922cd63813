package storage

import (
	"fmt"
	"strings"
	"time"

	"vani/internal/sim"
)

// System is one storage stack instance attached to a simulation: a striped
// PFS shared by all nodes, plus per-node node-local targets and page
// caches. All blocking methods must be called from a simulation process.
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
	nodePrefix  []string // "n<i>:", the node-local namespace prefix of node i

	files map[string]*fileState

	// Counters per target, indexed by TargetKind.
	Stats [NumTargets]TargetStats
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

type fileState struct {
	size   int64
	target TargetKind
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
		nodePrefix:  make([]string, nodes),
		files:       make(map[string]*fileState),
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
		s.nodePrefix[i] = fmt.Sprintf("n%d:", i)
	}
	return s
}

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

// key builds the namespace key. Node-local targets have per-node
// namespaces: /dev/shm/x on node 0 and node 3 are different files.
// PFS and shared-BB namespaces are global.
func (s *System) key(node int, path string) (string, TargetKind) {
	t := s.Route(path)
	if t == TargetPFS || t == TargetSharedBB {
		return path, t
	}
	return s.nodePrefix[node] + path, t
}

func (s *System) lookup(node int, path string) (*fileState, string, TargetKind) {
	k, t := s.key(node, path)
	return s.files[k], k, t
}

// Open performs the open metadata operation. With create true the file is
// created (or truncated to zero); otherwise the file must exist on the
// issuing node's view of the namespace.
func (s *System) Open(p *sim.Proc, node int, path string, create bool) error {
	f, k, t := s.lookup(node, path)
	if f == nil || !f.exists {
		if !create {
			s.meta(p, node, t)
			return fmt.Errorf("storage: open %s on node %d: no such file", path, node)
		}
		f = &fileState{target: t, exists: true}
		s.files[k] = f
	} else if create {
		f.size = 0 // truncate
	}
	f.noteOpener(node)
	s.meta(p, node, t)
	return nil
}

// Materialize creates or grows a file instantly, with no time cost and no
// trace events. It stages pre-existing datasets (input FITS images, HDF5
// sample files) that exist before the job starts, so their creation does
// not pollute the workload's characterization.
func (s *System) Materialize(node int, path string, size int64) {
	k, t := s.key(node, path)
	f := s.files[k]
	if f == nil {
		f = &fileState{target: t, exists: true}
		s.files[k] = f
	}
	f.exists = true
	if size > f.size {
		f.size = size
	}
}

// Close performs the close metadata operation. For PFS files with dirty
// write-back data, close waits for the drain to finish: GPFS flushes dirty
// client-cache data on close to keep other nodes coherent, which is why
// buffered small-file writes still pay full PFS cost by the time a
// workflow stage hands its files to the next one.
func (s *System) Close(p *sim.Proc, node int, path string) {
	_, k, t := s.lookup(node, path)
	if t == TargetPFS && s.cfg.CacheEnabled && !s.cfg.RelaxedConsistency {
		if end := s.caches[node].fileDrainEnd(k); end > p.Now() {
			p.SleepUntil(end)
		}
	}
	s.meta(p, node, t)
}

// Stat performs a stat metadata operation and reports the file size.
func (s *System) Stat(p *sim.Proc, node int, path string) (int64, error) {
	f, _, t := s.lookup(node, path)
	s.meta(p, node, t)
	if f == nil || !f.exists {
		return 0, fmt.Errorf("storage: stat %s on node %d: no such file", path, node)
	}
	return f.size, nil
}

// Seek models the (client-side, near-free) seek call; it is traced as a
// metadata op by the interface layers but costs no server time.
func (s *System) Seek(p *sim.Proc, node int, path string) {
	p.Sleep(200 * time.Nanosecond)
}

// Sync performs an fsync-like metadata op; with the page cache enabled it
// also waits for the node's dirty data on that file to drain to the PFS.
func (s *System) Sync(p *sim.Proc, node int, path string) {
	_, k, t := s.lookup(node, path)
	if t == TargetPFS && s.cfg.CacheEnabled {
		if end := s.caches[node].fileDrainEnd(k); end > p.Now() {
			p.SleepUntil(end)
		}
	}
	s.meta(p, node, t)
}

// Mkdir performs a directory-creation metadata op.
func (s *System) Mkdir(p *sim.Proc, node int, path string) {
	s.meta(p, node, s.Route(path))
}

// FileSize reports the current size of a file as seen from node.
func (s *System) FileSize(node int, path string) (int64, bool) {
	f, _, _ := s.lookup(node, path)
	if f == nil || !f.exists {
		return 0, false
	}
	return f.size, true
}

// meta charges one metadata operation against the right service.
func (s *System) meta(p *sim.Proc, node int, t TargetKind) {
	s.Stats[t].MetaOps++
	switch t {
	case TargetPFS:
		s.metaServers.UseLeastLoaded(p, s.cfg.PFSMetaLatency)
	case TargetSharedBB:
		s.bbMeta.Use(p, s.cfg.SharedBBMetaLat)
	default:
		s.nodeLocal[node].Use(p, s.cfg.NodeLocalMetaLat)
	}
}

// Write moves size bytes into the file at offset, blocking the process for
// the modeled duration. The file must have been opened/created.
func (s *System) Write(p *sim.Proc, node int, path string, offset, size int64) error {
	return s.data(p, node, path, offset, size, true)
}

// Read moves size bytes out of the file at offset. Reading past the end of
// the file is an error (workload bugs should surface, not silently read).
func (s *System) Read(p *sim.Proc, node int, path string, offset, size int64) error {
	return s.data(p, node, path, offset, size, false)
}

func (s *System) data(p *sim.Proc, node int, path string, offset, size int64, write bool) error {
	if size < 0 || offset < 0 {
		return fmt.Errorf("storage: negative offset/size on %s", path)
	}
	f, k, t := s.lookup(node, path)
	if f == nil || !f.exists {
		return fmt.Errorf("storage: %s %s on node %d: no such file",
			opName(write), path, node)
	}
	if !write && offset+size > f.size {
		return fmt.Errorf("storage: read %s on node %d: [%d,%d) past EOF %d",
			path, node, offset, offset+size, f.size)
	}
	st := &s.Stats[t]
	st.DataOps++
	if write {
		st.BytesWritten += size
		if offset+size > f.size {
			f.size = offset + size
		}
	} else {
		st.BytesRead += size
	}
	shared := f.sharedAcrossNodes()
	if s.cfg.RelaxedConsistency {
		// UnifyFS-style interposition buffers every write node-locally,
		// even on files other nodes have opened.
		shared = false
	}
	switch t {
	case TargetPFS:
		s.pfsData(p, node, k, offset, size, f.size, write, shared)
	case TargetSharedBB:
		s.bbData(p, node, k, offset, size)
	default:
		s.localData(p, node, size)
	}
	return nil
}

// bbData charges a shared burst-buffer transfer: striped across the BB
// servers like the PFS, with SSD-class per-op latency and no client-cache
// semantics (DataWarp exposes a scratch namespace, not a coherent cached
// file system).
func (s *System) bbData(p *sim.Proc, node int, key string, offset, size int64) {
	stripe := s.cfg.SharedBBStripe
	fileHash := hashString(key)
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
	p.SleepUntil(last)
}

func opName(write bool) string {
	if write {
		return "write"
	}
	return "read"
}

// localData charges a node-local transfer: per-op latency plus bytes over
// the node controller's bandwidth, serialized FCFS on the node resource.
func (s *System) localData(p *sim.Proc, node int, size int64) {
	svc := s.cfg.NodeLocalLatency + bwTime(size, s.cfg.NodeLocalBW)
	s.nodeLocal[node].Use(p, svc)
}

// pfsData charges a PFS transfer. Writes land in the node page cache when
// enabled and there is room, with asynchronous drain to the data servers;
// reads hit the cache when the node recently wrote or read the file.
// Otherwise the request is split into stripe chunks routed across the data
// servers in parallel, and the process blocks until the last chunk lands.
func (s *System) pfsData(p *sim.Proc, node int, key string, offset, size, fileSize int64, write, shared bool) {
	c := s.caches[node]
	if s.cfg.CacheEnabled && !shared {
		if write {
			if c.reserveDirty(size, s.e.Now()) {
				s.Stats[TargetPFS].CacheHits++
				// Absorb at memory speed; drain to servers in background.
				p.Sleep(s.cfg.CacheLatency + bwTime(size, s.cfg.CacheBW))
				drainEnd := s.stripeReserve(key, offset, size)
				if nicEnd := s.nicReserve(node, size); nicEnd > drainEnd {
					drainEnd = nicEnd
				}
				c.scheduleDrain(key, drainEnd)
				c.insert(key, offset+size)
				return
			}
			s.Stats[TargetPFS].CacheMisses++
			// No room: synchronous write-through below.
		} else {
			if c.covers(key, offset+size) {
				s.Stats[TargetPFS].CacheHits++
				p.Sleep(s.cfg.CacheLatency + bwTime(size, s.cfg.CacheBW))
				return
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
	end := s.stripeReserve(key, offset, fetch)
	if nicEnd := s.nicReserve(node, fetch); nicEnd > end {
		end = nicEnd
	}
	p.SleepUntil(end)
	if s.cfg.CacheEnabled && !write {
		c.insert(key, offset+fetch)
	}
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
func (s *System) stripeReserve(key string, offset, size int64) time.Duration {
	stripe := s.cfg.PFSStripeSize
	fileHash := hashString(key)
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

// pageCache is a per-node client cache. It tracks which files (by
// namespace key) have data cached on the node and how much dirty write-back
// data is outstanding. Whole-extent tracking ([0, high)) is enough for the
// workloads modeled, which write and read files contiguously.
type pageCache struct {
	capacity  int64
	used      int64
	dirty     int64
	drainEnd  time.Duration
	fileDrain map[string]time.Duration // per-file write-back completion
	extent    map[string]int64         // key -> cached bytes [0, extent)
	order     []string                 // LRU order, oldest first
}

func newPageCache(capacity int64) *pageCache {
	return &pageCache{
		capacity:  capacity,
		extent:    make(map[string]int64),
		fileDrain: make(map[string]time.Duration),
	}
}

// covers reports whether [0, end) of the file is cached on this node.
func (c *pageCache) covers(key string, end int64) bool {
	return c.extent[key] >= end
}

// insert records that [0, end) of the file is now cached, evicting
// least-recently-inserted files when over budget.
func (c *pageCache) insert(key string, end int64) {
	if c.capacity <= 0 {
		return
	}
	old, ok := c.extent[key]
	if end <= old {
		return
	}
	c.used += end - old
	c.extent[key] = end
	if !ok {
		c.order = append(c.order, key)
	}
	for c.used > c.capacity && len(c.order) > 0 {
		victim := c.order[0]
		c.order = c.order[1:]
		if victim == key {
			// Never evict the file just inserted; push it to the back.
			c.order = append(c.order, victim)
			if len(c.order) == 1 {
				break
			}
			continue
		}
		c.used -= c.extent[victim]
		delete(c.extent, victim)
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
func (c *pageCache) scheduleDrain(key string, end time.Duration) {
	if end > c.drainEnd {
		c.drainEnd = end
	}
	if end > c.fileDrain[key] {
		c.fileDrain[key] = end
	}
}

// fileDrainEnd returns when a file's outstanding dirty data will be on the
// PFS (zero if it has none).
func (c *pageCache) fileDrainEnd(key string) time.Duration { return c.fileDrain[key] }

// dirtyDrainTime returns when all outstanding dirty data will be on the PFS.
func (c *pageCache) dirtyDrainTime() time.Duration { return c.drainEnd }
