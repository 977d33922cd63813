package storage

import (
	"testing"
	"testing/quick"
	"time"

	"vani/internal/sim"
)

// testConfig returns a deterministic config (no jitter, no cache) so tests
// can reason about exact durations.
func testConfig() Config {
	c := Lassen()
	c.JitterFrac = 0
	c.CacheEnabled = false
	return c
}

func newSys(t *testing.T, cfg Config, nodes int) (*sim.Engine, *System) {
	t.Helper()
	e := sim.NewEngine()
	return e, New(e, cfg, nodes, sim.NewRNG(1))
}

func TestRouteByMountPrefix(t *testing.T) {
	_, s := newSys(t, testConfig(), 2)
	cases := map[string]TargetKind{
		"/p/gpfs1/data/x.bin": TargetPFS,
		"/dev/shm/x":          TargetNodeLocal,
		"/tmp/scratch/y":      TargetTmp,
		"/home/user/z":        TargetPFS, // unmatched defaults to PFS
	}
	for path, want := range cases {
		if got := s.Route(path); got != want {
			t.Errorf("Route(%q) = %v, want %v", path, got, want)
		}
	}
}

func TestTargetKindStrings(t *testing.T) {
	if TargetPFS.String() != "gpfs" || TargetNodeLocal.String() != "shm" || TargetTmp.String() != "tmp" {
		t.Error("target names wrong")
	}
	if TargetKind(9).String() != "unknown" {
		t.Error("unknown target name wrong")
	}
}

func TestOpenCreateWriteReadRoundTrip(t *testing.T) {
	e, s := newSys(t, testConfig(), 1)
	e.Spawn("p", func(p *sim.Proc) {
		f, err := s.Open(p, 0, "/p/gpfs1/f", true)
		if err != nil {
			t.Errorf("Open: %v", err)
			return
		}
		if err := f.Write(p, 0, 4*KiB); err != nil {
			t.Errorf("Write: %v", err)
		}
		if err := f.Read(p, 0, 4*KiB); err != nil {
			t.Errorf("Read: %v", err)
		}
		f.Close(p)
		if sz, ok := fileSize(s, 0, "/p/gpfs1/f"); !ok || sz != 4*KiB {
			t.Errorf("FileSize = %d,%v want 4KiB,true", sz, ok)
		}
	})
	e.Run()
	if s.Stats[TargetPFS].DataOps != 2 || s.Stats[TargetPFS].MetaOps != 2 {
		t.Errorf("stats = %+v", s.Stats[TargetPFS])
	}
}

func TestOpenMissingWithoutCreateFails(t *testing.T) {
	e, s := newSys(t, testConfig(), 1)
	e.Spawn("p", func(p *sim.Proc) {
		if _, err := s.Open(p, 0, "/p/gpfs1/missing", false); err == nil {
			t.Error("open of missing file succeeded")
		}
	})
	e.Run()
}

func TestOpenTruncates(t *testing.T) {
	e, s := newSys(t, testConfig(), 1)
	e.Spawn("p", func(p *sim.Proc) {
		f, _ := s.Open(p, 0, "/p/gpfs1/f", true)
		f.Write(p, 0, MiB)
		s.Open(p, 0, "/p/gpfs1/f", true) // re-create truncates
		if sz, _ := fileSize(s, 0, "/p/gpfs1/f"); sz != 0 {
			t.Errorf("size after truncate = %d", sz)
		}
	})
	e.Run()
}

func TestReadPastEOFFails(t *testing.T) {
	e, s := newSys(t, testConfig(), 1)
	e.Spawn("p", func(p *sim.Proc) {
		f, _ := s.Open(p, 0, "/p/gpfs1/f", true)
		f.Write(p, 0, KiB)
		if err := f.Read(p, 512, KiB); err == nil {
			t.Error("read past EOF succeeded")
		}
	})
	e.Run()
}

func TestReadMissingFails(t *testing.T) {
	e, s := newSys(t, testConfig(), 1)
	e.Spawn("p", func(p *sim.Proc) {
		if err := s.Resolve(0, "/p/gpfs1/nope").Read(p, 0, 1); err == nil {
			t.Error("read of missing file succeeded")
		}
		if err := s.Resolve(0, "/p/gpfs1/nope").Write(p, 0, 1); err == nil {
			t.Error("write of unopened file succeeded")
		}
	})
	e.Run()
}

func TestNegativeArgsFail(t *testing.T) {
	e, s := newSys(t, testConfig(), 1)
	e.Spawn("p", func(p *sim.Proc) {
		f, _ := s.Open(p, 0, "/p/gpfs1/f", true)
		if err := f.Write(p, -1, 10); err == nil {
			t.Error("negative offset accepted")
		}
		if err := f.Write(p, 0, -10); err == nil {
			t.Error("negative size accepted")
		}
	})
	e.Run()
}

func TestNodeLocalNamespacesArePerNode(t *testing.T) {
	e, s := newSys(t, testConfig(), 2)
	e.Spawn("writer", func(p *sim.Proc) {
		f, _ := s.Open(p, 0, "/dev/shm/inter", true)
		f.Write(p, 0, MiB)
	})
	e.Spawn("reader-other-node", func(p *sim.Proc) {
		p.Sleep(time.Second)
		if _, ok := fileSize(s, 1, "/dev/shm/inter"); ok {
			t.Error("node 1 sees node 0's /dev/shm file")
		}
		if _, ok := fileSize(s, 0, "/dev/shm/inter"); !ok {
			t.Error("node 0's file lost")
		}
	})
	e.Run()
}

func TestPFSNamespaceIsShared(t *testing.T) {
	e, s := newSys(t, testConfig(), 2)
	e.Spawn("writer", func(p *sim.Proc) {
		f, _ := s.Open(p, 0, "/p/gpfs1/shared", true)
		f.Write(p, 0, MiB)
	})
	e.Spawn("reader", func(p *sim.Proc) {
		p.Sleep(time.Second)
		if err := s.Resolve(1, "/p/gpfs1/shared").Read(p, 0, MiB); err != nil {
			t.Errorf("cross-node PFS read: %v", err)
		}
	})
	e.Run()
}

// TestResolvedFilesFollowTheNamespace: a node-local path opened on two
// nodes is two files, each with its own size and page-cache entry; a PFS
// path opened on two nodes is one file, whose state both handles share,
// cached per node.
func TestResolvedFilesFollowTheNamespace(t *testing.T) {
	cfg := testConfig()
	cfg.CacheEnabled = true
	e, s := newSys(t, cfg, 2)
	e.Spawn("p", func(p *sim.Proc) {
		l0, _ := s.Open(p, 0, "/dev/shm/x", true)
		l1, _ := s.Open(p, 1, "/dev/shm/x", true)
		if l0.st == l1.st {
			t.Error("/dev/shm/x on nodes 0 and 1 resolves to one file")
		}
		l0.Write(p, 0, MiB)
		if sz, _ := l1.Size(); sz != 0 {
			t.Errorf("node 1's /dev/shm/x grew to %d with node 0's write", sz)
		}
		if l0.cache() == l1.cache() {
			t.Error("node-local files on two nodes share a page-cache entry")
		}

		g0, _ := s.Open(p, 0, "/p/gpfs1/g", true)
		g0.Write(p, 0, MiB)
		g1, _ := s.Open(p, 1, "/p/gpfs1/g", false)
		if g0.st != g1.st || s.Resolve(0, "/p/gpfs1/g").st != g0.st {
			t.Error("a PFS path resolves to more than one file")
		}
		if sz, _ := g1.Size(); sz != MiB {
			t.Errorf("node 1 sees the PFS file at %d bytes, want %d", sz, MiB)
		}
		if g0.cache() == g1.cache() || g0.cache().extent != MiB || g1.cache().extent != 0 {
			t.Errorf("page-cache extents node 0 %d node 1 %d, want %d and 0 in separate entries",
				g0.cache().extent, g1.cache().extent, MiB)
		}
	})
	e.Run()
}

func TestNodeLocalFasterThanPFSForSmallOps(t *testing.T) {
	cfg := testConfig()
	var pfsTime, shmTime time.Duration
	{
		e, s := newSys(t, cfg, 1)
		e.Spawn("p", func(p *sim.Proc) {
			f, _ := s.Open(p, 0, "/p/gpfs1/f", true)
			t0 := p.Now()
			for i := int64(0); i < 100; i++ {
				f.Write(p, i*4*KiB, 4*KiB)
			}
			pfsTime = p.Now() - t0
		})
		e.Run()
	}
	{
		e, s := newSys(t, cfg, 1)
		e.Spawn("p", func(p *sim.Proc) {
			f, _ := s.Open(p, 0, "/dev/shm/f", true)
			t0 := p.Now()
			for i := int64(0); i < 100; i++ {
				f.Write(p, i*4*KiB, 4*KiB)
			}
			shmTime = p.Now() - t0
		})
		e.Run()
	}
	if shmTime*10 >= pfsTime {
		t.Errorf("shm (%v) not >=10x faster than PFS (%v) for small writes", shmTime, pfsTime)
	}
}

func TestStripingParallelizesLargeRequests(t *testing.T) {
	// A 32MiB request striped over 32 servers at 2GiB/s each should take
	// roughly (1MiB/2GiB/s + latency) ≈ 0.74ms rather than the 16ms a
	// single 2GiB/s server would need.
	cfg := testConfig()
	cfg.NodeNICBW = 0 // isolate server striping from the client NIC limit
	e, s := newSys(t, cfg, 1)
	var elapsed time.Duration
	e.Spawn("p", func(p *sim.Proc) {
		f, _ := s.Open(p, 0, "/p/gpfs1/big", true)
		t0 := p.Now()
		f.Write(p, 0, 32*MiB)
		elapsed = p.Now() - t0
	})
	e.Run()
	serial := bwTime(32*MiB, cfg.PFSServerBW)
	if elapsed >= serial/4 {
		t.Errorf("striped 32MiB write took %v, want much less than serial %v", elapsed, serial)
	}
}

func TestContentionSlowsConcurrentWriters(t *testing.T) {
	cfg := testConfig()
	solo := measureNWriters(t, cfg, 1)
	crowd := measureNWriters(t, cfg, 64)
	if crowd <= solo {
		t.Errorf("64 writers (%v) not slower than 1 writer (%v)", crowd, solo)
	}
	if crowd < 4*solo {
		t.Errorf("contention too weak: 64 writers %v vs solo %v", crowd, solo)
	}
}

func measureNWriters(t *testing.T, cfg Config, n int) time.Duration {
	t.Helper()
	e := sim.NewEngine()
	s := New(e, cfg, 1, sim.NewRNG(1))
	for i := 0; i < n; i++ {
		i := i
		e.Spawn("w", func(p *sim.Proc) {
			path := "/p/gpfs1/f" + string(rune('a'+i%26)) + string(rune('a'+i/26))
			f, _ := s.Open(p, 0, path, true)
			for j := int64(0); j < 16; j++ {
				f.Write(p, j*16*MiB, 16*MiB)
			}
		})
	}
	return e.Run()
}

func TestMetadataContention(t *testing.T) {
	// Many concurrent opens queue on the metadata servers; per-op latency
	// grows with concurrency. This is the effect behind CosmoFlow's 98%
	// metadata time.
	cfg := testConfig()
	e, s := newSys(t, cfg, 1)
	const n = 256
	for i := 0; i < n; i++ {
		e.Spawn("p", func(p *sim.Proc) {
			f, _ := s.Open(p, 0, "/p/gpfs1/shared", true)
			f.Close(p)
		})
	}
	end := e.Run()
	// 512 meta ops over 4 servers at 400µs each = 51.2ms minimum.
	min := time.Duration(2*n/cfg.PFSMetaServers) * cfg.PFSMetaLatency
	if end < min {
		t.Errorf("metadata storm finished in %v, queueing model demands >= %v", end, min)
	}
}

func TestPageCacheWriteAbsorption(t *testing.T) {
	cfg := testConfig()
	cfg.CacheEnabled = true
	e, s := newSys(t, cfg, 1)
	var elapsed time.Duration
	e.Spawn("p", func(p *sim.Proc) {
		f, _ := s.Open(p, 0, "/p/gpfs1/f", true)
		t0 := p.Now()
		f.Write(p, 0, MiB)
		elapsed = p.Now() - t0
	})
	e.Run()
	direct := cfg.PFSDataLatency + bwTime(MiB, cfg.PFSServerBW)
	if elapsed >= direct {
		t.Errorf("cached write took %v, want < direct %v", elapsed, direct)
	}
	if s.Stats[TargetPFS].CacheHits != 1 {
		t.Errorf("CacheHits = %d, want 1", s.Stats[TargetPFS].CacheHits)
	}
}

func TestPageCacheReadAfterWriteHit(t *testing.T) {
	cfg := testConfig()
	cfg.CacheEnabled = true
	e, s := newSys(t, cfg, 1)
	e.Spawn("p", func(p *sim.Proc) {
		f, _ := s.Open(p, 0, "/p/gpfs1/f", true)
		f.Write(p, 0, MiB)
		t0 := p.Now()
		f.Read(p, 0, MiB)
		hitTime := p.Now() - t0
		direct := cfg.PFSDataLatency + bwTime(MiB, cfg.PFSServerBW)
		if hitTime >= direct {
			t.Errorf("cache-hit read took %v, want < %v", hitTime, direct)
		}
	})
	e.Run()
	if s.Stats[TargetPFS].CacheHits < 2 {
		t.Errorf("CacheHits = %d, want >= 2", s.Stats[TargetPFS].CacheHits)
	}
}

func TestPageCacheMissOnOtherNode(t *testing.T) {
	cfg := testConfig()
	cfg.CacheEnabled = true
	e, s := newSys(t, cfg, 2)
	e.Spawn("writer", func(p *sim.Proc) {
		f, _ := s.Open(p, 0, "/p/gpfs1/f", true)
		f.Write(p, 0, MiB)
	})
	e.Spawn("reader", func(p *sim.Proc) {
		p.Sleep(time.Second)
		s.Resolve(1, "/p/gpfs1/f").Read(p, 0, MiB) // different node: must miss
	})
	e.Run()
	if s.Stats[TargetPFS].CacheMisses == 0 {
		t.Error("cross-node read should miss the writer's cache")
	}
}

func TestPageCacheOverflowWritesThrough(t *testing.T) {
	cfg := testConfig()
	cfg.CacheEnabled = true
	cfg.CacheCapacity = 2 * MiB
	e, s := newSys(t, cfg, 1)
	e.Spawn("p", func(p *sim.Proc) {
		f, _ := s.Open(p, 0, "/p/gpfs1/f", true)
		// 4MiB of writes against a 2MiB cache: some must write through.
		for i := int64(0); i < 4; i++ {
			f.Write(p, i*MiB, MiB)
		}
	})
	e.Run()
	if s.Stats[TargetPFS].CacheMisses == 0 {
		t.Error("cache overflow never wrote through")
	}
}

func TestSyncWaitsForDrain(t *testing.T) {
	cfg := testConfig()
	cfg.CacheEnabled = true
	e, s := newSys(t, cfg, 1)
	var syncEnd time.Duration
	e.Spawn("p", func(p *sim.Proc) {
		f, _ := s.Open(p, 0, "/p/gpfs1/f", true)
		f.Write(p, 0, 64*MiB) // absorbed, drains in background
		beforeSync := p.Now()
		f.Sync(p)
		syncEnd = p.Now()
		if syncEnd <= beforeSync {
			t.Error("sync with dirty data returned instantly")
		}
	})
	e.Run()
}

func TestSeekIsNearFree(t *testing.T) {
	e, s := newSys(t, testConfig(), 1)
	e.Spawn("p", func(p *sim.Proc) {
		f := s.Resolve(0, "/p/gpfs1/f")
		t0 := p.Now()
		for i := 0; i < 100; i++ {
			f.Seek(p)
		}
		if d := p.Now() - t0; d > time.Millisecond {
			t.Errorf("100 seeks took %v, want client-side cost", d)
		}
	})
	e.Run()
}

func TestStatReportsSize(t *testing.T) {
	e, s := newSys(t, testConfig(), 1)
	e.Spawn("p", func(p *sim.Proc) {
		f, _ := s.Open(p, 0, "/p/gpfs1/f", true)
		f.Write(p, 0, 3*MiB)
		sz, err := s.Stat(p, 0, "/p/gpfs1/f")
		if err != nil || sz != 3*MiB {
			t.Errorf("Stat = %d,%v", sz, err)
		}
		if _, err := s.Stat(p, 0, "/p/gpfs1/other"); err == nil {
			t.Error("stat of missing file succeeded")
		}
	})
	e.Run()
}

func TestJitterKeepsDeterminism(t *testing.T) {
	run := func() time.Duration {
		cfg := Lassen() // jitter on
		e := sim.NewEngine()
		s := New(e, cfg, 1, sim.NewRNG(99))
		e.Spawn("p", func(p *sim.Proc) {
			f, _ := s.Open(p, 0, "/p/gpfs1/f", true)
			for i := int64(0); i < 50; i++ {
				f.Write(p, i*MiB, MiB)
			}
		})
		return e.Run()
	}
	if run() != run() {
		t.Error("jittered runs with the same seed diverged")
	}
}

// Property: file size equals the max write extent, regardless of op order.
func TestFileSizeMaxExtentProperty(t *testing.T) {
	f := func(offsets []uint16) bool {
		e := sim.NewEngine()
		s := New(e, testConfig(), 1, sim.NewRNG(1))
		var want int64
		ok := true
		e.Spawn("p", func(p *sim.Proc) {
			f, _ := s.Open(p, 0, "/p/gpfs1/f", true)
			for _, o := range offsets {
				off := int64(o) * 64
				if err := f.Write(p, off, 64); err != nil {
					ok = false
					return
				}
				if off+64 > want {
					want = off + 64
				}
			}
		})
		e.Run()
		got, _ := fileSize(s, 0, "/p/gpfs1/f")
		return ok && got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: byte counters equal the sum of issued op sizes per target.
func TestByteAccountingProperty(t *testing.T) {
	f := func(sizes []uint16, shm bool) bool {
		e := sim.NewEngine()
		s := New(e, testConfig(), 1, sim.NewRNG(1))
		path := "/p/gpfs1/f"
		tgt := TargetPFS
		if shm {
			path, tgt = "/dev/shm/f", TargetNodeLocal
		}
		var want int64
		e.Spawn("p", func(p *sim.Proc) {
			f, _ := s.Open(p, 0, path, true)
			var off int64
			for _, sz := range sizes {
				n := int64(sz) + 1
				f.Write(p, off, n)
				off += n
				want += n
			}
		})
		e.Run()
		return s.Stats[tgt].BytesWritten == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestNewValidatesConfig(t *testing.T) {
	e := sim.NewEngine()
	bad := []Config{
		{}, // all zero
		func() Config { c := Lassen(); c.PFSServers = 0; return c }(),
		func() Config { c := Lassen(); c.PFSStripeSize = 0; return c }(),
		func() Config { c := Lassen(); c.NodeLocalBW = 0; return c }(),
	}
	for i, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %d accepted", i)
				}
			}()
			New(e, cfg, 1, sim.NewRNG(1))
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("zero nodes accepted")
			}
		}()
		New(e, Lassen(), 0, sim.NewRNG(1))
	}()
}

func TestMaterializeStagesDatasetInstantly(t *testing.T) {
	e, s := newSys(t, testConfig(), 2)
	s.Materialize(0, "/p/gpfs1/input.fits", 22*MiB)
	s.Materialize(1, "/dev/shm/local", MiB)
	e.Spawn("p", func(p *sim.Proc) {
		if err := s.Resolve(1, "/p/gpfs1/input.fits").Read(p, 0, 22*MiB); err != nil {
			t.Errorf("read of materialized file: %v", err)
		}
		_, onOwn := fileSize(s, 1, "/dev/shm/local")
		_, onOther := fileSize(s, 0, "/dev/shm/local")
		if !onOwn || onOther {
			t.Error("node-local materialization wrong")
		}
	})
	if e.Run() == 0 {
		t.Error("read of materialized file cost no time")
	}
}

func TestMaterializeDoesNotShrink(t *testing.T) {
	_, s := newSys(t, testConfig(), 1)
	s.Materialize(0, "/p/gpfs1/f", 10*MiB)
	s.Materialize(0, "/p/gpfs1/f", MiB)
	if sz, _ := fileSize(s, 0, "/p/gpfs1/f"); sz != 10*MiB {
		t.Errorf("size = %d, want 10MiB", sz)
	}
}

func TestCacheBypassForCrossNodeSharedFiles(t *testing.T) {
	cfg := testConfig()
	cfg.CacheEnabled = true
	e, s := newSys(t, cfg, 2)
	e.Spawn("leader0", func(p *sim.Proc) {
		s.Open(p, 0, "/p/gpfs1/step", true)
	})
	e.Spawn("leader1", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		f, _ := s.Open(p, 1, "/p/gpfs1/step", false)
		p.Sleep(time.Millisecond)
		// File now opened by two nodes: GPFS-like token management
		// disables client caching, so this write pays full PFS cost.
		hits := s.Stats[TargetPFS].CacheHits
		f.Write(p, 0, MiB)
		if s.Stats[TargetPFS].CacheHits != hits {
			t.Error("write to cross-node shared file used the cache")
		}
	})
	e.Run()
}

func TestCacheStillUsedForNodePrivateFiles(t *testing.T) {
	cfg := testConfig()
	cfg.CacheEnabled = true
	e, s := newSys(t, cfg, 2)
	e.Spawn("p", func(p *sim.Proc) {
		f, _ := s.Open(p, 0, "/p/gpfs1/private", true)
		f.Write(p, 0, MiB)
		if s.Stats[TargetPFS].CacheHits == 0 {
			t.Error("node-private file bypassed the cache")
		}
	})
	e.Run()
}

func TestSharedBurstBufferTarget(t *testing.T) {
	cfg := Cori()
	cfg.JitterFrac = 0
	cfg.CacheEnabled = false
	e := sim.NewEngine()
	s := New(e, cfg, 4, sim.NewRNG(1))
	if s.Route("/var/opt/cray/dws/ckpt") != TargetSharedBB {
		t.Fatal("shared BB path not routed")
	}
	e.Spawn("writer", func(p *sim.Proc) {
		f, err := s.Open(p, 0, "/var/opt/cray/dws/ckpt", true)
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		if err := f.Write(p, 0, 64*MiB); err != nil {
			t.Errorf("write: %v", err)
		}
		f.Close(p)
	})
	e.Spawn("reader-other-node", func(p *sim.Proc) {
		p.Sleep(time.Second)
		// Shared namespace: another node sees the file (unlike /dev/shm).
		if err := s.Resolve(3, "/var/opt/cray/dws/ckpt").Read(p, 0, 64*MiB); err != nil {
			t.Errorf("cross-node BB read: %v", err)
		}
	})
	e.Run()
	if s.Stats[TargetSharedBB].BytesWritten != 64*MiB || s.Stats[TargetSharedBB].BytesRead != 64*MiB {
		t.Errorf("BB stats = %+v", s.Stats[TargetSharedBB])
	}
	if s.Stats[TargetSharedBB].MetaOps == 0 {
		t.Error("BB metadata not accounted")
	}
}

func TestSharedBBFasterThanPFSForSmallOps(t *testing.T) {
	cfg := Cori()
	cfg.JitterFrac = 0
	cfg.CacheEnabled = false
	measure := func(path string) time.Duration {
		e := sim.NewEngine()
		s := New(e, cfg, 1, sim.NewRNG(1))
		e.Spawn("p", func(p *sim.Proc) {
			f, _ := s.Open(p, 0, path, true)
			for i := int64(0); i < 200; i++ {
				f.Write(p, i*64*KiB, 64*KiB)
			}
			f.Close(p)
		})
		return e.Run()
	}
	pfs := measure("/global/cscratch1/f")
	bb := measure("/var/opt/cray/dws/f")
	if bb*2 >= pfs {
		t.Errorf("BB (%v) not clearly faster than PFS (%v) for small ops", bb, pfs)
	}
}

func TestRouteWithoutBBConfigured(t *testing.T) {
	// On Lassen (no shared BB) a DataWarp-looking path routes to the PFS.
	_, s := newSys(t, testConfig(), 1)
	if s.Route("/var/opt/cray/dws/x") != TargetPFS {
		t.Error("unconfigured BB path should fall through to PFS")
	}
}

func TestCoriAndSummitConfigsValid(t *testing.T) {
	for _, cfg := range []Config{Cori(), Summit()} {
		e := sim.NewEngine()
		New(e, cfg, 2, sim.NewRNG(1)) // must not panic
	}
	if Cori().NodeLocalDir != "" {
		t.Error("Cori should have no node-local tier")
	}
	if Summit().NodeLocalDir != "/mnt/bb" {
		t.Error("Summit NVMe tier missing")
	}
}

func TestBBConfigValidation(t *testing.T) {
	cfg := Cori()
	cfg.SharedBBDir = ""
	defer func() {
		if recover() == nil {
			t.Error("incomplete BB config accepted")
		}
	}()
	New(sim.NewEngine(), cfg, 1, sim.NewRNG(1))
}

// fileSize is the size of path as node sees it, and whether it exists.
func fileSize(s *System, node int, path string) (int64, bool) {
	f := s.Lookup(node, path)
	return f.Size()
}
