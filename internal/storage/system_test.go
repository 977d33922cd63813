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

// script spawns a step process at start that makes calls in turn: each
// set-up readies o for one call, which runs to its end — through every
// stage and wake-up — before the next set-up runs. A set-up sees the Op as
// the call before it left it (a Stat's Size), and one that readies nothing
// makes no call. script returns each call's error, filled in as the run
// reaches it.
func script(e *sim.Engine, start time.Duration, setups ...func(o *Op)) []error {
	errs := make([]error, len(setups))
	var o Op
	i, busy := 0, false
	e.SpawnStepAt(start, "script", func(p *sim.Proc) (time.Duration, error) {
		for {
			if busy {
				if t, more := o.Step(); more {
					return t, nil
				}
				errs[i-1], busy = o.Err(), false
			}
			if i == len(setups) {
				return sim.Done, nil
			}
			i++
			setups[i-1](&o)
			busy = o.stage != stDone
		}
	})
	return errs
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
	f := s.Resolve(0, "/p/gpfs1/f")
	errs := script(e, 0,
		func(o *Op) { o.Open(f, true) },
		func(o *Op) { o.Write(f, 0, 4*KiB) },
		func(o *Op) { o.Read(f, 0, 4*KiB) },
		func(o *Op) { o.Close(f) },
		func(o *Op) {
			if sz, ok := fileSize(s, 0, "/p/gpfs1/f"); !ok || sz != 4*KiB {
				t.Errorf("FileSize = %d,%v want 4KiB,true", sz, ok)
			}
		},
	)
	e.Run()
	if errs[0] != nil {
		t.Errorf("Open: %v", errs[0])
	}
	if errs[1] != nil {
		t.Errorf("Write: %v", errs[1])
	}
	if errs[2] != nil {
		t.Errorf("Read: %v", errs[2])
	}
	if s.Stats[TargetPFS].DataOps != 2 || s.Stats[TargetPFS].MetaOps != 2 {
		t.Errorf("stats = %+v", s.Stats[TargetPFS])
	}
}

func TestOpenMissingWithoutCreateFails(t *testing.T) {
	e, s := newSys(t, testConfig(), 1)
	errs := script(e, 0, func(o *Op) { o.Open(s.Resolve(0, "/p/gpfs1/missing"), false) })
	e.Run()
	if errs[0] == nil {
		t.Error("open of missing file succeeded")
	}
}

func TestOpenTruncates(t *testing.T) {
	e, s := newSys(t, testConfig(), 1)
	f := s.Resolve(0, "/p/gpfs1/f")
	script(e, 0,
		func(o *Op) { o.Open(f, true) },
		func(o *Op) { o.Write(f, 0, MiB) },
		func(o *Op) { o.Open(s.Resolve(0, "/p/gpfs1/f"), true) }, // re-create truncates
		func(o *Op) {
			if sz, _ := fileSize(s, 0, "/p/gpfs1/f"); sz != 0 {
				t.Errorf("size after truncate = %d", sz)
			}
		},
	)
	e.Run()
}

func TestReadPastEOFFails(t *testing.T) {
	e, s := newSys(t, testConfig(), 1)
	f := s.Resolve(0, "/p/gpfs1/f")
	errs := script(e, 0,
		func(o *Op) { o.Open(f, true) },
		func(o *Op) { o.Write(f, 0, KiB) },
		func(o *Op) { o.Read(f, 512, KiB) },
	)
	e.Run()
	if errs[2] == nil {
		t.Error("read past EOF succeeded")
	}
}

func TestReadMissingFails(t *testing.T) {
	e, s := newSys(t, testConfig(), 1)
	errs := script(e, 0,
		func(o *Op) { o.Read(s.Resolve(0, "/p/gpfs1/nope"), 0, 1) },
		func(o *Op) { o.Write(s.Resolve(0, "/p/gpfs1/nope"), 0, 1) },
	)
	e.Run()
	if errs[0] == nil {
		t.Error("read of missing file succeeded")
	}
	if errs[1] == nil {
		t.Error("write of unopened file succeeded")
	}
}

func TestNegativeArgsFail(t *testing.T) {
	e, s := newSys(t, testConfig(), 1)
	f := s.Resolve(0, "/p/gpfs1/f")
	errs := script(e, 0,
		func(o *Op) { o.Open(f, true) },
		func(o *Op) { o.Write(f, -1, 10) },
		func(o *Op) { o.Write(f, 0, -10) },
	)
	e.Run()
	if errs[1] == nil {
		t.Error("negative offset accepted")
	}
	if errs[2] == nil {
		t.Error("negative size accepted")
	}
}

func TestNodeLocalNamespacesArePerNode(t *testing.T) {
	e, s := newSys(t, testConfig(), 2)
	f := s.Resolve(0, "/dev/shm/inter")
	script(e, 0,
		func(o *Op) { o.Open(f, true) },
		func(o *Op) { o.Write(f, 0, MiB) },
	)
	script(e, time.Second, func(o *Op) { // another node's reader
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
	f := s.Resolve(0, "/p/gpfs1/shared")
	script(e, 0,
		func(o *Op) { o.Open(f, true) },
		func(o *Op) { o.Write(f, 0, MiB) },
	)
	read := script(e, time.Second, func(o *Op) { o.Read(s.Resolve(1, "/p/gpfs1/shared"), 0, MiB) })
	e.Run()
	if err := read[0]; err != nil {
		t.Errorf("cross-node PFS read: %v", err)
	}
}

// TestResolvedFilesFollowTheNamespace: a node-local path opened on two
// nodes is two files, each with its own size and page-cache entry; a PFS
// path opened on two nodes is one file, whose state both handles share,
// cached per node.
func TestResolvedFilesFollowTheNamespace(t *testing.T) {
	cfg := testConfig()
	cfg.CacheEnabled = true
	e, s := newSys(t, cfg, 2)
	l0, l1 := s.Resolve(0, "/dev/shm/x"), s.Resolve(1, "/dev/shm/x")
	g0, g1 := s.Resolve(0, "/p/gpfs1/g"), s.Resolve(1, "/p/gpfs1/g")
	script(e, 0,
		func(o *Op) { o.Open(l0, true) },
		func(o *Op) { o.Open(l1, true) },
		func(o *Op) {
			if l0.st == l1.st {
				t.Error("/dev/shm/x on nodes 0 and 1 resolves to one file")
			}
			o.Write(l0, 0, MiB)
		},
		func(o *Op) {
			if sz, _ := l1.Size(); sz != 0 {
				t.Errorf("node 1's /dev/shm/x grew to %d with node 0's write", sz)
			}
			if l0.cache() == l1.cache() {
				t.Error("node-local files on two nodes share a page-cache entry")
			}
			o.Open(g0, true)
		},
		func(o *Op) { o.Write(g0, 0, MiB) },
		func(o *Op) { o.Open(g1, false) },
		func(o *Op) {
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
		},
	)
	e.Run()
}

func TestNodeLocalFasterThanPFSForSmallOps(t *testing.T) {
	cfg := testConfig()
	measure := func(path string) time.Duration {
		e, s := newSys(t, cfg, 1)
		f := s.Resolve(0, path)
		var t0, took time.Duration
		setups := []func(o *Op){
			func(o *Op) { o.Open(f, true) },
			func(o *Op) { t0 = e.Now() },
		}
		for i := int64(0); i < 100; i++ {
			setups = append(setups, func(o *Op) { o.Write(f, i*4*KiB, 4*KiB) })
		}
		setups = append(setups, func(o *Op) { took = e.Now() - t0 })
		script(e, 0, setups...)
		e.Run()
		return took
	}
	pfsTime, shmTime := measure("/p/gpfs1/f"), measure("/dev/shm/f")
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
	var t0, elapsed time.Duration
	f := s.Resolve(0, "/p/gpfs1/big")
	script(e, 0,
		func(o *Op) { o.Open(f, true) },
		func(o *Op) { t0 = e.Now(); o.Write(f, 0, 32*MiB) },
		func(o *Op) { elapsed = e.Now() - t0 },
	)
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
		f := s.Resolve(0, "/p/gpfs1/f"+string(rune('a'+i%26))+string(rune('a'+i/26)))
		setups := []func(o *Op){func(o *Op) { o.Open(f, true) }}
		for j := int64(0); j < 16; j++ {
			setups = append(setups, func(o *Op) { o.Write(f, j*16*MiB, 16*MiB) })
		}
		script(e, 0, setups...)
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
		f := s.Resolve(0, "/p/gpfs1/shared")
		script(e, 0,
			func(o *Op) { o.Open(f, true) },
			func(o *Op) { o.Close(f) },
		)
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
	var t0, elapsed time.Duration
	f := s.Resolve(0, "/p/gpfs1/f")
	script(e, 0,
		func(o *Op) { o.Open(f, true) },
		func(o *Op) { t0 = e.Now(); o.Write(f, 0, MiB) },
		func(o *Op) { elapsed = e.Now() - t0 },
	)
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
	var t0 time.Duration
	f := s.Resolve(0, "/p/gpfs1/f")
	script(e, 0,
		func(o *Op) { o.Open(f, true) },
		func(o *Op) { o.Write(f, 0, MiB) },
		func(o *Op) { t0 = e.Now(); o.Read(f, 0, MiB) },
		func(o *Op) {
			hitTime := e.Now() - t0
			direct := cfg.PFSDataLatency + bwTime(MiB, cfg.PFSServerBW)
			if hitTime >= direct {
				t.Errorf("cache-hit read took %v, want < %v", hitTime, direct)
			}
		},
	)
	e.Run()
	if s.Stats[TargetPFS].CacheHits < 2 {
		t.Errorf("CacheHits = %d, want >= 2", s.Stats[TargetPFS].CacheHits)
	}
}

func TestPageCacheMissOnOtherNode(t *testing.T) {
	cfg := testConfig()
	cfg.CacheEnabled = true
	e, s := newSys(t, cfg, 2)
	f := s.Resolve(0, "/p/gpfs1/f")
	script(e, 0,
		func(o *Op) { o.Open(f, true) },
		func(o *Op) { o.Write(f, 0, MiB) },
	)
	script(e, time.Second, func(o *Op) {
		o.Read(s.Resolve(1, "/p/gpfs1/f"), 0, MiB) // different node: must miss
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
	f := s.Resolve(0, "/p/gpfs1/f")
	setups := []func(o *Op){func(o *Op) { o.Open(f, true) }}
	// 4MiB of writes against a 2MiB cache: some must write through.
	for i := int64(0); i < 4; i++ {
		setups = append(setups, func(o *Op) { o.Write(f, i*MiB, MiB) })
	}
	script(e, 0, setups...)
	e.Run()
	if s.Stats[TargetPFS].CacheMisses == 0 {
		t.Error("cache overflow never wrote through")
	}
}

func TestSyncWaitsForDrain(t *testing.T) {
	cfg := testConfig()
	cfg.CacheEnabled = true
	e, s := newSys(t, cfg, 1)
	var beforeSync, syncEnd time.Duration
	f := s.Resolve(0, "/p/gpfs1/f")
	script(e, 0,
		func(o *Op) { o.Open(f, true) },
		func(o *Op) { o.Write(f, 0, 64*MiB) }, // absorbed, drains in background
		func(o *Op) { beforeSync = e.Now(); o.Sync(f) },
		func(o *Op) {
			syncEnd = e.Now()
			if syncEnd <= beforeSync {
				t.Error("sync with dirty data returned instantly")
			}
		},
	)
	e.Run()
}

func TestSeekIsNearFree(t *testing.T) {
	e, s := newSys(t, testConfig(), 1)
	f := s.Resolve(0, "/p/gpfs1/f")
	t0 := e.Now()
	var setups []func(o *Op)
	for i := 0; i < 100; i++ {
		setups = append(setups, func(o *Op) { o.Seek(f) })
	}
	setups = append(setups, func(o *Op) {
		if d := e.Now() - t0; d > time.Millisecond {
			t.Errorf("100 seeks took %v, want client-side cost", d)
		}
	})
	script(e, 0, setups...)
	e.Run()
}

func TestStatReportsSize(t *testing.T) {
	e, s := newSys(t, testConfig(), 1)
	f := s.Resolve(0, "/p/gpfs1/f")
	var sz int64
	errs := script(e, 0,
		func(o *Op) { o.Open(f, true) },
		func(o *Op) { o.Write(f, 0, 3*MiB) },
		func(o *Op) { o.Stat(s.Resolve(0, "/p/gpfs1/f")) },
		func(o *Op) { sz = o.Size(); o.Stat(s.Resolve(0, "/p/gpfs1/other")) },
	)
	e.Run()
	if err := errs[2]; err != nil || sz != 3*MiB {
		t.Errorf("Stat = %d,%v", sz, err)
	}
	if errs[3] == nil {
		t.Error("stat of missing file succeeded")
	}
}

func TestJitterKeepsDeterminism(t *testing.T) {
	run := func() time.Duration {
		cfg := Lassen() // jitter on
		e := sim.NewEngine()
		s := New(e, cfg, 1, sim.NewRNG(99))
		f := s.Resolve(0, "/p/gpfs1/f")
		setups := []func(o *Op){func(o *Op) { o.Open(f, true) }}
		for i := int64(0); i < 50; i++ {
			setups = append(setups, func(o *Op) { o.Write(f, i*MiB, MiB) })
		}
		script(e, 0, setups...)
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
		f := s.Resolve(0, "/p/gpfs1/f")
		setups := []func(o *Op){func(o *Op) { o.Open(f, true) }}
		for _, u := range offsets {
			off := int64(u) * 64
			setups = append(setups, func(o *Op) { o.Write(f, off, 64) })
			if off+64 > want {
				want = off + 64
			}
		}
		errs := script(e, 0, setups...)
		e.Run()
		ok := true
		for _, err := range errs {
			ok = ok && err == nil
		}
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
		f := s.Resolve(0, path)
		setups := []func(o *Op){func(o *Op) { o.Open(f, true) }}
		var off int64
		for _, sz := range sizes {
			n := int64(sz) + 1
			at := off
			setups = append(setups, func(o *Op) { o.Write(f, at, n) })
			off += n
			want += n
		}
		script(e, 0, setups...)
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
	errs := script(e, 0,
		func(o *Op) { o.Read(s.Resolve(1, "/p/gpfs1/input.fits"), 0, 22*MiB) },
		func(o *Op) {
			_, onOwn := fileSize(s, 1, "/dev/shm/local")
			_, onOther := fileSize(s, 0, "/dev/shm/local")
			if !onOwn || onOther {
				t.Error("node-local materialization wrong")
			}
		},
	)
	if e.Run() == 0 {
		t.Error("read of materialized file cost no time")
	}
	if errs[0] != nil {
		t.Errorf("read of materialized file: %v", errs[0])
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
	script(e, 0, func(o *Op) { o.Open(s.Resolve(0, "/p/gpfs1/step"), true) })
	f := s.Resolve(1, "/p/gpfs1/step")
	var hits int64
	script(e, time.Millisecond,
		func(o *Op) { o.Open(f, false) },
		func(o *Op) {
			// File now opened by two nodes: GPFS-like token management
			// disables client caching, so this write pays full PFS cost.
			hits = s.Stats[TargetPFS].CacheHits
			o.Write(f, 0, MiB)
		},
		func(o *Op) {
			if s.Stats[TargetPFS].CacheHits != hits {
				t.Error("write to cross-node shared file used the cache")
			}
		},
	)
	e.Run()
}

func TestCacheStillUsedForNodePrivateFiles(t *testing.T) {
	cfg := testConfig()
	cfg.CacheEnabled = true
	e, s := newSys(t, cfg, 2)
	f := s.Resolve(0, "/p/gpfs1/private")
	script(e, 0,
		func(o *Op) { o.Open(f, true) },
		func(o *Op) { o.Write(f, 0, MiB) },
		func(o *Op) {
			if s.Stats[TargetPFS].CacheHits == 0 {
				t.Error("node-private file bypassed the cache")
			}
		},
	)
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
	f := s.Resolve(0, "/var/opt/cray/dws/ckpt")
	wrote := script(e, 0,
		func(o *Op) { o.Open(f, true) },
		func(o *Op) { o.Write(f, 0, 64*MiB) },
		func(o *Op) { o.Close(f) },
	)
	// Shared namespace: another node sees the file (unlike /dev/shm).
	read := script(e, time.Second, func(o *Op) { o.Read(s.Resolve(3, "/var/opt/cray/dws/ckpt"), 0, 64*MiB) })
	e.Run()
	if wrote[0] != nil {
		t.Errorf("open: %v", wrote[0])
	}
	if wrote[1] != nil {
		t.Errorf("write: %v", wrote[1])
	}
	if read[0] != nil {
		t.Errorf("cross-node BB read: %v", read[0])
	}
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
		f := s.Resolve(0, path)
		setups := []func(o *Op){func(o *Op) { o.Open(f, true) }}
		for i := int64(0); i < 200; i++ {
			setups = append(setups, func(o *Op) { o.Write(f, i*64*KiB, 64*KiB) })
		}
		setups = append(setups, func(o *Op) { o.Close(f) })
		script(e, 0, setups...)
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
