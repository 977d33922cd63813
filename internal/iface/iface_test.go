package iface

import (
	"testing"
	"time"

	"vani/internal/sim"
	"vani/internal/storage"
	"vani/internal/trace"
)

func testSetup() (*sim.Engine, *storage.System, *trace.Tracer) {
	e := sim.NewEngine()
	cfg := storage.Lassen()
	cfg.JitterFrac = 0
	cfg.CacheEnabled = false
	sys := storage.New(e, cfg, 4, sim.NewRNG(1))
	return e, sys, trace.NewTracer()
}

// newClient is NewClient with the options given by value, as the tests
// build them.
func newClient(sys *storage.System, tr *trace.Tracer, opt Options, app string, rank, node int) *Client {
	return NewClient(sys, tr, &opt, app, rank, node)
}

// script spawns a step process that makes calls in turn: each set-up
// readies o for one call, which runs to its end — through every stage and
// wake-up — before the next set-up runs. script returns each call's error,
// filled in as the run reaches it.
func script(e *sim.Engine, setups ...func(o *Op)) []error {
	errs := make([]error, len(setups))
	var o Op
	i, busy := 0, false
	e.SpawnStep("script", func(p *sim.Proc) (time.Duration, error) {
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
			busy = true
		}
	})
	return errs
}

func countOps(tr *trace.Trace, lv trace.Level, op trace.Op) int {
	n := 0
	for _, ev := range tr.Events {
		if ev.Level == lv && ev.Op == op {
			n++
		}
	}
	return n
}

func TestPosixReadAtCursorPastEOFFails(t *testing.T) {
	e, sys, tr := testSetup()
	c := newClient(sys, tr, Defaults(), "app", 0, 0)
	var f File
	errs := script(e,
		func(o *Op) { c.PosixOpen(o, &f, "/p/gpfs1/f", true) },
		func(o *Op) { f.Write(o, 4096) },
		// Cursor is now at EOF; a cursor read must fail rather than fabricate data.
		func(o *Op) { f.Read(o, 4096) },
	)
	e.Run()
	if errs[0] != nil {
		t.Errorf("open: %v", errs[0])
	}
	if errs[2] == nil {
		t.Error("read at EOF succeeded")
	}
}

func TestPosixCursorSemantics(t *testing.T) {
	e, sys, tr := testSetup()
	c := newClient(sys, tr, Defaults(), "app", 0, 0)
	var f File
	errs := script(e,
		func(o *Op) { c.PosixOpen(o, &f, "/p/gpfs1/f", true) },
		func(o *Op) { f.Write(o, 1000) },
		func(o *Op) {
			if f.Offset() != 1000 {
				t.Errorf("offset after write = %d", f.Offset())
			}
			f.Seek(o, 0)
		},
		func(o *Op) { f.Read(o, 1000) },
		func(o *Op) {
			if f.Offset() != 1000 {
				t.Errorf("offset after read = %d", f.Offset())
			}
			f.Close(o)
		},
		func(o *Op) { f.Close(o) },
		func(o *Op) { f.Read(o, 1) },
	)
	e.Run()
	for i, call := range []string{"write", "seek", "read", "close"} {
		if err := errs[1+i]; err != nil {
			t.Errorf("%s: %v", call, err)
		}
	}
	if errs[5] == nil {
		t.Error("double close succeeded")
	}
	if errs[6] == nil {
		t.Error("read after close succeeded")
	}
	out := tr.Finish()
	if countOps(out, trace.LevelPosix, trace.OpWrite) != 1 ||
		countOps(out, trace.LevelPosix, trace.OpRead) != 1 ||
		countOps(out, trace.LevelPosix, trace.OpSeek) != 1 ||
		countOps(out, trace.LevelPosix, trace.OpOpen) != 1 ||
		countOps(out, trace.LevelPosix, trace.OpClose) != 1 {
		t.Errorf("unexpected posix event counts")
	}
}

func TestPosixEventTimesSpanOps(t *testing.T) {
	e, sys, tr := testSetup()
	c := newClient(sys, tr, Defaults(), "app", 0, 0)
	var f File
	script(e,
		func(o *Op) { c.PosixOpen(o, &f, "/p/gpfs1/f", true) },
		func(o *Op) { f.Write(o, 16*storage.MiB) },
	)
	e.Run()
	out := tr.Finish()
	for _, ev := range out.Events {
		if ev.End < ev.Start {
			t.Fatalf("event ends before it starts: %+v", ev)
		}
	}
	w := out.Events[len(out.Events)-1]
	if w.Op != trace.OpWrite || w.Duration() <= 0 {
		t.Errorf("write span wrong: %+v", w)
	}
}

func TestStdioBufferingAggregatesWrites(t *testing.T) {
	e, sys, tr := testSetup()
	opt := Defaults()
	opt.StdioBufSize = 64 * storage.KiB
	c := newClient(sys, tr, opt, "montage", 0, 0)
	var s File
	setups := []func(o *Op){func(o *Op) { c.StdioOpen(o, &s, "/p/gpfs1/out.tbl", 'w') }}
	// 64 writes of 4KB = 256KB total = 4 buffer flushes.
	for i := 0; i < 64; i++ {
		setups = append(setups, func(o *Op) { s.Write(o, 4*storage.KiB) })
	}
	setups = append(setups, func(o *Op) { s.Close(o) })
	errs := script(e, setups...)
	e.Run()
	if errs[0] != nil {
		t.Errorf("open: %v", errs[0])
	}
	for _, err := range errs[1:65] {
		if err != nil {
			t.Errorf("write: %v", err)
		}
	}
	out := tr.Finish()
	if n := countOps(out, trace.LevelMiddleware, trace.OpWrite); n != 64 {
		t.Errorf("middleware writes = %d, want 64", n)
	}
	if n := countOps(out, trace.LevelPosix, trace.OpWrite); n != 4 {
		t.Errorf("posix writes = %d, want 4 (buffered aggregation)", n)
	}
	// POSIX transfers are buffer-sized.
	for _, ev := range out.Events {
		if ev.Level == trace.LevelPosix && ev.Op == trace.OpWrite && ev.Size != 64*storage.KiB {
			t.Errorf("posix write size = %d, want 64KiB", ev.Size)
		}
	}
}

func TestStdioCloseFlushesPartialBuffer(t *testing.T) {
	e, sys, tr := testSetup()
	c := newClient(sys, tr, Defaults(), "app", 0, 0)
	var s File
	script(e,
		func(o *Op) { c.StdioOpen(o, &s, "/p/gpfs1/x", 'w') },
		func(o *Op) { s.Write(o, 1000) }, // less than one buffer
		func(o *Op) { s.Close(o) },
	)
	e.Run()
	if sz, _ := s.Size(); sz != 1000 {
		t.Errorf("file size = %d, want 1000 after flush-on-close", sz)
	}
}

func TestStdioReadBufferServesSmallReads(t *testing.T) {
	e, sys, tr := testSetup()
	c := newClient(sys, tr, Defaults(), "jag", 0, 0)
	var w, r File
	setups := []func(o *Op){
		func(o *Op) { c.StdioOpen(o, &w, "/p/gpfs1/data.npy", 'w') },
		func(o *Op) { w.Write(o, 256*storage.KiB) },
		func(o *Op) { w.Close(o) },
		func(o *Op) { c.StdioOpen(o, &r, "/p/gpfs1/data.npy", 'r') },
	}
	for i := 0; i < 64; i++ { // 64 x 4KB sequential reads
		setups = append(setups, func(o *Op) { r.Read(o, 4*storage.KiB) })
	}
	setups = append(setups, func(o *Op) { r.Close(o) })
	errs := script(e, setups...)
	e.Run()
	if errs[3] != nil {
		t.Errorf("open for read: %v", errs[3])
	}
	for i, err := range errs[4:68] {
		if err != nil {
			t.Errorf("read %d: %v", i, err)
		}
	}
	out := tr.Finish()
	if n := countOps(out, trace.LevelMiddleware, trace.OpRead); n != 64 {
		t.Errorf("middleware reads = %d, want 64", n)
	}
	if n := countOps(out, trace.LevelPosix, trace.OpRead); n != 4 {
		t.Errorf("posix reads = %d, want 4 (64KiB buffer fills)", n)
	}
}

func TestStdioReadPastEOFFails(t *testing.T) {
	e, sys, tr := testSetup()
	c := newClient(sys, tr, Defaults(), "app", 0, 0)
	var w, r File
	errs := script(e,
		func(o *Op) { c.StdioOpen(o, &w, "/p/gpfs1/small", 'w') },
		func(o *Op) { w.Write(o, 100) },
		func(o *Op) { w.Close(o) },
		func(o *Op) { c.StdioOpen(o, &r, "/p/gpfs1/small", 'r') },
		func(o *Op) { r.Read(o, 200) },
	)
	e.Run()
	if errs[4] == nil {
		t.Error("read past EOF succeeded")
	}
}

func TestStdioModeEnforcement(t *testing.T) {
	e, sys, tr := testSetup()
	c := newClient(sys, tr, Defaults(), "app", 0, 0)
	var w, r, x File
	errs := script(e,
		func(o *Op) { c.StdioOpen(o, &w, "/p/gpfs1/f", 'w') },
		func(o *Op) { w.Read(o, 1) },
		func(o *Op) { w.Write(o, 10) },
		func(o *Op) { w.Close(o) },
		func(o *Op) { c.StdioOpen(o, &r, "/p/gpfs1/f", 'r') },
		func(o *Op) { r.Write(o, 1) },
		func(o *Op) { c.StdioOpen(o, &x, "/p/gpfs1/f", 'x') },
	)
	e.Run()
	if errs[1] == nil {
		t.Error("read from write stream succeeded")
	}
	if errs[5] == nil {
		t.Error("write to read stream succeeded")
	}
	if errs[6] == nil {
		t.Error("bogus mode accepted")
	}
}

func TestStdioSeekBreaksBuffering(t *testing.T) {
	e, sys, tr := testSetup()
	c := newClient(sys, tr, Defaults(), "jag", 0, 0)
	var w, r File
	setups := []func(o *Op){
		func(o *Op) { c.StdioOpen(o, &w, "/p/gpfs1/samples", 'w') },
		func(o *Op) { w.Write(o, storage.MiB) },
		func(o *Op) { w.Close(o) },
		func(o *Op) { c.StdioOpen(o, &r, "/p/gpfs1/samples", 'r') },
	}
	// Strided backwards access defeats the read buffer: each seek+read
	// pays a POSIX read.
	offs := []int64{900000, 100, 500000, 200000, 700000}
	for _, off := range offs {
		setups = append(setups,
			func(o *Op) { r.Seek(o, off) },
			func(o *Op) { r.Read(o, 2*storage.KiB) },
		)
	}
	setups = append(setups, func(o *Op) { r.Close(o) })
	errs := script(e, setups...)
	e.Run()
	for i := range offs {
		if err := errs[4+2*i]; err != nil {
			t.Errorf("seek: %v", err)
		}
		if err := errs[5+2*i]; err != nil {
			t.Errorf("read: %v", err)
		}
	}
	out := tr.Finish()
	if n := countOps(out, trace.LevelPosix, trace.OpRead); n != len([]int64{900000, 100, 500000, 200000, 700000}) {
		t.Errorf("posix reads = %d, want one per strided access", n)
	}
	if n := countOps(out, trace.LevelPosix, trace.OpSeek); n == 0 {
		t.Error("seeks not traced at posix level")
	}
}

func TestMPIIOChargesSyncMetadata(t *testing.T) {
	e, sys, tr := testSetup()
	opt := Defaults()
	c := newClient(sys, tr, opt, "cosmoflow", 0, 0)
	var m File
	errs := script(e,
		func(o *Op) { c.MPIOpen(o, &m, "/p/gpfs1/s.h5", true, 128) },
		func(o *Op) { m.WriteAt(o, 0, storage.MiB) },
		func(o *Op) { m.ReadAt(o, 0, storage.MiB) },
		func(o *Op) { m.Close(o) },
	)
	e.Run()
	if errs[0] != nil {
		t.Errorf("open: %v", errs[0])
	}
	out := tr.Finish()
	// Open and close each charge base(2)+log2(128)=9 stats; data ops 1 each.
	wantStats := 2*(2+7) + 2
	if n := countOps(out, trace.LevelMiddleware, trace.OpStat); n != wantStats {
		t.Errorf("middleware sync stats = %d, want %d", n, wantStats)
	}
}

func TestMPIIOCommScalingOff(t *testing.T) {
	e, sys, tr := testSetup()
	opt := Defaults()
	opt.MPIIOCommScaling = false
	c := newClient(sys, tr, opt, "app", 0, 0)
	var m File
	script(e,
		func(o *Op) { c.MPIOpen(o, &m, "/p/gpfs1/f", true, 1024) },
		func(o *Op) { m.Close(o) },
	)
	e.Run()
	out := tr.Finish()
	if n := countOps(out, trace.LevelMiddleware, trace.OpStat); n != 2*2 {
		t.Errorf("sync stats = %d, want 4 without comm scaling", n)
	}
}

func TestMPIOpenRejectsBadComm(t *testing.T) {
	e, sys, tr := testSetup()
	c := newClient(sys, tr, Defaults(), "app", 0, 0)
	var m File
	errs := script(e, func(o *Op) { c.MPIOpen(o, &m, "/p/gpfs1/f", true, 0) })
	e.Run()
	if errs[0] == nil {
		t.Error("comm size 0 accepted")
	}
}

func TestHDF5UnchunkedMetadataAmplification(t *testing.T) {
	e, sys, tr := testSetup()
	opt := Defaults() // unchunked, 4 meta per access
	c := newClient(sys, tr, opt, "cosmoflow", 0, 0)
	var h File
	setups := []func(o *Op){
		func(o *Op) { c.H5Open(o, &h, "/p/gpfs1/u.h5", true, 4) },
		func(o *Op) { h.WriteAt(o, 0, 32*storage.MiB) },
	}
	for i := int64(0); i < 8; i++ {
		setups = append(setups, func(o *Op) { h.ReadAt(o, i*4*storage.MiB, 4*storage.MiB) })
	}
	setups = append(setups, func(o *Op) { h.Close(o) })
	errs := script(e, setups...)
	e.Run()
	if errs[0] != nil {
		t.Errorf("h5 open: %v", errs[0])
	}
	for _, err := range errs[2:10] {
		if err != nil {
			t.Errorf("dataset read: %v", err)
		}
	}
	out := tr.Finish()
	if n := countOps(out, trace.LevelApp, trace.OpStat); n != 9*4 {
		t.Errorf("app-level dataset meta = %d, want 36 (4 per access)", n)
	}
	if n := countOps(out, trace.LevelApp, trace.OpRead); n != 8 {
		t.Errorf("app-level reads = %d, want 8", n)
	}
}

func TestHDF5ChunkedReducesMetadata(t *testing.T) {
	count := func(chunked bool) int {
		e, sys, tr := testSetup()
		opt := Defaults()
		opt.HDF5Chunked = chunked
		c := newClient(sys, tr, opt, "app", 0, 0)
		var h File
		setups := []func(o *Op){func(o *Op) { c.H5Open(o, &h, "/p/gpfs1/f.h5", true, 4) }}
		for i := int64(0); i < 10; i++ {
			setups = append(setups, func(o *Op) { h.ReadAt(o, 0, storage.KiB) })
		}
		setups = append(setups, func(o *Op) { h.Close(o) })
		script(e, setups...)
		e.Run()
		return countOps(tr.Finish(), trace.LevelApp, trace.OpStat)
	}
	if c, u := count(true), count(false); c >= u {
		t.Errorf("chunked meta (%d) not less than unchunked (%d)", c, u)
	}
}

func TestHDF5OpenReadsSuperblock(t *testing.T) {
	e, sys, tr := testSetup()
	c := newClient(sys, tr, Defaults(), "app", 0, 0)
	var h, h2 File
	errs := script(e,
		func(o *Op) { c.H5Open(o, &h, "/p/gpfs1/f.h5", true, 4) },
		func(o *Op) { h.WriteAt(o, 0, storage.MiB) },
		func(o *Op) { h.Close(o) },
		func(o *Op) { c.H5Open(o, &h2, "/p/gpfs1/f.h5", false, 4) },
		func(o *Op) { h2.Close(o) },
	)
	e.Run()
	if errs[3] != nil {
		t.Errorf("reopen: %v", errs[3])
	}
	out := tr.Finish()
	found := false
	for _, ev := range out.Events {
		if ev.Level == trace.LevelPosix && ev.Op == trace.OpRead && ev.Size == Defaults().HDF5SuperblockSize {
			found = true
		}
	}
	if !found {
		t.Error("no superblock-sized posix read on reopen")
	}
}

func TestComputeAndGPUSpans(t *testing.T) {
	e, sys, tr := testSetup()
	c := newClient(sys, tr, Defaults(), "app", 3, 1)
	script(e,
		func(o *Op) { c.Compute(o, 2*time.Second) },
		func(o *Op) { c.GPUCompute(o, 3*time.Second) },
	)
	end := e.Run()
	if end != 5*time.Second {
		t.Errorf("end = %v, want 5s", end)
	}
	out := tr.Finish()
	if countOps(out, trace.LevelCompute, trace.OpCompute) != 1 ||
		countOps(out, trace.LevelCompute, trace.OpGPUCompute) != 1 {
		t.Error("compute spans not traced")
	}
	for _, ev := range out.Events {
		if ev.Rank != 3 || ev.Node != 1 {
			t.Errorf("event rank/node = %d/%d, want 3/1", ev.Rank, ev.Node)
		}
		if ev.File != -1 {
			t.Errorf("compute event has file %d", ev.File)
		}
	}
}

func TestBarrierTraced(t *testing.T) {
	e, sys, tr := testSetup()
	b := sim.NewBarrier(e, 2)
	for r := 0; r < 2; r++ {
		c := newClient(sys, tr, Defaults(), "app", r, 0)
		var o Op
		arrived := false
		// The barrier call needs the process it parks, so the rank is a
		// step of its own; it arrives r seconds in.
		e.SpawnStepAt(time.Duration(r)*time.Second, "rank", func(p *sim.Proc) (time.Duration, error) {
			if !arrived {
				arrived = true
				c.Barrier(&o, p, b)
			}
			if t, more := o.Step(); more {
				return t, nil
			}
			return sim.Done, o.Err()
		})
	}
	e.Run()
	out := tr.Finish()
	if n := countOps(out, trace.LevelCompute, trace.OpBarrier); n != 2 {
		t.Errorf("barrier events = %d, want 2", n)
	}
}

func TestTracerOverheadChargedToRuntime(t *testing.T) {
	run := func(overhead time.Duration) time.Duration {
		e, sys, tr := testSetup()
		tr.SetOverhead(overhead)
		c := newClient(sys, tr, Defaults(), "app", 0, 0)
		var f File
		setups := []func(o *Op){func(o *Op) { c.PosixOpen(o, &f, "/p/gpfs1/f", true) }}
		for i := 0; i < 100; i++ {
			setups = append(setups, func(o *Op) { f.Write(o, 4*storage.KiB) })
		}
		setups = append(setups, func(o *Op) { f.Close(o) })
		script(e, setups...)
		return e.Run()
	}
	if base, traced := run(0), run(100*time.Microsecond); traced <= base {
		t.Errorf("tracing overhead not charged: %v vs %v", traced, base)
	}
}

func TestDescribeFile(t *testing.T) {
	_, sys, tr := testSetup()
	c := newClient(sys, tr, Defaults(), "app", 0, 0)
	c.DescribeFile("/p/gpfs1/d.h5", "hdf5", 3, "int")
	out := tr.Finish()
	f := out.Files[0]
	if f.Format != "hdf5" || f.NDims != 3 || f.DataType != "int" || f.Target != "gpfs" {
		t.Errorf("file info = %+v", f)
	}
}

func TestCompressionShrinksStoredBytes(t *testing.T) {
	e, sys, tr := testSetup()
	opt := Defaults()
	opt.CompressionEnabled = true
	opt.CompressionRatio = 0.5
	c := newClient(sys, tr, opt, "app", 0, 0)
	var f File
	setups := []func(o *Op){func(o *Op) { c.PosixOpen(o, &f, "/p/gpfs1/ckpt", true) }}
	for i := int64(0); i < 4; i++ {
		setups = append(setups, func(o *Op) { f.WriteAt(o, i*storage.MiB, storage.MiB) })
	}
	setups = append(setups,
		func(o *Op) { f.ReadAt(o, 0, storage.MiB) },
		func(o *Op) { f.Close(o) },
	)
	errs := script(e, setups...)
	e.Run()
	for _, err := range errs[1:5] {
		if err != nil {
			t.Errorf("write: %v", err)
		}
	}
	if errs[5] != nil {
		t.Errorf("read back: %v", errs[5])
	}
	// The PFS stored half the logical bytes.
	if got := sys.Stats[storage.TargetPFS].BytesWritten; got != 2*storage.MiB {
		t.Errorf("stored %d bytes, want 2MiB (ratio 0.5)", got)
	}
	// The trace keeps the application's logical sizes.
	out := tr.Finish()
	for _, ev := range out.Events {
		if ev.Op == trace.OpWrite && ev.Size != storage.MiB {
			t.Errorf("traced write size %d, want logical 1MiB", ev.Size)
		}
	}
}

func TestCompressionChargesCPU(t *testing.T) {
	elapsed := func(enabled bool) time.Duration {
		e, sys, tr := testSetup()
		opt := Defaults()
		opt.CompressionEnabled = enabled
		opt.CompressionCPUBW = 256 * storage.MiB // slow compressor
		c := newClient(sys, tr, opt, "app", 0, 0)
		var f File
		script(e,
			func(o *Op) { c.PosixOpen(o, &f, "/dev/shm/x", true) }, // fast target isolates CPU
			func(o *Op) { f.Write(o, 64*storage.MiB) },
			func(o *Op) { f.Close(o) },
		)
		return e.Run()
	}
	on, off := elapsed(true), elapsed(false)
	if on <= off {
		t.Errorf("compression CPU not charged: on=%v off=%v", on, off)
	}
}

func TestCompressionDisabledIsIdentity(t *testing.T) {
	e, sys, tr := testSetup()
	c := newClient(sys, tr, Defaults(), "app", 0, 0)
	var f File
	script(e,
		func(o *Op) { c.PosixOpen(o, &f, "/p/gpfs1/f", true) },
		func(o *Op) { f.Write(o, storage.MiB) },
		func(o *Op) { f.Close(o) },
	)
	e.Run()
	if got := sys.Stats[storage.TargetPFS].BytesWritten; got != storage.MiB {
		t.Errorf("stored %d, want full 1MiB", got)
	}
}

// TestCallsALayerLacksFail: a call the file's layer does not offer — a
// sync on a stream, a seek on an MPI-IO handle, a positioned read on a
// stream — is an error naming both, and leaves the file usable.
func TestCallsALayerLacksFail(t *testing.T) {
	e, sys, tr := testSetup()
	c := newClient(sys, tr, Defaults(), "app", 0, 0)
	var s, m File
	errs := script(e,
		func(o *Op) { c.StdioOpen(o, &s, "/p/gpfs1/s", 'w') },
		func(o *Op) { c.MPIOpen(o, &m, "/p/gpfs1/m", true, 4) },
		func(o *Op) { s.Sync(o) },
		func(o *Op) { s.ReadAt(o, 0, 1) },
		func(o *Op) { m.Seek(o, 0) },
		func(o *Op) { m.Write(o, 1) },
		func(o *Op) { s.Close(o) },
		func(o *Op) { m.Close(o) },
	)
	e.Run()
	for i, want := range []string{
		"iface: sync on stdio file",
		"iface: positioned read on stdio file",
		"iface: seek on mpiio file",
		"iface: write on mpiio file",
	} {
		if err := errs[2+i]; err == nil || err.Error() != want {
			t.Errorf("error %v, want %q", err, want)
		}
	}
	if errs[6] != nil {
		t.Errorf("stream close after refused calls: %v", errs[6])
	}
	if errs[7] != nil {
		t.Errorf("MPI-IO close after refused calls: %v", errs[7])
	}
}
