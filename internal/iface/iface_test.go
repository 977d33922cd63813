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
	e.Spawn("p", func(p *sim.Proc) {
		f, err := c.PosixOpen(p, "/p/gpfs1/f", true)
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		f.Write(p, 4096)
		// Cursor is now at EOF; a cursor read must fail rather than fabricate data.
		if err := f.Read(p, 4096); err == nil {
			t.Error("read at EOF succeeded")
		}
	})
	e.Run()
	_ = tr
}

func TestPosixCursorSemantics(t *testing.T) {
	e, sys, tr := testSetup()
	c := newClient(sys, tr, Defaults(), "app", 0, 0)
	e.Spawn("p", func(p *sim.Proc) {
		f, _ := c.PosixOpen(p, "/p/gpfs1/f", true)
		if err := f.Write(p, 1000); err != nil {
			t.Errorf("write: %v", err)
		}
		if f.Offset() != 1000 {
			t.Errorf("offset after write = %d", f.Offset())
		}
		if err := f.Seek(p, 0); err != nil {
			t.Errorf("seek: %v", err)
		}
		if err := f.Read(p, 1000); err != nil {
			t.Errorf("read: %v", err)
		}
		if f.Offset() != 1000 {
			t.Errorf("offset after read = %d", f.Offset())
		}
		if err := f.Close(p); err != nil {
			t.Errorf("close: %v", err)
		}
		if err := f.Close(p); err == nil {
			t.Error("double close succeeded")
		}
		if err := f.Read(p, 1); err == nil {
			t.Error("read after close succeeded")
		}
	})
	e.Run()
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
	e.Spawn("p", func(p *sim.Proc) {
		f, _ := c.PosixOpen(p, "/p/gpfs1/f", true)
		f.Write(p, 16*storage.MiB)
	})
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
	e.Spawn("p", func(p *sim.Proc) {
		s, err := c.StdioOpen(p, "/p/gpfs1/out.tbl", 'w')
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		// 64 writes of 4KB = 256KB total = 4 buffer flushes.
		for i := 0; i < 64; i++ {
			if err := s.Write(p, 4*storage.KiB); err != nil {
				t.Errorf("write: %v", err)
			}
		}
		s.Close(p)
	})
	e.Run()
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
	e.Spawn("p", func(p *sim.Proc) {
		s, _ := c.StdioOpen(p, "/p/gpfs1/x", 'w')
		s.Write(p, 1000) // less than one buffer
		s.Close(p)
		if sz, _ := s.Size(); sz != 1000 {
			t.Errorf("file size = %d, want 1000 after flush-on-close", sz)
		}
	})
	e.Run()
}

func TestStdioReadBufferServesSmallReads(t *testing.T) {
	e, sys, tr := testSetup()
	c := newClient(sys, tr, Defaults(), "jag", 0, 0)
	e.Spawn("p", func(p *sim.Proc) {
		w, _ := c.StdioOpen(p, "/p/gpfs1/data.npy", 'w')
		w.Write(p, 256*storage.KiB)
		w.Close(p)
		r, err := c.StdioOpen(p, "/p/gpfs1/data.npy", 'r')
		if err != nil {
			t.Errorf("open for read: %v", err)
			return
		}
		for i := 0; i < 64; i++ { // 64 x 4KB sequential reads
			if err := r.Read(p, 4*storage.KiB); err != nil {
				t.Errorf("read %d: %v", i, err)
			}
		}
		r.Close(p)
	})
	e.Run()
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
	e.Spawn("p", func(p *sim.Proc) {
		w, _ := c.StdioOpen(p, "/p/gpfs1/small", 'w')
		w.Write(p, 100)
		w.Close(p)
		r, _ := c.StdioOpen(p, "/p/gpfs1/small", 'r')
		if err := r.Read(p, 200); err == nil {
			t.Error("read past EOF succeeded")
		}
	})
	e.Run()
}

func TestStdioModeEnforcement(t *testing.T) {
	e, sys, tr := testSetup()
	c := newClient(sys, tr, Defaults(), "app", 0, 0)
	e.Spawn("p", func(p *sim.Proc) {
		w, _ := c.StdioOpen(p, "/p/gpfs1/f", 'w')
		if err := w.Read(p, 1); err == nil {
			t.Error("read from write stream succeeded")
		}
		w.Write(p, 10)
		w.Close(p)
		r, _ := c.StdioOpen(p, "/p/gpfs1/f", 'r')
		if err := r.Write(p, 1); err == nil {
			t.Error("write to read stream succeeded")
		}
		if _, err := c.StdioOpen(p, "/p/gpfs1/f", 'x'); err == nil {
			t.Error("bogus mode accepted")
		}
	})
	e.Run()
}

func TestStdioSeekBreaksBuffering(t *testing.T) {
	e, sys, tr := testSetup()
	c := newClient(sys, tr, Defaults(), "jag", 0, 0)
	e.Spawn("p", func(p *sim.Proc) {
		w, _ := c.StdioOpen(p, "/p/gpfs1/samples", 'w')
		w.Write(p, storage.MiB)
		w.Close(p)
		r, _ := c.StdioOpen(p, "/p/gpfs1/samples", 'r')
		// Strided backwards access defeats the read buffer: each seek+read
		// pays a POSIX read.
		offs := []int64{900000, 100, 500000, 200000, 700000}
		for _, o := range offs {
			if err := r.Seek(p, o); err != nil {
				t.Errorf("seek: %v", err)
			}
			if err := r.Read(p, 2*storage.KiB); err != nil {
				t.Errorf("read: %v", err)
			}
		}
		r.Close(p)
	})
	e.Run()
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
	e.Spawn("p", func(p *sim.Proc) {
		m, err := c.MPIOpen(p, "/p/gpfs1/s.h5", true, 128)
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		m.WriteAt(p, 0, storage.MiB)
		m.ReadAt(p, 0, storage.MiB)
		m.Close(p)
	})
	e.Run()
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
	e.Spawn("p", func(p *sim.Proc) {
		m, _ := c.MPIOpen(p, "/p/gpfs1/f", true, 1024)
		m.Close(p)
	})
	e.Run()
	out := tr.Finish()
	if n := countOps(out, trace.LevelMiddleware, trace.OpStat); n != 2*2 {
		t.Errorf("sync stats = %d, want 4 without comm scaling", n)
	}
}

func TestMPIOpenRejectsBadComm(t *testing.T) {
	e, sys, tr := testSetup()
	c := newClient(sys, tr, Defaults(), "app", 0, 0)
	e.Spawn("p", func(p *sim.Proc) {
		if _, err := c.MPIOpen(p, "/p/gpfs1/f", true, 0); err == nil {
			t.Error("comm size 0 accepted")
		}
	})
	e.Run()
}

func TestHDF5UnchunkedMetadataAmplification(t *testing.T) {
	e, sys, tr := testSetup()
	opt := Defaults() // unchunked, 4 meta per access
	c := newClient(sys, tr, opt, "cosmoflow", 0, 0)
	e.Spawn("p", func(p *sim.Proc) {
		h, err := c.H5Open(p, "/p/gpfs1/u.h5", true, 4)
		if err != nil {
			t.Errorf("h5 open: %v", err)
			return
		}
		h.DatasetWrite(p, 0, 32*storage.MiB)
		for i := int64(0); i < 8; i++ {
			if err := h.DatasetRead(p, i*4*storage.MiB, 4*storage.MiB); err != nil {
				t.Errorf("dataset read: %v", err)
			}
		}
		h.Close(p)
	})
	e.Run()
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
		e.Spawn("p", func(p *sim.Proc) {
			h, _ := c.H5Open(p, "/p/gpfs1/f.h5", true, 4)
			for i := int64(0); i < 10; i++ {
				h.DatasetRead(p, 0, storage.KiB)
			}
			h.Close(p)
		})
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
	e.Spawn("p", func(p *sim.Proc) {
		h, _ := c.H5Open(p, "/p/gpfs1/f.h5", true, 4)
		h.DatasetWrite(p, 0, storage.MiB)
		h.Close(p)
		h2, err := c.H5Open(p, "/p/gpfs1/f.h5", false, 4)
		if err != nil {
			t.Errorf("reopen: %v", err)
			return
		}
		h2.Close(p)
	})
	e.Run()
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
	e.Spawn("p", func(p *sim.Proc) {
		c.Compute(p, 2*time.Second)
		c.GPUCompute(p, 3*time.Second)
	})
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
		r := r
		e.Spawn("rank", func(p *sim.Proc) {
			p.Sleep(time.Duration(r) * time.Second)
			c.Barrier(p, b)
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
		e.Spawn("p", func(p *sim.Proc) {
			f, _ := c.PosixOpen(p, "/p/gpfs1/f", true)
			for i := 0; i < 100; i++ {
				f.Write(p, 4*storage.KiB)
			}
			f.Close(p)
		})
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
	e.Spawn("p", func(p *sim.Proc) {
		f, _ := c.PosixOpen(p, "/p/gpfs1/ckpt", true)
		for i := int64(0); i < 4; i++ {
			if err := f.WriteAt(p, i*storage.MiB, storage.MiB); err != nil {
				t.Errorf("write: %v", err)
			}
		}
		if err := f.ReadAt(p, 0, storage.MiB); err != nil {
			t.Errorf("read back: %v", err)
		}
		f.Close(p)
	})
	e.Run()
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
		e.Spawn("p", func(p *sim.Proc) {
			f, _ := c.PosixOpen(p, "/dev/shm/x", true) // fast target isolates CPU
			f.Write(p, 64*storage.MiB)
			f.Close(p)
		})
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
	e.Spawn("p", func(p *sim.Proc) {
		f, _ := c.PosixOpen(p, "/p/gpfs1/f", true)
		f.Write(p, storage.MiB)
		f.Close(p)
	})
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
	e.Spawn("p", func(p *sim.Proc) {
		s, _ := c.StdioOpen(p, "/p/gpfs1/s", 'w')
		m, _ := c.MPIOpen(p, "/p/gpfs1/m", true, 4)
		for _, call := range []struct {
			err  error
			want string
		}{
			{s.Sync(p), "iface: sync on stdio file"},
			{s.ReadAt(p, 0, 1), "iface: positioned read on stdio file"},
			{m.Seek(p, 0), "iface: seek on mpiio file"},
			{m.Write(p, 1), "iface: write on mpiio file"},
		} {
			if call.err == nil || call.err.Error() != call.want {
				t.Errorf("error %v, want %q", call.err, call.want)
			}
		}
		if err := s.Close(p); err != nil {
			t.Errorf("stream close after refused calls: %v", err)
		}
		if err := m.Close(p); err != nil {
			t.Errorf("MPI-IO close after refused calls: %v", err)
		}
	})
	e.Run()
}
