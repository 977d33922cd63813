package iface

import (
	"time"

	"vani/internal/sim"
	"vani/internal/storage"
	"vani/internal/trace"
)

// blocking drives a Client from a coroutine process, the way these tests
// call it: each call sets an Op up and sleeps through every wake time it
// returns, parking while it returns sim.Parked.
type blocking struct{ *Client }

// bfile is a File the blocking client opened.
type bfile struct{ *File }

func newClient(sys *storage.System, tr *trace.Tracer, opt Options, app string, rank, node int) blocking {
	return blocking{NewClient(sys, tr, opt, app, rank, node)}
}

// run runs o to the end on p and returns its error.
func run(p *sim.Proc, o *Op) error {
	for {
		t, more := o.Step()
		switch {
		case !more:
			return o.Err()
		case t == sim.Parked:
			p.Park()
		default:
			p.SleepUntil(t)
		}
	}
}

// opened runs an open and returns its file, or its error.
func opened(p *sim.Proc, o *Op, f *File) (bfile, error) {
	if err := run(p, o); err != nil {
		return bfile{}, err
	}
	return bfile{f}, nil
}

func (c blocking) PosixOpen(p *sim.Proc, path string, create bool) (bfile, error) {
	var o Op
	f := new(File)
	c.Client.PosixOpen(&o, f, path, create)
	return opened(p, &o, f)
}

func (c blocking) StdioOpen(p *sim.Proc, path string, mode byte) (bfile, error) {
	var o Op
	f := new(File)
	c.Client.StdioOpen(&o, f, path, mode)
	return opened(p, &o, f)
}

func (c blocking) MPIOpen(p *sim.Proc, path string, create bool, commSize int) (bfile, error) {
	var o Op
	f := new(File)
	c.Client.MPIOpen(&o, f, path, create, commSize)
	return opened(p, &o, f)
}

func (c blocking) H5Open(p *sim.Proc, path string, create bool, commSize int) (bfile, error) {
	var o Op
	f := new(File)
	c.Client.H5Open(&o, f, path, create, commSize)
	return opened(p, &o, f)
}

func (c blocking) PosixStat(p *sim.Proc, path string) (int64, error) {
	var o Op
	c.Client.PosixStat(&o, path)
	err := run(p, &o)
	return o.StatSize(), err
}

func (c blocking) Compute(p *sim.Proc, d time.Duration) {
	var o Op
	c.Client.Compute(&o, d)
	run(p, &o)
}

func (c blocking) GPUCompute(p *sim.Proc, d time.Duration) {
	var o Op
	c.Client.GPUCompute(&o, d)
	run(p, &o)
}

func (c blocking) Barrier(p *sim.Proc, b *sim.Barrier) {
	var o Op
	c.Client.Barrier(&o, p, b)
	run(p, &o)
}

func (f bfile) Close(p *sim.Proc) error {
	var o Op
	f.File.Close(&o)
	return run(p, &o)
}

func (f bfile) Read(p *sim.Proc, size int64) error {
	var o Op
	f.File.Read(&o, size)
	return run(p, &o)
}

func (f bfile) Write(p *sim.Proc, size int64) error {
	var o Op
	f.File.Write(&o, size)
	return run(p, &o)
}

func (f bfile) ReadAt(p *sim.Proc, off, size int64) error {
	var o Op
	f.File.ReadAt(&o, off, size)
	return run(p, &o)
}

func (f bfile) WriteAt(p *sim.Proc, off, size int64) error {
	var o Op
	f.File.WriteAt(&o, off, size)
	return run(p, &o)
}

func (f bfile) DatasetRead(p *sim.Proc, off, size int64) error  { return f.ReadAt(p, off, size) }
func (f bfile) DatasetWrite(p *sim.Proc, off, size int64) error { return f.WriteAt(p, off, size) }

func (f bfile) Seek(p *sim.Proc, off int64) error {
	var o Op
	f.File.Seek(&o, off)
	return run(p, &o)
}

func (f bfile) Sync(p *sim.Proc) error {
	var o Op
	f.File.Sync(&o)
	return run(p, &o)
}
