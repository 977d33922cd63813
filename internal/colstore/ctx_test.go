package colstore

import (
	"bytes"
	"context"
	"errors"
	"io"
	"testing"
	"time"

	"vani/internal/trace"
)

// cancelAfterReads is a ReaderAt that cancels a context after a set number
// of reads past arming — a deterministic way to pull the plug mid-scan.
type cancelAfterReads struct {
	r      io.ReaderAt
	armed  bool
	left   int
	cancel context.CancelFunc
}

func (c *cancelAfterReads) ReadAt(p []byte, off int64) (int, error) {
	if c.armed {
		if c.left <= 0 {
			c.cancel()
		}
		c.left--
	}
	return c.r.ReadAt(p, off)
}

// slowReaderAt delays every read — a stand-in for cold storage, so a short
// deadline reliably expires while blocks are still being decoded.
type slowReaderAt struct {
	r     io.ReaderAt
	delay time.Duration
}

func (s *slowReaderAt) ReadAt(p []byte, off int64) (int, error) {
	time.Sleep(s.delay)
	return s.r.ReadAt(p, off)
}

// encodeBlocks renders tr as an uncompressed default-geometry VANITRC2 log.
func encodeBlocks(t *testing.T, tr *trace.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteV2With(&buf, tr, trace.V2Options{}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFromBlocksSpecCanceledMidScan cancels the context from inside the
// reader after two post-construction block reads: the serial scan must stop
// with context.Canceled having decoded only a prefix of the log.
func TestFromBlocksSpecCanceledMidScan(t *testing.T) {
	const nblocks = 5
	data := encodeBlocks(t, bigTrace(nblocks*ChunkRows, 7))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cr := &cancelAfterReads{r: bytes.NewReader(data), left: 2, cancel: cancel}
	br, err := trace.NewBlockReader(trace.ReaderAtContext(ctx, cr), int64(len(data)))
	if err != nil {
		t.Fatalf("NewBlockReader: %v", err)
	}
	cr.armed = true // header+footer reads done; count block reads from here

	stats := &ScanStats{}
	_, err = FromBlocksSpecContext(ctx, br, 1, ScanSpec{}, stats)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("FromBlocksSpecContext: err = %v, want context.Canceled", err)
	}
	if got := stats.RowsTotal.Load(); got >= nblocks*ChunkRows {
		t.Errorf("scan ran to completion (%d rows) despite cancellation", got)
	}
}

// TestFromBlocksSpecDeadlineMidScan reads through a slow device with a
// deadline far shorter than the full decode: the scan must abort with
// DeadlineExceeded, not run the log to completion.
func TestFromBlocksSpecDeadlineMidScan(t *testing.T) {
	const nblocks = 10
	data := encodeBlocks(t, bigTrace(nblocks*ChunkRows, 11))
	slow := &slowReaderAt{r: bytes.NewReader(data), delay: 3 * time.Millisecond}
	// Construct before starting the clock — header and footer reads pay the
	// device delay too. The scan's own per-block checks must then notice
	// the deadline: with 10 blocks at 3ms each against a 5ms budget, the
	// full decode can never finish in time.
	br, err := trace.NewBlockReader(slow, int64(len(data)))
	if err != nil {
		t.Fatalf("NewBlockReader: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()

	stats := &ScanStats{}
	_, err = FromBlocksSpecContext(ctx, br, 1, ScanSpec{}, stats)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("FromBlocksSpecContext: err = %v, want context.DeadlineExceeded", err)
	}
	if got := stats.RowsTotal.Load(); got >= nblocks*ChunkRows {
		t.Errorf("scan ran to completion (%d rows) despite %s deadline", got, 5*time.Millisecond)
	}
}

// TestFromBlocksSpecContextBackground: a background context never cancels,
// so the scan runs to the events in memory.
func TestFromBlocksSpecContextBackground(t *testing.T) {
	tr := bigTrace(ChunkRows+99, 3)
	data := encodeBlocks(t, tr)
	br, err := trace.NewBlockReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	got, err := FromBlocksSpecContext(context.Background(), br, 2, ScanSpec{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertEvents(t, tr.Events, got)
}

// TestMaterializeContextCanceled: MaterializeContext, which decodes nothing
// since every chunk already holds every column, reports a canceled
// context.
func TestMaterializeContextCanceled(t *testing.T) {
	tr := bigTrace(2*ChunkRows, 5)
	data := encodeBlocks(t, tr)
	br, err := trace.NewBlockReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	f := trace.Filter{Ops: trace.OpClassData}
	tb, err := FromBlocksSpecContext(context.Background(), br, 1, ScanSpec{Filter: f}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := tb.MaterializeContext(ctx, 1, trace.AllCols); !errors.Is(err, context.Canceled) {
		t.Fatalf("MaterializeContext: err = %v, want context.Canceled", err)
	}
}
