package trace

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

func TestOpClassification(t *testing.T) {
	data := []Op{OpRead, OpWrite}
	meta := []Op{OpOpen, OpClose, OpSeek, OpStat, OpSync, OpMkdir, OpReaddir}
	other := []Op{OpCompute, OpGPUCompute, OpBarrier}
	for _, op := range data {
		if !op.IsData() || op.IsMeta() || !op.IsIO() {
			t.Errorf("%v misclassified", op)
		}
	}
	for _, op := range meta {
		if op.IsData() || !op.IsMeta() || !op.IsIO() {
			t.Errorf("%v misclassified", op)
		}
	}
	for _, op := range other {
		if op.IsData() || op.IsMeta() || op.IsIO() {
			t.Errorf("%v misclassified", op)
		}
	}
}

func TestOpAndLevelStrings(t *testing.T) {
	if OpRead.String() != "read" || OpGPUCompute.String() != "gpu_compute" {
		t.Error("op names wrong")
	}
	if Op(200).String() != "unknown" {
		t.Error("out-of-range op should be unknown")
	}
	if LevelPosix.String() != "posix" || Level(99).String() != "unknown" {
		t.Error("level names wrong")
	}
}

func TestTracerInterning(t *testing.T) {
	tr := NewTracer()
	a1 := tr.AppID("cm1")
	a2 := tr.AppID("mViewer")
	if a1 == a2 {
		t.Error("distinct apps interned to the same id")
	}
	if tr.AppID("cm1") != a1 {
		t.Error("re-interning returned a new id")
	}
	f1 := tr.FileID("/p/gpfs1/out.bin")
	if tr.FileID("/p/gpfs1/out.bin") != f1 {
		t.Error("file re-interning returned a new id")
	}
	out := tr.Finish()
	if out.AppName(a1) != "cm1" || out.FilePath(f1) != "/p/gpfs1/out.bin" {
		t.Error("resolution failed")
	}
	if out.AppName(-1) != "?" || out.FilePath(-1) != "" {
		t.Error("out-of-range resolution not defensive")
	}
}

func TestTracerOverheadCharging(t *testing.T) {
	tr := NewTracer()
	tr.SetOverhead(2 * time.Microsecond)
	var charged time.Duration
	for i := 0; i < 10; i++ {
		charged += tr.Record(Event{Op: OpRead})
	}
	if charged != 20*time.Microsecond {
		t.Errorf("charged = %v, want 20µs", charged)
	}
	out := tr.Finish()
	if out.Meta.TraceOverhead != 20*time.Microsecond {
		t.Errorf("TraceOverhead = %v, want 20µs", out.Meta.TraceOverhead)
	}
}

func TestTracerDisabledRecordsNothing(t *testing.T) {
	tr := NewTracer()
	tr.SetOverhead(time.Millisecond)
	tr.SetEnabled(false)
	if d := tr.Record(Event{Op: OpWrite}); d != 0 {
		t.Errorf("disabled tracer charged %v", d)
	}
	if tr.Len() != 0 {
		t.Error("disabled tracer captured an event")
	}
}

func TestObserveFileSizeMonotonic(t *testing.T) {
	tr := NewTracer()
	id := tr.FileID("/f")
	tr.ObserveFileSize(id, 100)
	tr.ObserveFileSize(id, 50) // must not shrink
	tr.ObserveFileSize(id, 200)
	out := tr.Finish()
	if out.Files[id].Size != 200 {
		t.Errorf("size = %d, want 200", out.Files[id].Size)
	}
}

func TestSetFileInfoPreservesPath(t *testing.T) {
	tr := NewTracer()
	id := tr.FileID("/data/x.h5")
	tr.SetFileInfo(id, FileInfo{Path: "/bogus", Format: "hdf5", NDims: 3, DataType: "int"})
	out := tr.Finish()
	f := out.Files[id]
	if f.Path != "/data/x.h5" {
		t.Errorf("path overwritten to %q", f.Path)
	}
	if f.Format != "hdf5" || f.NDims != 3 {
		t.Error("info fields lost")
	}
}

func TestFinishSortsByStart(t *testing.T) {
	tr := NewTracer()
	tr.Record(Event{Op: OpRead, Start: 5 * time.Second, End: 6 * time.Second})
	tr.Record(Event{Op: OpWrite, Start: time.Second, End: 2 * time.Second})
	tr.Record(Event{Op: OpOpen, Start: 3 * time.Second, End: 3 * time.Second})
	out := tr.Finish()
	for i := 1; i < len(out.Events); i++ {
		if out.Events[i].Start < out.Events[i-1].Start {
			t.Fatal("events not sorted by start")
		}
	}
	if out.JobRuntime() != 6*time.Second {
		t.Errorf("JobRuntime = %v, want 6s", out.JobRuntime())
	}
}

func TestFinishIsSnapshot(t *testing.T) {
	tr := NewTracer()
	tr.Record(Event{Op: OpRead})
	snap := tr.Finish()
	tr.Record(Event{Op: OpWrite})
	if len(snap.Events) != 1 {
		t.Error("snapshot grew after Finish")
	}
}

func randomTrace(rng *rand.Rand, nEvents int) *Trace {
	tr := NewTracer()
	tr.SetMeta(Meta{
		Workload: "hacc", JobID: "job-123", Nodes: 32, CoresPerNode: 40,
		GPUsPerNode: 4, MemPerNodeGB: 256, Ranks: 1280,
		NodeLocalDir: "/dev/shm", PFSDir: "/p/gpfs1",
		JobTimeLimit: 2 * time.Hour,
	})
	apps := []int32{tr.AppID("hacc"), tr.AppID("mProject")}
	var files []int32
	for i := 0; i < 10; i++ {
		id := tr.FileID("/p/gpfs1/part" + string(rune('a'+i)))
		tr.SetFileInfo(id, FileInfo{Format: "bin", Target: "gpfs", NDims: 1, DataType: "float"})
		files = append(files, id)
	}
	start := time.Duration(0)
	for i := 0; i < nEvents; i++ {
		start += time.Duration(rng.Intn(1000)) * time.Microsecond
		dur := time.Duration(rng.Intn(5000)) * time.Microsecond
		tr.Record(Event{
			Level:  Level(rng.Intn(4)),
			Op:     Op(rng.Intn(int(numOps))),
			Rank:   int32(rng.Intn(1280)),
			Node:   int32(rng.Intn(32)),
			App:    apps[rng.Intn(len(apps))],
			File:   files[rng.Intn(len(files))],
			Offset: rng.Int63n(1 << 30),
			Size:   rng.Int63n(1 << 24),
			Start:  start,
			End:    start + dur,
		})
	}
	return tr.Finish()
}

func TestCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	orig := randomTrace(rng, 5000)
	var buf bytes.Buffer
	if err := WriteV2(&buf, orig); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !reflect.DeepEqual(orig.Meta, got.Meta) {
		t.Errorf("meta mismatch:\n%+v\n%+v", orig.Meta, got.Meta)
	}
	if !reflect.DeepEqual(orig.Apps, got.Apps) {
		t.Error("apps mismatch")
	}
	if !reflect.DeepEqual(orig.Files, got.Files) {
		t.Error("files mismatch")
	}
	if len(orig.Events) != len(got.Events) {
		t.Fatalf("event count %d != %d", len(got.Events), len(orig.Events))
	}
	for i := range orig.Events {
		if orig.Events[i] != got.Events[i] {
			t.Fatalf("event %d mismatch: %+v != %+v", i, got.Events[i], orig.Events[i])
		}
	}
}

func TestCodecEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteV2(&buf, &Trace{}); err != nil {
		t.Fatalf("Write empty: %v", err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read empty: %v", err)
	}
	if len(got.Events) != 0 || len(got.Apps) != 0 || len(got.Files) != 0 {
		t.Error("empty trace not empty after round trip")
	}
}

func TestCodecRejectsBadMagic(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("NOTATRACEFILE"))); err == nil {
		t.Fatal("expected error for bad magic")
	}
}

func TestCodecRejectsTruncation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	orig := randomTrace(rng, 100)
	var buf bytes.Buffer
	if err := WriteV2(&buf, orig); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// The stream reader stops at the last block frame; the footer behind it
	// is the block reader's to miss.
	br, err := NewBlockReader(bytes.NewReader(full), int64(len(full)))
	if err != nil {
		t.Fatal(err)
	}
	last := br.BlockAt(br.NumBlocks() - 1)
	end := int(last.Offset + last.Len)
	for _, cut := range []int{len(magicV2) - 1, len(magicV2) + 3, end / 2, end - 1} {
		if _, err := Read(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("truncation at %d not detected", cut)
		}
	}
}

func TestCodecRejectsGarbage(t *testing.T) {
	// Valid magic followed by garbage must error, not hang or panic.
	data := append([]byte(magicV2), bytes.Repeat([]byte{0xff}, 64)...)
	if _, err := Read(bytes.NewReader(data)); err == nil {
		t.Fatal("expected error for garbage body")
	}
}

// Property: round-tripping preserves any event list exactly (times are
// delta-encoded, so ordering and negative-delta-free sorting matter).
func TestCodecRoundTripProperty(t *testing.T) {
	f := func(seed int64, n uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		orig := randomTrace(rng, int(n%512))
		var buf bytes.Buffer
		if err := WriteV2(&buf, orig); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(orig, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
