package repo

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"
	"time"

	"vani/internal/core"
	"vani/internal/spec"
	"vani/internal/trace"
	"vani/internal/workloads"
	"vani/internal/yamlenc"
)

// runWorkload simulates a golden workload at a small size.
func runWorkload(t *testing.T, name string, nodes int, scale float64) *trace.Trace {
	t.Helper()
	w, err := spec.New(name)
	if err != nil {
		t.Fatal(err)
	}
	sp := w.DefaultSpec()
	sp.Nodes, sp.Scale = nodes, scale
	res, err := w.Run(sp)
	if err != nil {
		t.Fatalf("Run(%s): %v", name, err)
	}
	return res.Trace
}

func encodeLog(t *testing.T, tr *trace.Trace, opt trace.V2Options) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteV2With(&buf, tr, opt); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// storedBytes reads a stored trace's bytes through a handle: the loose
// file, or its member of a pack.
func storedBytes(t *testing.T, r *Repo, sha string) []byte {
	t.Helper()
	h, err := r.Acquire(sha)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	f, err := os.Open(h.Path())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b, err := io.ReadAll(io.NewSectionReader(f, h.Off(), h.Size()))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// fixedClock keeps every upload of a test in one day's bucket, so each
// workload is one shard.
func fixedClock() time.Time { return time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC) }

// TestCompactPackMatchesParent: a member the writer's cost model made, raw
// or flate-framed, at any block geometry, is packed as exactly the bytes
// that decoding it to events and re-encoding those with the writer's flate
// mode gives, and every pooled column the packing drew comes back.
func TestCompactPackMatchesParent(t *testing.T) {
	r, err := Open(t.TempDir(), Options{Now: fixedClock})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	want := map[string][]byte{}
	for _, w := range []struct {
		name  string
		nodes int
		scale float64
	}{
		{"hacc", 8, 0.1}, {"cm1", 4, 0.05}, {"jag", 4, 0.05},
		{"montage-mpi", 4, 0.05}, {"cosmoflow", 4, 0.01},
	} {
		tr := runWorkload(t, w.name, w.nodes, w.scale)
		for _, opt := range []trace.V2Options{{}, {Compress: true}} {
			member := encodeLog(t, tr, opt)
			decoded, err := trace.Read(bytes.NewReader(member))
			if err != nil {
				t.Fatal(err)
			}
			want[mustAdd(t, r, member)] = encodeLog(t, decoded, trace.V2Options{Compress: true})
		}
	}
	// Members of other geometries are re-cut into default blocks and pack
	// to the same re-encode, whether a stored block holds part of a
	// default block, straddles two, or holds several. The
	// one-event-per-block member, loose mostly frames and footer entries,
	// shrinks when packed.
	small, big := runWorkload(t, "hacc", 2, 0.02), runWorkload(t, "hacc", 16, 0.1)
	if n := len(big.Events); n <= 3*trace.DefaultBlockEvents {
		t.Fatalf("%d events: too few to span four default blocks", n)
	}
	shrinks := map[string]int{}
	for _, m := range []struct {
		tr  *trace.Trace
		opt trace.V2Options
	}{
		{small, trace.V2Options{BlockEvents: 1}}, {small, trace.V2Options{BlockEvents: 1, Compress: true}},
		{big, trace.V2Options{BlockEvents: 16}}, {big, trace.V2Options{BlockEvents: 1000, Compress: true}},
		{big, trace.V2Options{BlockEvents: 20000}}, {big, trace.V2Options{BlockEvents: 2 * trace.DefaultBlockEvents}},
		{big, trace.V2Options{BlockEvents: 1 << 17}},
	} {
		member := encodeLog(t, m.tr, m.opt)
		decoded, err := trace.Read(bytes.NewReader(member))
		if err != nil {
			t.Fatal(err)
		}
		sha := mustAdd(t, r, member)
		want[sha] = encodeLog(t, decoded, trace.V2Options{Compress: true})
		if m.opt.BlockEvents == 1 {
			shrinks[sha] = len(member)
		}
	}
	inUse := trace.ColumnsInUse()
	if n, err := r.CompactNow(); err != nil || n != len(want) {
		t.Fatalf("CompactNow = %d, %v; want %d packed", n, err, len(want))
	}
	if got := trace.ColumnsInUse(); got != inUse {
		t.Errorf("%d pooled columns never came back", got-inUse)
	}
	for sha, w := range want {
		h, err := r.Acquire(sha)
		if err != nil {
			t.Fatal(err)
		}
		packed := h.Off() > 0
		h.Close()
		if !packed {
			t.Fatalf("%s is still loose", sha)
		}
		got := storedBytes(t, r, sha)
		if !bytes.Equal(got, w) {
			t.Errorf("%s: packed member is %d bytes, the re-encode %d, and they differ", sha, len(got), len(w))
		}
		if loose, ok := shrinks[sha]; ok && len(got) >= loose {
			t.Errorf("%s: packing grew a %d-byte member to %d bytes", sha, loose, len(got))
		}
	}
}

// drillDown is a trace's unfiltered request and its four drill-down
// filters: a time window, low ranks, POSIX data operations, and the three
// dimensions at once.
func drillDown(tr *trace.Trace) []trace.Filter {
	rt := tr.Events[len(tr.Events)-1].Start
	from := tr.Events[0].Start
	return []trace.Filter{
		{},
		{From: from + (rt-from)/4, To: from + (rt-from)/2},
		{Ranks: []int32{0, 1, 2, 3}},
		{Levels: []trace.Level{trace.LevelPosix}, Ops: trace.OpClassData},
		{From: from, To: from + (rt-from)/2, Ranks: []int32{0, 2, 4, 6, 8, 10}, Ops: trace.OpClassMeta},
	}
}

// TestCompactKeepsReports: whatever encoded a member — each forced segment
// codec or the cost model, one event, 1,000 or the default per block, raw
// or flate frames — its report, unfiltered and under each drill-down
// filter, is the same YAML before and after compaction, and compaction
// leaves no decoded column out of its pool. The analyzer's cost is per
// block at one event per block, so those members hold a 300-event middle
// slice of the run.
func TestCompactKeepsReports(t *testing.T) {
	full := runWorkload(t, "hacc", 2, 0.02)
	if len(full.Events) < 3000 {
		t.Fatalf("%d events: too few for several 1,000-event blocks", len(full.Events))
	}
	slice := *full
	mid := len(full.Events) / 2
	slice.Events = full.Events[mid-150 : mid+150]
	cfg := workloads.DefaultSpec().Storage
	reports := func(r *Repo, sha string, filters []trace.Filter) [][]byte {
		h, err := r.Acquire(sha)
		if err != nil {
			t.Fatal(err)
		}
		defer h.Close()
		var out [][]byte
		for _, f := range filters {
			opt := core.DefaultOptions()
			opt.Storage = cfg.Clone()
			opt.Filter = f
			c, err := h.Characterize(context.Background(), opt)
			if err != nil {
				t.Fatalf("%s: %v", sha, err)
			}
			out = append(out, yamlenc.Marshal(c))
		}
		return out
	}

	inUse := trace.ColumnsInUse()
	r, err := Open(t.TempDir(), Options{Now: fixedClock})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	type member struct {
		name    string
		filters []trace.Filter
		before  [][]byte
	}
	members := map[string]*member{}
	for _, codec := range []trace.CodecMode{trace.CodecAuto, trace.CodecForceRaw, trace.CodecForceRLE, trace.CodecForceDict, trace.CodecForceFOR} {
		for _, be := range []int{1, 1000, 0} {
			tr := full
			if be == 1 {
				tr = &slice
			}
			for _, compress := range []bool{false, true} {
				sha := mustAdd(t, r, encodeLog(t, tr, trace.V2Options{Codec: codec, BlockEvents: be, Compress: compress}))
				m := &member{
					name:    fmt.Sprintf("codec %v, %d events per block, flate %v", codec, be, compress),
					filters: drillDown(tr),
				}
				m.before = reports(r, sha, m.filters)
				members[sha] = m
			}
		}
	}
	if n, err := r.CompactNow(); err != nil || n != len(members) {
		t.Fatalf("CompactNow = %d, %v; want %d packed", n, err, len(members))
	}
	for sha, m := range members {
		for i, y := range reports(r, sha, m.filters) {
			if !bytes.Equal(y, m.before[i]) {
				t.Errorf("%s: filter %+v: report changed by compaction", m.name, m.filters[i])
			}
		}
	}
	if got := trace.ColumnsInUse(); got != inUse {
		t.Errorf("%d pooled columns never came back", got-inUse)
	}
}

// undecodableBytes encodes a trace whose header and footer read but whose
// one block does not decode: its event's node is negative.
func undecodableBytes(t *testing.T, workload string) []byte {
	t.Helper()
	tr := trace.NewTracer()
	tr.SetMeta(trace.Meta{Workload: workload, Nodes: 1, Ranks: 1})
	tr.Record(trace.Event{Level: trace.LevelPosix, Op: trace.OpWrite, Node: -1, Start: 1, End: 2})
	return encodeLog(t, tr.Finish(), trace.V2Options{})
}

// TestCompactPacksPastBadMember: a member whose block does not decode is
// set aside. The rest of its shard, and the shard sorted after it, are
// packed in the same round, which returns the member's error; the next
// round packs nothing and fails nothing, and the member stays loose and
// readable.
func TestCompactPacksPastBadMember(t *testing.T) {
	r, err := Open(t.TempDir(), Options{Now: fixedClock})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	bad := mustAdd(t, r, undecodableBytes(t, "aaa"))
	healthy := []string{mustAdd(t, r, traceBytes(t, "aaa", 300)), mustAdd(t, r, traceBytes(t, "aaa", 500))}
	for _, n := range []int{400, 900, 1600} {
		healthy = append(healthy, mustAdd(t, r, traceBytes(t, "zzz", n)))
	}
	if n, err := r.CompactNow(); n != len(healthy) || !errors.Is(err, trace.ErrBadFormat) || !strings.Contains(err.Error(), bad) {
		t.Fatalf("round 0: CompactNow = %d, %v; want %d packed and ErrBadFormat naming %s", n, err, len(healthy), bad)
	}
	if n, err := r.CompactNow(); n != 0 || err != nil {
		t.Fatalf("round 1: CompactNow = %d, %v; want 0 packed and no error", n, err)
	}
	isPacked := func(sha string) bool {
		h, err := r.Acquire(sha)
		if err != nil {
			t.Fatal(err)
		}
		defer h.Close()
		return h.Off() > 0
	}
	for _, sha := range healthy {
		if !isPacked(sha) {
			t.Errorf("%s: healthy member left loose", sha)
		}
	}
	if isPacked(bad) {
		t.Errorf("%s: undecodable member packed", bad)
	}
}
