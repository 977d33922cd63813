package report

import (
	"strings"
	"testing"
	"time"

	"vani/internal/core"
	"vani/internal/spec/spectest"
	"vani/internal/stats"
	"vani/internal/workloads"
)

func sampleChar(t *testing.T) *core.Characterization {
	t.Helper()
	w := spectest.Golden(t, "hacc", nil)
	spec := w.DefaultSpec()
	spec.Nodes = 2
	spec.RanksPerNode = 4
	spec.Scale = 0.02
	res, err := workloads.Run(w, spec)
	if err != nil {
		t.Fatal(err)
	}
	opt := core.DefaultOptions()
	opt.Storage = &spec.Storage
	return core.Analyze(res.Trace, opt)
}

func TestTableAlignment(t *testing.T) {
	tb := NewTable("Title", "a", "bee", "c")
	tb.AddRow("1", "2", "3")
	tb.AddRow("longer", "x") // short row padded
	out := tb.Render()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if lines[0] != "Title" {
		t.Errorf("title line = %q", lines[0])
	}
	// All data lines have equal width.
	w := len(lines[1])
	for _, l := range lines[1:] {
		if len(l) != w {
			t.Errorf("misaligned line %q (%d != %d)", l, len(l), w)
		}
	}
	if !strings.Contains(out, "longer") {
		t.Error("row content missing")
	}
}

func TestFormatters(t *testing.T) {
	if got := Pct(0.304, 0.696); got != "30%, 70%" {
		t.Errorf("Pct = %q", got)
	}
	if got := BW(64 << 20); got != "64MB/s" {
		t.Errorf("BW = %q", got)
	}
	if got := Dur(73 * time.Second); got != "73s" {
		t.Errorf("Dur = %q", got)
	}
	if got := Dur(300 * time.Millisecond); got != "0.3s" {
		t.Errorf("Dur = %q", got)
	}
}

func TestHistogramRendering(t *testing.T) {
	var h stats.SizeHistogram
	h.Add(1024, time.Millisecond)
	h.Add(1024, time.Millisecond)
	h.Add(32<<20, 10*time.Millisecond)
	out := Histogram("hist", &h)
	if !strings.Contains(out, "<4KB") || !strings.Contains(out, ">=16MB") {
		t.Errorf("bucket labels missing:\n%s", out)
	}
	if !strings.Contains(out, "#") {
		t.Error("no bars rendered")
	}
	empty := Histogram("none", &stats.SizeHistogram{})
	if !strings.Contains(empty, "no requests") {
		t.Error("empty histogram not handled")
	}
}

func TestTimelineRendering(t *testing.T) {
	tl := stats.NewTimeline(10*time.Second, 10)
	tl.Add(0, time.Second, 1<<20)
	out := Timeline("reads", tl, 10*time.Second)
	if !strings.Contains(out, "peak") || !strings.Contains(out, "#") {
		t.Errorf("timeline missing parts:\n%s", out)
	}
	idle := Timeline("idle", stats.NewTimeline(time.Second, 4), time.Second)
	if !strings.Contains(idle, "idle") {
		t.Error("idle timeline not handled")
	}
}

func TestAllTablesRender(t *testing.T) {
	c := sampleChar(t)
	out := AllTables([]Named{{Name: "HACC", C: c}}, 60<<30)
	for _, want := range []string{
		"Table I:", "Table II:", "Table III:", "Table IV:", "Table V:",
		"Table VI:", "Table VII:", "Table VIII:", "Table IX:", "Table X:", "Table XI:",
		"HACC", "POSIX", "/p/gpfs1", "measured",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("AllTables missing %q", want)
		}
	}
}

func TestTableIValues(t *testing.T) {
	c := sampleChar(t)
	out := TableI([]Named{{Name: "HACC", C: c}})
	if !strings.Contains(out, "GB") && !strings.Contains(out, "MB") {
		t.Errorf("Table I lacks volumes:\n%s", out)
	}
	if !strings.Contains(out, "Seq") {
		t.Errorf("Table I lacks access pattern:\n%s", out)
	}
}

func TestFigureRender(t *testing.T) {
	c := sampleChar(t)
	out := Figure(c)
	for _, want := range []string{"(a)", "(b)", "(c)", "read", "write"} {
		if !strings.Contains(out, want) {
			t.Errorf("figure missing %q:\n%s", want, out[:200])
		}
	}
}

func TestGranStr(t *testing.T) {
	cases := []struct {
		g    core.Granularity
		want string
	}{
		{core.Granularity{}, "-"},
		{core.Granularity{Read: 4096}, "4KB"},
		{core.Granularity{Write: 4096}, "4KB"},
		{core.Granularity{Read: 16 << 20, Write: 16 << 20}, "16MB"},
		{core.Granularity{Read: 16 << 20, Write: 4096}, "4KB-16MB"},
	}
	for _, c := range cases {
		if got := granStr(c.g); got != c.want {
			t.Errorf("granStr(%+v) = %q, want %q", c.g, got, c.want)
		}
	}
}

func TestShorten(t *testing.T) {
	if got := shorten("short", 10); got != "short" {
		t.Errorf("shorten = %q", got)
	}
	long := strings.Repeat("x", 60)
	if got := shorten(long, 20); len(got) != 20 || !strings.HasPrefix(got, "...") {
		t.Errorf("shorten long = %q", got)
	}
}

func TestOrNAAndBoolNA(t *testing.T) {
	if orNA("") != "NA" || orNA("/x") != "/x" {
		t.Error("orNA wrong")
	}
	if boolNA(true) != "yes" || boolNA(false) != "NA" {
		t.Error("boolNA wrong")
	}
}

func TestRankBWSummaryRendering(t *testing.T) {
	rbw := []core.RankBandwidth{
		{Rank: 0, ReadBW: 1 << 30, WriteBW: 2 << 30},
		{Rank: 1, ReadBW: 2 << 30, WriteBW: 4 << 30},
	}
	out := RankBWSummary(rbw)
	for _, want := range []string{"write", "read", "min", "p50", "max", "2 ranks"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
	if empty := RankBWSummary(nil); !strings.Contains(empty, "no per-rank data") {
		t.Error("empty summary not handled")
	}
}

func TestPhaseTableRendersAllPhases(t *testing.T) {
	c := sampleChar(t)
	out := PhaseTable("hacc", c)
	if !strings.Contains(out, "I/O phases of hacc") {
		t.Errorf("missing title:\n%s", out)
	}
	rows := strings.Count(out, "\n") - 2 // title + header + separator
	if rows < len(c.Phases) {
		t.Errorf("rendered %d rows for %d phases", rows, len(c.Phases))
	}
}
