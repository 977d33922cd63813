package trace

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"time"
)

// testFilters is the filter sweep the scan-plan tests run: each predicate
// alone, combinations, and degenerate cases (match-all, match-nothing).
func testFilters() []Filter {
	return []Filter{
		{},
		{From: 200 * time.Millisecond, To: 600 * time.Millisecond},
		{From: time.Millisecond},
		{To: 10 * time.Millisecond},
		{Ranks: []int32{0, 7, 128, 1279}},
		{Levels: []Level{LevelPosix}},
		{Levels: []Level{LevelApp, LevelMiddleware}},
		{Ops: OpClassData},
		{Ops: OpClassMeta},
		{Ops: OpClassIO},
		{From: 100 * time.Millisecond, To: 900 * time.Millisecond,
			Ranks: []int32{3, 4, 5, 900}, Levels: []Level{LevelPosix, LevelCompute}, Ops: OpClassData},
		{From: time.Hour, To: 2 * time.Hour}, // past the end: matches nothing
	}
}

// TestFilterColsAndEmpty pins the planner-facing surface: which columns a
// filter's residual predicate reads, and when it is a no-op.
func TestFilterColsAndEmpty(t *testing.T) {
	f := Filter{}
	if !f.Empty() || f.Cols() != 0 {
		t.Errorf("zero filter: Empty=%v Cols=%v", f.Empty(), f.Cols())
	}
	f = Filter{From: time.Second, Ranks: []int32{1}, Levels: []Level{LevelPosix}, Ops: OpClassData}
	if f.Empty() {
		t.Error("constrained filter claims Empty")
	}
	if want := ColStart | ColRank | ColLevel | ColOp; f.Cols() != want {
		t.Errorf("Cols = %v, want %v", f.Cols(), want)
	}
	f = Filter{To: time.Second}
	if f.Cols() != ColStart {
		t.Error("window-only filter should read only Start")
	}
}

// TestMatcherAgainstBruteForce: the compiled matcher agrees with a literal
// reading of the filter's definition on every event.
func TestMatcherAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tr := randomTrace(rng, 4000)
	for fi, f := range testFilters() {
		m := f.NewMatcher()
		for i := range tr.Events {
			e := &tr.Events[i]
			want := true
			if f.From != 0 && e.Start < f.From {
				want = false
			}
			if f.To != 0 && e.Start > f.To {
				want = false
			}
			if len(f.Ranks) > 0 {
				found := false
				for _, r := range f.Ranks {
					found = found || r == e.Rank
				}
				want = want && found
			}
			if len(f.Levels) > 0 {
				found := false
				for _, l := range f.Levels {
					found = found || l == e.Level
				}
				want = want && found
			}
			switch f.Ops {
			case OpClassData:
				want = want && e.Op.IsData()
			case OpClassMeta:
				want = want && e.Op.IsMeta()
			case OpClassIO:
				want = want && e.Op.IsIO()
			}
			if got := m.MatchEvent(e); got != want {
				t.Fatalf("filter %d event %d: MatchEvent=%v, brute force %v", fi, i, got, want)
			}
		}
	}
}

// TestSkipBlockConservative is the pruning soundness contract: a block the
// matcher skips must contain no matching event, for every filter.
func TestSkipBlockConservative(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	tr := randomTrace(rng, 3000)
	data := encodeV2(t, tr, V2Options{BlockEvents: 256})
	br, err := NewBlockReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	for fi, f := range testFilters() {
		m := f.NewMatcher()
		for k := 0; k < br.NumBlocks(); k++ {
			if !m.SkipBlock(br.BlockAt(k)) {
				continue
			}
			evs, err := br.DecodeEvents(k, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i := range evs {
				if m.MatchEvent(&evs[i]) {
					t.Fatalf("filter %d: block %d skipped but event %d matches", fi, k, i)
				}
			}
		}
	}
}

// TestNeedColsBlockConservative: the per-block reduction soundness
// contract — whenever NeedColsBlock drops the window dimension for a
// block, every event in that block must pass the window; and it must
// actually bite — a window containing the whole log reduces every block
// to its value dimensions, while a window cutting the log interior leaves
// boundary blocks constrained and frees fully-contained ones.
func TestNeedColsBlockConservative(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	tr := randomTrace(rng, 3000)
	data := encodeV2(t, tr, V2Options{BlockEvents: 256})
	br, err := NewBlockReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	for fi, f := range testFilters() {
		m := f.NewMatcher()
		for k := 0; k < br.NumBlocks(); k++ {
			need := m.NeedColsBlock(br.BlockAt(k))
			full := m.NeedCols()
			if need != full && need != full&^ColStart {
				t.Fatalf("filter %d block %d: NeedColsBlock=%v not a ColStart-reduction of %v",
					fi, k, need, full)
			}
			if full&ColStart != 0 && need&ColStart == 0 {
				evs, err := br.DecodeEvents(k, nil)
				if err != nil {
					t.Fatal(err)
				}
				for i := range evs {
					if !m.AcceptStart(int64(evs[i].Start)) {
						t.Fatalf("filter %d block %d: window dropped but event %d fails it", fi, k, i)
					}
				}
			}
		}
	}
	end := tr.Events[len(tr.Events)-1].Start
	reduced := func(f Filter) (yes, no int) {
		m := f.NewMatcher()
		for k := 0; k < br.NumBlocks(); k++ {
			if m.NeedColsBlock(br.BlockAt(k))&ColStart == 0 {
				yes++
			} else {
				no++
			}
		}
		return
	}
	if yes, no := reduced(Filter{To: 2 * end, Ranks: []int32{1}}); no != 0 || yes == 0 {
		t.Errorf("containing window: %d blocks reduced, %d still constrained", yes, no)
	}
	if yes, no := reduced(Filter{From: end / 4, To: 3 * end / 4}); yes == 0 || no == 0 {
		t.Errorf("interior window: want both reduced and constrained blocks, got %d/%d", yes, no)
	}
}

// TestSkipBlockPrunes: the stats actually bite — a narrow time window over a
// time-ordered log must prune most blocks, and a rank filter must prune
// blocks under the v2.1 footer.
func TestSkipBlockPrunes(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	tr := randomTrace(rng, 3000)
	data := encodeV2(t, tr, V2Options{BlockEvents: 256})
	br, err := NewBlockReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if br.NumBlocks() < 8 {
		t.Fatalf("want a multi-block log, got %d blocks", br.NumBlocks())
	}
	count := func(f Filter) int {
		m := f.NewMatcher()
		n := 0
		for k := 0; k < br.NumBlocks(); k++ {
			if m.SkipBlock(br.BlockAt(k)) {
				n++
			}
		}
		return n
	}
	end := tr.Events[len(tr.Events)-1].Start
	window := Filter{From: end / 4, To: end / 2}
	if n := count(window); n == 0 {
		t.Error("25% time window pruned no blocks")
	}
	if n := count(Filter{From: 10 * end}); n != br.NumBlocks() {
		t.Errorf("past-the-end window pruned %d of %d blocks", n, br.NumBlocks())
	}
	// randomTrace draws ops over every class, so a single-op-class filter
	// cannot prune; an impossible level can (levels only span 0-3).
	if n := count(Filter{Levels: []Level{Level(9)}}); n != br.NumBlocks() {
		t.Errorf("impossible level pruned %d of %d blocks", n, br.NumBlocks())
	}
}

// TestFooterStatsV21 verifies the per-block statistics the footer
// round-trips: rank interval, level/op masks, and per-column byte ranges
// that tile the payload.
func TestFooterStatsV21(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	tr := randomTrace(rng, 1500)
	const be = 256
	data := encodeV2(t, tr, V2Options{BlockEvents: be})
	br, err := NewBlockReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < br.NumBlocks(); k++ {
		bi := br.BlockAt(k)
		lo, hi := k*be, (k+1)*be
		if hi > len(tr.Events) {
			hi = len(tr.Events)
		}
		evs := tr.Events[lo:hi]
		minRank, maxRank := evs[0].Rank, evs[0].Rank
		var levelMask, opMask uint32
		for _, e := range evs {
			if e.Rank < minRank {
				minRank = e.Rank
			}
			if e.Rank > maxRank {
				maxRank = e.Rank
			}
			levelMask |= 1 << uint8(e.Level)
			opMask |= 1 << uint8(e.Op)
		}
		if bi.MinRank != minRank || bi.MaxRank != maxRank {
			t.Errorf("block %d: rank bounds [%d,%d], want [%d,%d]",
				k, bi.MinRank, bi.MaxRank, minRank, maxRank)
		}
		if bi.LevelMask != levelMask || bi.OpMask != opMask {
			t.Errorf("block %d: masks level=%#x op=%#x, want level=%#x op=%#x",
				k, bi.LevelMask, bi.OpMask, levelMask, opMask)
		}
		bd, err := br.ReadBlock(k)
		if err != nil {
			t.Fatal(err)
		}
		var sum int64
		for _, cl := range bi.ColLens {
			sum += cl
		}
		if sum >= int64(bd.PayloadBytes()) || sum <= 0 {
			t.Errorf("block %d: column ranges cover %d of %d payload bytes",
				k, sum, bd.PayloadBytes())
		}
	}
}

// TestBlockDataProjection: decoding any single column, or any subset, out
// of a block matches the full decode — and additive calls
// preserve previously decoded columns.
func TestBlockDataProjection(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	tr := randomTrace(rng, 900)
	for _, compress := range []bool{false, true} {
		data := encodeV2(t, tr, V2Options{BlockEvents: 256, Compress: compress})
		br, err := NewBlockReader(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < br.NumBlocks(); k++ {
			bd, err := br.ReadBlock(k)
			if err != nil {
				t.Fatal(err)
			}
			var full Columns
			if _, err := bd.Decode(AllCols, &full); err != nil {
				t.Fatal(err)
			}
			// Each column alone.
			var decodedSum int64
			for col := 0; col < NumCols; col++ {
				var one Columns
				n, err := bd.Decode(ColSet(1)<<col, &one)
				if err != nil {
					t.Fatalf("block %d col %s: %v", k, colNames[col], err)
				}
				decodedSum += n
				if !columnEqual(&full, &one, col) {
					t.Fatalf("block %d: projected %s column diverges from full decode",
						k, colNames[col])
				}
			}
			if want := int64(bd.PayloadBytes() - bd.segBase); decodedSum != want {
				t.Errorf("block %d: column decodes covered %d bytes, payload segments hold %d",
					k, decodedSum, want)
			}
			// Additive: Start first, then Rank — both present afterwards.
			var acc Columns
			if _, err := bd.Decode(ColStart, &acc); err != nil {
				t.Fatal(err)
			}
			if _, err := bd.Decode(ColRank, &acc); err != nil {
				t.Fatal(err)
			}
			if !columnEqual(&full, &acc, 9) || !columnEqual(&full, &acc, 3) {
				t.Fatalf("block %d: additive decode lost a column", k)
			}
		}
	}
}

// columnEqual compares one column (by ColSet bit index) between two decoded
// column sets.
func columnEqual(want, got *Columns, col int) bool {
	if want.N != got.N {
		return false
	}
	for i := 0; i < want.N; i++ {
		switch ColSet(1) << col {
		case ColLevel:
			if want.Level[i] != got.Level[i] {
				return false
			}
		case ColOp:
			if want.Op[i] != got.Op[i] {
				return false
			}
		case ColLib:
			if want.Lib[i] != got.Lib[i] {
				return false
			}
		case ColRank:
			if want.Rank[i] != got.Rank[i] {
				return false
			}
		case ColNode:
			if want.Node[i] != got.Node[i] {
				return false
			}
		case ColApp:
			if want.App[i] != got.App[i] {
				return false
			}
		case ColFile:
			if want.File[i] != got.File[i] {
				return false
			}
		case ColOffset:
			if want.Offset[i] != got.Offset[i] {
				return false
			}
		case ColSize:
			if want.Size[i] != got.Size[i] {
				return false
			}
		case ColStart:
			if want.Start[i] != got.Start[i] {
				return false
			}
		case ColEnd:
			if want.End[i] != got.End[i] {
				return false
			}
		}
	}
	return true
}

// TestFooterByteFlipSweep flips every footer byte in turn: the reader must
// either reject the log (wrapping ErrBadFormat) or serve a decode that
// never panics.
func TestFooterByteFlipSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	tr := randomTrace(rng, 700)
	full := encodeV2(t, tr, V2Options{BlockEvents: 128})
	br, err := NewBlockReader(bytes.NewReader(full), int64(len(full)))
	if err != nil {
		t.Fatal(err)
	}
	last := br.BlockAt(br.NumBlocks() - 1)
	footStart := int(last.Offset + last.Len)
	for pos := footStart; pos < len(full); pos++ {
		data := append([]byte(nil), full...)
		data[pos] ^= 0xff
		br2, err := NewBlockReader(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			if !errors.Is(err, ErrBadFormat) {
				t.Fatalf("flip at %d: open error %v does not wrap ErrBadFormat", pos, err)
			}
			continue
		}
		for k := 0; k < br2.NumBlocks(); k++ {
			bd, err := br2.ReadBlock(k)
			if err != nil {
				if !errors.Is(err, ErrBadFormat) {
					t.Fatalf("flip at %d: ReadBlock(%d) error %v does not wrap ErrBadFormat", pos, k, err)
				}
				break
			}
			var cols Columns
			if _, err := bd.Decode(ColStart|ColRank, &cols); err != nil && !errors.Is(err, ErrBadFormat) {
				t.Fatalf("flip at %d: Decode error %v does not wrap ErrBadFormat", pos, err)
			}
		}
	}
}

// TestParseHelpers covers the CLI-facing filter parsers.
func TestParseHelpers(t *testing.T) {
	ranks, err := ParseRanks("5, 1,3-6")
	if err != nil {
		t.Fatal(err)
	}
	if want := []int32{1, 3, 4, 5, 6}; len(ranks) != len(want) {
		t.Fatalf("ParseRanks = %v, want %v", ranks, want)
	} else {
		for i := range want {
			if ranks[i] != want[i] {
				t.Fatalf("ParseRanks = %v, want %v", ranks, want)
			}
		}
	}
	for _, bad := range []string{"x", "-3", "9-2", "1-99999999999"} {
		if _, err := ParseRanks(bad); err == nil {
			t.Errorf("ParseRanks(%q) accepted", bad)
		}
	}
	levels, err := ParseLevels("posix, mw")
	if err != nil || len(levels) != 2 || levels[0] != LevelPosix || levels[1] != LevelMiddleware {
		t.Errorf("ParseLevels = %v, %v", levels, err)
	}
	if _, err := ParseLevels("kernel"); err == nil {
		t.Error("ParseLevels accepted kernel")
	}
	from, to, err := ParseWindow("2s:1m")
	if err != nil || from != 2*time.Second || to != time.Minute {
		t.Errorf("ParseWindow = %v, %v, %v", from, to, err)
	}
	if _, to, err := ParseWindow("2s:"); err != nil || to != 0 {
		t.Errorf("open-ended window: %v, %v", to, err)
	}
	for _, bad := range []string{"2s", "x:1s", "5s:2s"} {
		if _, _, err := ParseWindow(bad); err == nil {
			t.Errorf("ParseWindow(%q) accepted", bad)
		}
	}
	if c, err := ParseOpClass("meta"); err != nil || c != OpClassMeta {
		t.Errorf("ParseOpClass(meta) = %v, %v", c, err)
	}
	if _, err := ParseOpClass("sideways"); err == nil {
		t.Error("ParseOpClass accepted sideways")
	}
	if OpClassData.String() != "data" || OpClassAll.String() != "all" {
		t.Error("OpClass.String names wrong")
	}
	if s := (ColStart | ColEnd).String(); s != "start,end" {
		t.Errorf("ColSet.String = %q", s)
	}
	if AllCols.Count() != NumCols {
		t.Error("AllCols does not count every column")
	}
}

// TestFilterEventsOrder: FilterEvents preserves event order — the property
// every pushed-down scan is compared against.
func TestFilterEventsOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	tr := randomTrace(rng, 2000)
	f := Filter{Ops: OpClassData}
	got := FilterEvents(tr.Events, f)
	if len(got) == 0 || len(got) == len(tr.Events) {
		t.Fatalf("filter kept %d of %d events: want a strict subset", len(got), len(tr.Events))
	}
	m := f.NewMatcher()
	j := 0
	for i := range tr.Events {
		if m.MatchEvent(&tr.Events[i]) {
			if got[j] != tr.Events[i] {
				t.Fatalf("filtered event %d out of order", j)
			}
			j++
		}
	}
	if j != len(got) {
		t.Fatalf("filter kept %d events, matcher says %d", len(got), j)
	}
}
