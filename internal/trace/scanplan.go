package trace

// Scan-plan vocabulary: the pushdown predicates the analysis pipeline
// drives top-down through colstore into the VANITRC2 block index, and the
// column sets a block decode names. The analyzer declares which predicates
// it can push (Filter); the scan skips whole blocks via footer statistics,
// decodes the column segments (ColSet) a filter constrains in a block, and
// decodes the rest of a block only when some of its rows pass.

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// ColSet is a bitmask of event columns: the segments one block decode
// names. The bit order is the canonical column order of the columnar block
// payload and of the footer's per-column byte ranges.
type ColSet uint16

// Column bits, in on-disk segment order.
const (
	ColLevel ColSet = 1 << iota
	ColOp
	ColLib
	ColRank
	ColNode
	ColApp
	ColFile
	ColOffset
	ColSize
	ColStart
	ColEnd

	// NumCols is the number of event columns.
	NumCols = 11
	// AllCols selects every column (the full-decode plan).
	AllCols ColSet = 1<<NumCols - 1
)

var colNames = [NumCols]string{
	"level", "op", "lib", "rank", "node", "app", "file",
	"offset", "size", "start", "end",
}

// String renders the set as a comma-joined column list.
func (s ColSet) String() string {
	if s == AllCols {
		return "all"
	}
	var parts []string
	for i := 0; i < NumCols; i++ {
		if s&(1<<i) != 0 {
			parts = append(parts, colNames[i])
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ",")
}

// OpClass is a pushable operation-class predicate.
type OpClass uint8

// Operation classes. The zero value selects every operation.
const (
	OpClassAll  OpClass = iota
	OpClassData         // read/write
	OpClassMeta         // open/close/seek/stat/sync/mkdir/readdir
	OpClassIO           // data or meta
)

// String returns the flag-style class name.
func (c OpClass) String() string {
	switch c {
	case OpClassAll:
		return "all"
	case OpClassData:
		return "data"
	case OpClassMeta:
		return "meta"
	case OpClassIO:
		return "io"
	}
	return fmt.Sprintf("OpClass(%d)", int(c))
}

// ParseOpClass parses a flag-style op class name.
func ParseOpClass(s string) (OpClass, error) {
	switch s {
	case "", "all":
		return OpClassAll, nil
	case "data":
		return OpClassData, nil
	case "meta":
		return OpClassMeta, nil
	case "io":
		return OpClassIO, nil
	}
	return 0, fmt.Errorf("unknown op class %q (want data, meta, io or all)", s)
}

// opMaskFor returns the bitmask of ops selected by the class.
func opMaskFor(c OpClass) uint32 {
	var m uint32
	for op := Op(0); op < numOps; op++ {
		keep := false
		switch c {
		case OpClassAll:
			keep = true
		case OpClassData:
			keep = op.IsData()
		case OpClassMeta:
			keep = op.IsMeta()
		case OpClassIO:
			keep = op.IsIO()
		}
		if keep {
			m |= 1 << op
		}
	}
	return m
}

// Filter is the pushdown predicate set of a scan plan: a time window over
// event start times, a rank set, a level set, and an operation class. The
// zero value matches every event. Filters are pushed down to the block
// index (whole blocks whose footer statistics prove no row can match are
// never decoded) and applied exactly per row afterwards, so a filtered
// scan is equivalent to filtering a full decode in memory.
type Filter struct {
	// From/To bound event Start times to [From, To]. To == 0 means
	// unbounded above; From == 0 is unbounded below (starts are >= 0).
	From, To time.Duration
	// Ranks restricts to the listed ranks (nil = all).
	Ranks []int32
	// Levels restricts to the listed layers (nil = all).
	Levels []Level
	// Ops restricts to an operation class (OpClassAll = all).
	Ops OpClass
}

// Empty reports whether the filter matches every event.
func (f *Filter) Empty() bool {
	return f.From == 0 && f.To == 0 && len(f.Ranks) == 0 &&
		len(f.Levels) == 0 && f.Ops == OpClassAll
}

// Matcher is a Filter compiled for per-row and per-block evaluation. Its
// rank set is a list of sorted, disjoint ranges, and when they span at most
// maxRankBits ranks also a bitset over [minRank, maxRank] that the row test
// reads instead: either way its memory is bounded by the length of the
// filter's rank list and a constant, never by the span of the ranks it
// names.
type Matcher struct {
	fromNS, toNS int64
	ranks        []rankRange // nil = every rank
	rankBits     []uint64    // nil when the ranges span more than maxRankBits
	minRank      int32
	maxRank      int32
	levelMask    uint32
	opMask       uint32
}

// rankRange is the ranks [lo, hi].
type rankRange struct{ lo, hi int32 }

// maxRankBits is the widest rank span a Matcher keeps a bitset over (8 KiB).
const maxRankBits = 1 << 16

// mergeRankRanges sorts rs and merges overlapping and adjacent ranges, in
// place, returning the merged prefix.
func mergeRankRanges(rs []rankRange) []rankRange {
	slices.SortFunc(rs, func(a, b rankRange) int { return cmp.Compare(a.lo, b.lo) })
	out := rs[:0]
	for _, r := range rs {
		if n := len(out); n > 0 && int64(r.lo) <= int64(out[n-1].hi)+1 {
			out[n-1].hi = max(out[n-1].hi, r.hi)
			continue
		}
		out = append(out, r)
	}
	return out
}

// NewMatcher compiles the filter.
func (f *Filter) NewMatcher() *Matcher {
	m := &Matcher{
		fromNS:    int64(f.From),
		toNS:      math.MaxInt64,
		levelMask: ^uint32(0),
		opMask:    opMaskFor(f.Ops),
	}
	if f.To != 0 {
		m.toNS = int64(f.To)
	}
	if len(f.Ranks) > 0 {
		rs := make([]rankRange, len(f.Ranks))
		for i, r := range f.Ranks {
			rs[i] = rankRange{r, r}
		}
		m.ranks = slices.Clip(mergeRankRanges(rs))
		m.minRank, m.maxRank = m.ranks[0].lo, m.ranks[len(m.ranks)-1].hi
		if span := int64(m.maxRank) - int64(m.minRank) + 1; span <= maxRankBits {
			m.rankBits = make([]uint64, (span+63)/64)
			for _, r := range m.ranks {
				for i := r.lo - m.minRank; i <= r.hi-m.minRank; i++ {
					m.rankBits[i>>6] |= 1 << (i & 63)
				}
			}
		}
	}
	if len(f.Levels) > 0 {
		m.levelMask = 0
		for _, lv := range f.Levels {
			if lv < 32 {
				m.levelMask |= 1 << lv
			}
		}
	}
	return m
}

// firstRankRange returns the index of the first rank range that ends at or
// after r (len(m.ranks) when none does).
func (m *Matcher) firstRankRange(r int32) int {
	return sort.Search(len(m.ranks), func(i int) bool { return m.ranks[i].hi >= r })
}

// Match evaluates the row predicate over raw column values.
func (m *Matcher) Match(level, op uint8, rank int32, startNS int64) bool {
	if startNS < m.fromNS || startNS > m.toNS {
		return false
	}
	if !m.AcceptRank(rank) {
		return false
	}
	if level < 32 && m.levelMask&(1<<level) == 0 {
		return false
	}
	return op >= 32 || m.opMask&(1<<op) != 0
}

// MatchEvent evaluates the row predicate over a decoded event.
func (m *Matcher) MatchEvent(e *Event) bool {
	return m.Match(uint8(e.Level), uint8(e.Op), e.Rank, int64(e.Start))
}

// Per-dimension predicate surface: Match is the conjunction of these four
// accepts, so a scan tests only the dimensions a block constrains.

// NeedCols returns the columns whose accept is actually constrained; the
// other dimensions accept everything and need not be evaluated at all.
func (m *Matcher) NeedCols() ColSet {
	var s ColSet
	if m.fromNS > 0 || m.toNS != math.MaxInt64 {
		s |= ColStart
	}
	if m.ranks != nil {
		s |= ColRank
	}
	if m.levelMask != ^uint32(0) {
		s |= ColLevel
	}
	if m.opMask != opMaskFor(OpClassAll) {
		s |= ColOp
	}
	return s
}

// NeedColsBlock returns NeedCols reduced by the block's index entry: a
// dimension whose footer statistics prove every row in the block passes
// drops out of the constrained set for that block. Today the reduction
// covers the time window — a block whose [MinStart, MaxStart] lies inside
// [from, to] passes the window wholesale, which turns a window+value
// filter into a pure value filter for every interior block of a
// time-sorted trace, so those blocks neither decode nor test Start.
// Boundary blocks, straddling a window edge, keep ColStart and test their
// rows exactly.
func (m *Matcher) NeedColsBlock(bi BlockInfo) ColSet {
	need := m.NeedCols()
	if need&ColStart != 0 && bi.Count > 0 &&
		int64(bi.MinStart) >= m.fromNS && int64(bi.MaxStart) <= m.toNS {
		need &^= ColStart
	}
	return need
}

// AcceptStart evaluates the time-window dimension alone.
func (m *Matcher) AcceptStart(startNS int64) bool {
	return startNS >= m.fromNS && startNS <= m.toNS
}

// AcceptRank evaluates the rank dimension alone.
func (m *Matcher) AcceptRank(rank int32) bool {
	if m.rankBits != nil {
		if rank < m.minRank || rank > m.maxRank {
			return false
		}
		i := uint32(rank - m.minRank)
		return m.rankBits[i>>6]&(1<<(i&63)) != 0
	}
	if m.ranks == nil {
		return true
	}
	k := m.firstRankRange(rank)
	return k < len(m.ranks) && m.ranks[k].lo <= rank
}

// AcceptLevel evaluates the level dimension alone.
func (m *Matcher) AcceptLevel(level uint8) bool {
	return level >= 32 || m.levelMask&(1<<level) != 0
}

// AcceptOp evaluates the op-class dimension alone.
func (m *Matcher) AcceptOp(op uint8) bool {
	return op >= 32 || m.opMask&(1<<op) != 0
}

// SkipBlock reports whether the block's index entry proves no row in it
// can match — the pruning decision, from the entry's time and rank bounds
// and level/op masks.
func (m *Matcher) SkipBlock(bi BlockInfo) bool {
	if bi.Count == 0 {
		return true
	}
	if int64(bi.MaxStart) < m.fromNS || int64(bi.MinStart) > m.toNS {
		return true
	}
	if m.ranks != nil {
		// Interval check: if no requested rank falls inside the block's
		// [min, max] rank range, nothing can match.
		k := m.firstRankRange(bi.MinRank)
		if k == len(m.ranks) || m.ranks[k].lo > bi.MaxRank {
			return true
		}
	}
	if bi.LevelMask != 0 && m.levelMask&bi.LevelMask == 0 {
		return true
	}
	if bi.OpMask != 0 && m.opMask&bi.OpMask == 0 {
		return true
	}
	return false
}

// FilterEvents returns the events matching f, preserving order — the
// in-memory reference semantics every pruned scan must reproduce.
func FilterEvents(evs []Event, f Filter) []Event {
	if f.Empty() {
		return evs
	}
	m := f.NewMatcher()
	out := make([]Event, 0, len(evs))
	for i := range evs {
		if m.MatchEvent(&evs[i]) {
			out = append(out, evs[i])
		}
	}
	return out
}

// MaxRanks is the most distinct ranks one rank list may name, and the
// widest single range in it.
const MaxRanks = 1 << 20

// ParseRanks parses a flag-style rank list ("0,3,8-15") into a sorted,
// deduplicated rank slice. The parts are merged as ranges before any is
// expanded, and a list naming more than MaxRanks distinct ranks is refused,
// so neither the time nor the memory it takes grows with the span of
// ranks a hostile list names — only with its length and MaxRanks.
func ParseRanks(s string) ([]int32, error) {
	if s == "" {
		return nil, nil
	}
	parse := func(v string) (int64, bool) {
		n, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
		return n, err == nil
	}
	var rs []rankRange
	for rest := s; rest != ""; {
		var part string
		part, rest, _ = strings.Cut(rest, ",")
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		var a, b int64
		if lo, hi, ok := strings.Cut(part, "-"); ok {
			var okA, okB bool
			a, okA = parse(lo)
			b, okB = parse(hi)
			if !okA || !okB || b < a || b-a > MaxRanks {
				return nil, fmt.Errorf("bad rank range %q", part)
			}
		} else {
			var okA bool
			if a, okA = parse(part); !okA {
				return nil, fmt.Errorf("bad rank %q", part)
			}
			b = a
		}
		for _, r := range []int64{a, b} {
			if r < 0 || r > math.MaxInt32 {
				return nil, fmt.Errorf("rank %d out of range", r)
			}
		}
		rs = append(rs, rankRange{int32(a), int32(b)})
	}
	rs = mergeRankRanges(rs)
	var n int64
	for _, r := range rs {
		n += int64(r.hi) - int64(r.lo) + 1
	}
	if n > MaxRanks {
		return nil, fmt.Errorf("rank list names %d ranks, over %d", n, MaxRanks)
	}
	out := make([]int32, 0, n)
	for _, r := range rs {
		for v := int64(r.lo); v <= int64(r.hi); v++ {
			out = append(out, int32(v))
		}
	}
	return out, nil
}

// ParseLevels parses a flag-style level list ("posix,middleware").
func ParseLevels(s string) ([]Level, error) {
	if s == "" {
		return nil, nil
	}
	var out []Level
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		switch part {
		case "":
		case "app":
			out = append(out, LevelApp)
		case "middleware", "mw":
			out = append(out, LevelMiddleware)
		case "posix":
			out = append(out, LevelPosix)
		case "compute":
			out = append(out, LevelCompute)
		default:
			return nil, fmt.Errorf("unknown level %q (want app, middleware, posix or compute)", part)
		}
	}
	return out, nil
}

// ParseWindow parses a flag-style time window "from:to" of durations
// ("2s:10s"); either side may be empty for an open bound.
func ParseWindow(s string) (from, to time.Duration, err error) {
	if s == "" {
		return 0, 0, nil
	}
	lo, hi, ok := strings.Cut(s, ":")
	if !ok {
		return 0, 0, fmt.Errorf("bad window %q (want from:to, e.g. 2s:10s)", s)
	}
	if lo != "" {
		if from, err = time.ParseDuration(lo); err != nil {
			return 0, 0, fmt.Errorf("bad window start %q: %v", lo, err)
		}
	}
	if hi != "" {
		if to, err = time.ParseDuration(hi); err != nil {
			return 0, 0, fmt.Errorf("bad window end %q: %v", hi, err)
		}
	}
	if from < 0 || to < 0 || (to != 0 && to < from) {
		return 0, 0, fmt.Errorf("bad window %q: empty or negative range", s)
	}
	return from, to, nil
}
