package trace

// Scan-plan vocabulary: the column sets and pushdown predicates the
// analysis pipeline drives top-down through colstore into the VANITRC2
// block index. The analyzer declares which columns each pass touches
// (ColSet) and which predicates it can push (Filter); the block reader
// consumes both to skip whole blocks via footer statistics and to decode
// only the requested column segments.

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// ColSet is a bitmask of event columns, the projection half of a scan
// plan. The bit order is the canonical column order of the columnar block
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

// Count returns the number of columns in the set.
func (s ColSet) Count() int {
	n := 0
	for i := 0; i < NumCols; i++ {
		if s&(1<<i) != 0 {
			n++
		}
	}
	return n
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

// Matcher is a Filter compiled for per-row and per-block evaluation.
type Matcher struct {
	fromNS, toNS int64
	ranks        map[int32]bool
	minRank      int32
	maxRank      int32
	levelMask    uint32
	opMask       uint32
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
		m.ranks = make(map[int32]bool, len(f.Ranks))
		m.minRank, m.maxRank = f.Ranks[0], f.Ranks[0]
		for _, r := range f.Ranks {
			m.ranks[r] = true
			if r < m.minRank {
				m.minRank = r
			}
			if r > m.maxRank {
				m.maxRank = r
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

// Match evaluates the row predicate over raw column values.
func (m *Matcher) Match(level, op uint8, rank int32, startNS int64) bool {
	if startNS < m.fromNS || startNS > m.toNS {
		return false
	}
	if m.ranks != nil && !m.ranks[rank] {
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
	return m.ranks == nil || m.ranks[rank]
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
		// Interval check: if every requested rank falls outside the
		// block's [min, max] rank range, nothing can match.
		any := false
		for r := range m.ranks {
			if r >= bi.MinRank && r <= bi.MaxRank {
				any = true
				break
			}
		}
		if !any {
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

// ParseRanks parses a flag-style rank list ("0,3,8-15") into a sorted,
// deduplicated rank slice.
func ParseRanks(s string) ([]int32, error) {
	if s == "" {
		return nil, nil
	}
	seen := map[int32]bool{}
	var out []int32
	add := func(r int64) error {
		if r < 0 || r > math.MaxInt32 {
			return fmt.Errorf("rank %d out of range", r)
		}
		if !seen[int32(r)] {
			seen[int32(r)] = true
			out = append(out, int32(r))
		}
		return nil
	}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if lo, hi, ok := strings.Cut(part, "-"); ok {
			var a, b int64
			if _, err := fmt.Sscanf(lo+" "+hi, "%d %d", &a, &b); err != nil {
				return nil, fmt.Errorf("bad rank range %q", part)
			}
			if b < a || b-a > 1<<20 {
				return nil, fmt.Errorf("bad rank range %q", part)
			}
			for r := a; r <= b; r++ {
				if err := add(r); err != nil {
					return nil, err
				}
			}
			continue
		}
		var r int64
		if _, err := fmt.Sscanf(part, "%d", &r); err != nil {
			return nil, fmt.Errorf("bad rank %q", part)
		}
		if err := add(r); err != nil {
			return nil, err
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
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
