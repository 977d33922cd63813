package server

// Content-addressed report cache. A report's identity is derived entirely
// from its inputs — the SHA-256 of the raw trace bytes plus the normalized
// filter spec — so two uploads of the same log with the same spec map to
// the same entry no matter which client sent them or when. Entries hold the
// rendered YAML artifact (the byte-identity contract surface shared with
// cmd/vani), its JSON rendering and the trace's fleet summary; eviction is
// plain LRU bounded by entry count.

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"sync"

	"vani/internal/repo"
	"vani/internal/trace"
)

// specKey renders a filter into its canonical form: ranks and levels
// sorted and deduplicated, durations in nanoseconds. Two specs with the
// same meaning always produce the same key.
func specKey(f trace.Filter) string {
	ranks := append([]int32(nil), f.Ranks...)
	sort.Slice(ranks, func(i, j int) bool { return ranks[i] < ranks[j] })
	levels := append([]trace.Level(nil), f.Levels...)
	sort.Slice(levels, func(i, j int) bool { return levels[i] < levels[j] })
	var b strings.Builder
	fmt.Fprintf(&b, "w=%d:%d;r=", int64(f.From), int64(f.To))
	for i, r := range ranks {
		if i > 0 && r == ranks[i-1] {
			continue
		}
		fmt.Fprintf(&b, "%d,", r)
	}
	b.WriteString(";l=")
	for i, l := range levels {
		if i > 0 && l == levels[i-1] {
			continue
		}
		fmt.Fprintf(&b, "%d,", int(l))
	}
	fmt.Fprintf(&b, ";o=%d", int(f.Ops))
	return b.String()
}

// reportID derives the content address of a report: SHA-256 over the trace
// hash and the canonical spec key.
func reportID(traceSHA string, f trace.Filter) string {
	h := sha256.New()
	h.Write([]byte(traceSHA))
	h.Write([]byte{'\n'})
	h.Write([]byte(specKey(f)))
	return hex.EncodeToString(h.Sum(nil))
}

// report is one cached characterization, pre-rendered in both formats.
// Summary is the trace's fleet summary, taken from the same
// characterization as the renderings; nil for a sweep report.
type report struct {
	ID      string
	YAML    []byte
	JSON    []byte
	Summary *repo.TraceSummary
}

// reportCache is an LRU over content-addressed reports.
type reportCache struct {
	mu      sync.Mutex
	entries int
	order   *list.List               // front = most recently used
	byID    map[string]*list.Element // value: *report
}

func newReportCache(entries int) *reportCache {
	return &reportCache{
		entries: entries,
		order:   list.New(),
		byID:    make(map[string]*list.Element),
	}
}

// Get returns the cached report and bumps its recency.
func (c *reportCache) Get(id string) (*report, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byID[id]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*report), true
}

// Put inserts (or refreshes) a report, evicting the least recently used
// entry when over capacity.
func (c *reportCache) Put(r *report) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byID[r.ID]; ok {
		el.Value = r
		c.order.MoveToFront(el)
		return
	}
	c.byID[r.ID] = c.order.PushFront(r)
	for c.order.Len() > c.entries {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.byID, last.Value.(*report).ID)
	}
}

// Len reports the number of cached entries.
func (c *reportCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
