// Package stats provides the statistical primitives the analyzer uses:
// request-size histograms with per-bucket bandwidth (the Figures 1a-6a
// panels), moment summaries, percentiles, distribution-shape fitting (the
// "Data dist" attribute of Table VI), and time-binned bandwidth series
// (the Figures 1c-6c timelines).
package stats

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Summary holds moment statistics of a sample.
type Summary struct {
	N        int
	Sum      float64
	Min, Max float64
	Mean     float64
	Std      float64
	Skew     float64
	Kurtosis float64 // non-excess (normal = 3)
}

// Summarize computes moment statistics. An empty sample yields a zero
// Summary.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs)}
	if s.N == 0 {
		return s
	}
	s.Min, s.Max = xs[0], xs[0]
	for _, x := range xs {
		s.Sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = s.Sum / float64(s.N)
	var m2, m3, m4 float64
	for _, x := range xs {
		d := x - s.Mean
		m2 += d * d
		m3 += d * d * d
		m4 += d * d * d * d
	}
	m2 /= float64(s.N)
	m3 /= float64(s.N)
	m4 /= float64(s.N)
	s.Std = math.Sqrt(m2)
	if m2 > 0 {
		s.Skew = m3 / math.Pow(m2, 1.5)
		s.Kurtosis = m4 / (m2 * m2)
	}
	return s
}

// Percentile returns the q-th percentile (0..100) by linear interpolation.
// The input need not be sorted; it is not modified.
func Percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if q <= 0 {
		return sorted[0]
	}
	if q >= 100 {
		return sorted[len(sorted)-1]
	}
	pos := q / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// FiveNum is a five-number positional summary (plus mean) of a sample —
// the fleet-query aggregate shape: extremes, the median, and the p99
// tail. All fields derive from Percentile over the same sorted copy, so
// summaries of the same sample are identical however it was gathered.
type FiveNum struct {
	Min  float64
	P50  float64
	P99  float64
	Max  float64
	Mean float64
}

// FiveNumOf summarizes a sample. An empty sample yields a zero FiveNum.
func FiveNumOf(xs []float64) FiveNum {
	if len(xs) == 0 {
		return FiveNum{}
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return FiveNum{
		Min:  Percentile(xs, 0),
		P50:  Percentile(xs, 50),
		P99:  Percentile(xs, 99),
		Max:  Percentile(xs, 100),
		Mean: sum / float64(len(xs)),
	}
}

// DistKind is a distribution-shape label used by the Data entity's "Data
// dist" attribute (Table VI).
type DistKind string

// Distribution kinds the fitter can report.
const (
	DistUniform DistKind = "uniform"
	DistNormal  DistKind = "normal"
	DistGamma   DistKind = "gamma"
	DistUnknown DistKind = "unknown"
)

// FitDistribution classifies a sample as uniform, normal, or gamma using
// moment heuristics: a uniform distribution has near-zero skewness and
// kurtosis near 1.8; a normal has near-zero skewness and kurtosis near 3;
// a gamma is right-skewed with kurtosis consistent with 3 + 1.5*skew^2.
// Small or degenerate samples report DistUnknown.
func FitDistribution(xs []float64) DistKind {
	if len(xs) < 30 {
		return DistUnknown
	}
	s := Summarize(xs)
	if s.Std == 0 {
		return DistUnknown
	}
	absSkew := math.Abs(s.Skew)
	switch {
	case absSkew < 0.25 && math.Abs(s.Kurtosis-1.8) < 0.45:
		return DistUniform
	case absSkew < 0.25 && math.Abs(s.Kurtosis-3) < 0.8:
		return DistNormal
	case s.Skew > 0.4:
		// Gamma: kurtosis ≈ 3 + 1.5*skew², within generous tolerance.
		expect := 3 + 1.5*s.Skew*s.Skew
		if math.Abs(s.Kurtosis-expect) < 0.6*expect {
			return DistGamma
		}
	}
	return DistUnknown
}

// SizeBucket labels one request-size class. The bucket boundaries follow
// the paper's figure axes: <4KB, 4-64KB, 64KB-1MB, 1-16MB, >16MB.
type SizeBucket int

// Buckets in ascending size order.
const (
	BucketTiny   SizeBucket = iota // < 4KiB
	BucketSmall                    // 4KiB - 64KiB
	BucketMedium                   // 64KiB - 1MiB
	BucketLarge                    // 1MiB - 16MiB
	BucketHuge                     // >= 16MiB
	NumSizeBuckets
)

var bucketNames = [...]string{"<4KB", "4KB-64KB", "64KB-1MB", "1MB-16MB", ">=16MB"}

// String returns the axis label of the bucket.
func (b SizeBucket) String() string {
	if b >= 0 && int(b) < len(bucketNames) {
		return bucketNames[b]
	}
	return "?"
}

// BucketOf classifies a request size in bytes.
func BucketOf(size int64) SizeBucket {
	switch {
	case size < 4<<10:
		return BucketTiny
	case size < 64<<10:
		return BucketSmall
	case size < 1<<20:
		return BucketMedium
	case size < 16<<20:
		return BucketLarge
	default:
		return BucketHuge
	}
}

// SizeHistogram accumulates request counts, bytes and busy time per size
// bucket, giving the count histogram and the per-bucket achieved bandwidth
// of the paper's (a) panels.
type SizeHistogram struct {
	Count [NumSizeBuckets]int64
	Bytes [NumSizeBuckets]int64
	Time  [NumSizeBuckets]time.Duration
}

// Add records one request of the given size taking d.
func (h *SizeHistogram) Add(size int64, d time.Duration) {
	b := BucketOf(size)
	h.Count[b]++
	h.Bytes[b] += size
	h.Time[b] += d
}

// Merge adds another histogram's tallies into h. All fields are integer
// sums, so merging per-chunk partials in any order is exact — the property
// the parallel analyzer relies on for bit-identical output.
func (h *SizeHistogram) Merge(o *SizeHistogram) {
	for b := range h.Count {
		h.Count[b] += o.Count[b]
		h.Bytes[b] += o.Bytes[b]
		h.Time[b] += o.Time[b]
	}
}

// TotalCount returns the number of requests across buckets.
func (h *SizeHistogram) TotalCount() int64 {
	var n int64
	for _, c := range h.Count {
		n += c
	}
	return n
}

// TotalBytes returns the bytes across buckets.
func (h *SizeHistogram) TotalBytes() int64 {
	var n int64
	for _, b := range h.Bytes {
		n += b
	}
	return n
}

// Bandwidth returns the achieved bytes/sec of one bucket (bytes divided by
// accumulated request time), or 0 for empty buckets.
func (h *SizeHistogram) Bandwidth(b SizeBucket) float64 {
	if h.Time[b] <= 0 {
		return 0
	}
	return float64(h.Bytes[b]) / h.Time[b].Seconds()
}

// Timeline bins activity over [0, span) into equal-width bins and reports
// a bytes/sec series — the paper's per-workload I/O timeline panels.
type Timeline struct {
	span  time.Duration
	width time.Duration
	Bytes []int64
	Ops   []int64
}

// NewTimeline creates a timeline of n bins covering [0, span). span must be
// positive and n at least 1.
func NewTimeline(span time.Duration, n int) *Timeline {
	if span <= 0 || n < 1 {
		panic(fmt.Sprintf("stats: invalid timeline span=%v bins=%d", span, n))
	}
	// A span shorter than n nanoseconds would make the bins zero-wide (and
	// every bin lookup a division by zero): such a timeline keeps
	// nanosecond bins, of which only the first span are ever hit.
	return &Timeline{
		span:  span,
		width: max(span/time.Duration(n), 1),
		Bytes: make([]int64, n),
		Ops:   make([]int64, n),
	}
}

// Bins returns the number of bins.
func (tl *Timeline) Bins() int { return len(tl.Bytes) }

// Add spreads size bytes of one operation spanning [start, end) across the
// bins it overlaps, proportional to overlap; the last bin takes what the
// rounded shares of the others leave.
func (tl *Timeline) Add(start, end time.Duration, size int64) {
	if end < start {
		start, end = end, start
	}
	if end > tl.span {
		end = tl.span
	}
	if start < 0 {
		start = 0
	}
	if start >= tl.span {
		return
	}
	first := int(start / tl.width)
	last := first
	// An op that ends inside its first bin needs no second division. One
	// that ended before 0 now has start 0 above its end: its last bin is
	// (end-1)/width, which may fall below first.
	if end < start || end > time.Duration(first+1)*tl.width {
		last = int((end - 1) / tl.width)
	}
	if first >= len(tl.Bytes) {
		first = len(tl.Bytes) - 1
	}
	if last >= len(tl.Bytes) {
		last = len(tl.Bytes) - 1
	}
	tl.Ops[first]++
	if size <= 0 || last < first {
		return
	}
	if last == first {
		tl.Bytes[first] += size
		return
	}
	dur := end - start
	remaining := size
	for b := first; b < last; b++ {
		// Every bin before the last ends at or before end.
		binStart := time.Duration(b) * tl.width
		binEnd := binStart + tl.width
		if binStart < start {
			binStart = start
		}
		share := int64(float64(size) * float64(binEnd-binStart) / float64(dur))
		tl.Bytes[b] += share
		remaining -= share
	}
	tl.Bytes[last] += remaining
}

// Merge adds another timeline's bins into tl. Both timelines must have the
// same span and bin count (as per-chunk partials built by NewTimeline with
// identical parameters do); bins are integer sums, so the merge is exact.
func (tl *Timeline) Merge(o *Timeline) {
	if tl.span != o.span || len(tl.Bytes) != len(o.Bytes) {
		panic(fmt.Sprintf("stats: merging mismatched timelines: span %v/%v bins %d/%d",
			tl.span, o.span, len(tl.Bytes), len(o.Bytes)))
	}
	for i := range tl.Bytes {
		tl.Bytes[i] += o.Bytes[i]
		tl.Ops[i] += o.Ops[i]
	}
}

// Rate returns the bytes/sec of bin i.
func (tl *Timeline) Rate(i int) float64 {
	if tl.width <= 0 {
		return 0
	}
	return float64(tl.Bytes[i]) / tl.width.Seconds()
}

// PeakRate returns the highest bin rate.
func (tl *Timeline) PeakRate() float64 {
	var peak float64
	for i := range tl.Bytes {
		if r := tl.Rate(i); r > peak {
			peak = r
		}
	}
	return peak
}

// TotalBytes returns the bytes accumulated across bins.
func (tl *Timeline) TotalBytes() int64 {
	var n int64
	for _, b := range tl.Bytes {
		n += b
	}
	return n
}
