package main

import (
	"math"
	"sort"
	"time"
)

// dist summarizes a sample the way every timing in this benchmark is
// reported: median, quartiles and the sample count, never a best-of-n
// (the IO500 submission-data practice cited in PAPERS.md).
type dist struct {
	N      int
	Median float64
	Q1, Q3 float64
}

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of an ascending sample; the mean of the two middle values when
// the count is even, 0 for an empty sample.
func median(s []float64) float64 {
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of an ascending sample
// by the exclusive method, the one Python's statistics.quantiles(n=4)
// uses, so the spreads printed here are the spreads an outside checker
// computes. A sample of one has no spread: both quartiles are its value.
func quartiles(s []float64) (q1, q3 float64) {
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending sample.
func percentile(s []float64, p float64) float64 {
	n := len(s)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return s[rank-1]
}

// tailCandidates are the percentiles a report may quote, highest first.
var tailCandidates = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile picks the highest candidate percentile that still has at
// least ten samples beyond it in a sample of n, so the quoted tail is a
// measured value rather than one or two outliers. Below twenty samples
// nothing beyond the median is supported.
func tailPercentile(n int) float64 {
	for _, p := range tailCandidates {
		if float64(n)*(1-p/100) >= 10-1e-9 {
			return p
		}
	}
	return 50
}

func summarize(xs []float64) dist {
	s := sorted(xs)
	q1, q3 := quartiles(s)
	return dist{N: len(s), Median: median(s), Q1: q1, Q3: q3}
}

func sum(xs []float64) (s float64) {
	for _, x := range xs {
		s += x
	}
	return s
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, 0 when b is 0 (a layer that saw no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
