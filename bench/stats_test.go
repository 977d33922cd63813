package main

import (
	"math"
	"testing"
	"time"
)

func TestMedianAndQuartiles(t *testing.T) {
	for _, tc := range []struct {
		name        string
		xs          []float64
		med, q1, q3 float64
	}{
		{"empty", nil, 0, 0, 0},
		{"one", []float64{7}, 7, 7, 7},
		{"two", []float64{1, 3}, 2, 0.5, 3.5},
		{"odd", []float64{5, 1, 4, 2, 3}, 3, 1.5, 4.5},
		{"even", []float64{4, 1, 3, 2}, 2.5, 1.25, 3.75},
		// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
		{"ten", []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5, 2.75, 8.25},
	} {
		s := sorted(tc.xs)
		q1, q3 := quartiles(s)
		if got := median(s); got != tc.med || q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("%s: median %v quartiles %v %v, want %v %v %v", tc.name, got, q1, q3, tc.med, tc.q1, tc.q3)
		}
	}
	d := summarize([]float64{3, 1, 2})
	if d.N != 3 || d.Median != 2 {
		t.Errorf("summarize = %+v", d)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for p, want := range map[float64]float64{50: 50, 90: 90, 99: 99, 100: 100, 0.5: 1} {
		if got := percentile(s, p); got != want {
			t.Errorf("p%g of 1..100 = %v, want %v", p, got, want)
		}
	}
	if got := percentile(nil, 90); got != 0 {
		t.Errorf("p90 of nothing = %v", got)
	}
	if got := percentile([]float64{4}, 90); got != 4 {
		t.Errorf("p90 of one sample = %v", got)
	}
}

// The quoted tail is the highest percentile with at least ten samples
// beyond it.
func TestTailPercentile(t *testing.T) {
	for n, want := range map[int]float64{0: 50, 5: 50, 19: 50, 20: 50, 40: 75, 99: 75, 100: 90, 199: 90, 200: 95, 1000: 99, 10000: 99.9} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = %g, want %g", n, got, want)
		}
		if got := tailPercentile(n); n > 0 && float64(n)*(1-got/100) < 10-1e-9 && got != 50 {
			t.Errorf("tailPercentile(%d) = %g leaves fewer than ten samples beyond it", n, got)
		}
	}
}

func TestRatioAndMs(t *testing.T) {
	if ratio(1, 0) != 0 || ratio(6, 3) != 2 {
		t.Error("ratio")
	}
	if got := ms(1500 * time.Microsecond); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("ms = %v", got)
	}
}
