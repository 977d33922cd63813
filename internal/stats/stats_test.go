package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestSummarizeBasics(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Sum != 15 || s.Min != 1 || s.Max != 5 || s.Mean != 3 {
		t.Errorf("summary = %+v", s)
	}
	if math.Abs(s.Std-math.Sqrt(2)) > 1e-12 {
		t.Errorf("std = %v, want sqrt(2)", s.Std)
	}
	if math.Abs(s.Skew) > 1e-12 {
		t.Errorf("symmetric sample has skew %v", s.Skew)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if s := Summarize(nil); s.N != 0 || s.Mean != 0 {
		t.Errorf("empty summary = %+v", s)
	}
}

func TestSummarizeConstantSample(t *testing.T) {
	s := Summarize([]float64{7, 7, 7, 7})
	if s.Std != 0 || s.Skew != 0 || s.Kurtosis != 0 {
		t.Errorf("constant sample: %+v", s)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	cases := []struct{ q, want float64 }{
		{0, 1}, {50, 3}, {100, 5}, {25, 2}, {-5, 1}, {150, 5},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.q); got != c.want {
			t.Errorf("P%v = %v, want %v", c.q, got, c.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Error("empty percentile not 0")
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Error("Percentile mutated its input")
	}
}

func TestFitDistributionShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const n = 20000

	uniform := make([]float64, n)
	normal := make([]float64, n)
	gamma := make([]float64, n)
	for i := 0; i < n; i++ {
		uniform[i] = rng.Float64() * 10
		normal[i] = rng.NormFloat64()*2 + 50
		// Gamma(k=2) via sum of two exponentials.
		gamma[i] = rng.ExpFloat64() + rng.ExpFloat64()
	}
	if got := FitDistribution(uniform); got != DistUniform {
		t.Errorf("uniform classified as %v", got)
	}
	if got := FitDistribution(normal); got != DistNormal {
		t.Errorf("normal classified as %v", got)
	}
	if got := FitDistribution(gamma); got != DistGamma {
		t.Errorf("gamma classified as %v", got)
	}
}

func TestFitDistributionDegenerate(t *testing.T) {
	if FitDistribution([]float64{1, 2, 3}) != DistUnknown {
		t.Error("tiny sample should be unknown")
	}
	constant := make([]float64, 100)
	if FitDistribution(constant) != DistUnknown {
		t.Error("zero-variance sample should be unknown")
	}
}

func TestBucketOfBoundaries(t *testing.T) {
	cases := []struct {
		size int64
		want SizeBucket
	}{
		{0, BucketTiny}, {4095, BucketTiny},
		{4096, BucketSmall}, {65535, BucketSmall},
		{65536, BucketMedium}, {1<<20 - 1, BucketMedium},
		{1 << 20, BucketLarge}, {16<<20 - 1, BucketLarge},
		{16 << 20, BucketHuge}, {1 << 40, BucketHuge},
	}
	for _, c := range cases {
		if got := BucketOf(c.size); got != c.want {
			t.Errorf("BucketOf(%d) = %v, want %v", c.size, got, c.want)
		}
	}
}

func TestBucketNames(t *testing.T) {
	if BucketTiny.String() != "<4KB" || BucketHuge.String() != ">=16MB" {
		t.Error("bucket labels wrong")
	}
	if SizeBucket(99).String() != "?" {
		t.Error("out-of-range bucket label")
	}
}

func TestSizeHistogramAccumulation(t *testing.T) {
	var h SizeHistogram
	h.Add(1024, time.Millisecond)      // tiny
	h.Add(1024, time.Millisecond)      // tiny
	h.Add(32<<20, 16*time.Millisecond) // huge
	if h.Count[BucketTiny] != 2 || h.Count[BucketHuge] != 1 {
		t.Errorf("counts wrong: %+v", h.Count)
	}
	if h.TotalCount() != 3 || h.TotalBytes() != 2048+32<<20 {
		t.Errorf("totals wrong")
	}
	if h.DominantBucket() != BucketTiny {
		t.Errorf("dominant = %v", h.DominantBucket())
	}
	// Huge bucket: 32MiB in 16ms = 2GiB/s.
	if bw := h.Bandwidth(BucketHuge); math.Abs(bw-float64(32<<20)/0.016) > 1 {
		t.Errorf("bandwidth = %v", bw)
	}
	if h.Bandwidth(BucketMedium) != 0 {
		t.Error("empty bucket bandwidth not 0")
	}
}

func TestTimelineBinning(t *testing.T) {
	tl := NewTimeline(10*time.Second, 10)
	tl.Add(0, time.Second, 1000)                               // bin 0
	tl.Add(9*time.Second, 10*time.Second, 500)                 // bin 9
	tl.Add(4500*time.Millisecond, 5500*time.Millisecond, 2000) // spans bins 4,5
	if tl.Bytes[0] != 1000 || tl.Bytes[9] != 500 {
		t.Errorf("edge bins wrong: %v", tl.Bytes)
	}
	if tl.Bytes[4]+tl.Bytes[5] != 2000 {
		t.Errorf("split op lost bytes: %v", tl.Bytes)
	}
	if tl.Bytes[4] != 1000 || tl.Bytes[5] != 1000 {
		t.Errorf("proportional split wrong: %d/%d", tl.Bytes[4], tl.Bytes[5])
	}
	if tl.TotalBytes() != 3500 {
		t.Errorf("total = %d", tl.TotalBytes())
	}
}

func TestTimelineRates(t *testing.T) {
	tl := NewTimeline(10*time.Second, 10)
	tl.Add(0, time.Second, 4096)
	if r := tl.Rate(0); math.Abs(r-4096) > 1e-9 {
		t.Errorf("Rate(0) = %v, want 4096 B/s", r)
	}
	if tl.PeakRate() != tl.Rate(0) {
		t.Error("peak not bin 0")
	}
}

func TestTimelineClampsOutOfRange(t *testing.T) {
	tl := NewTimeline(time.Second, 4)
	tl.Add(-time.Second, 500*time.Millisecond, 100)  // clamps start
	tl.Add(900*time.Millisecond, 5*time.Second, 100) // clamps end
	tl.Add(2*time.Second, 3*time.Second, 100)        // fully out: dropped
	if tl.TotalBytes() != 200 {
		t.Errorf("total = %d, want 200", tl.TotalBytes())
	}
}

func TestTimelineZeroDurationOp(t *testing.T) {
	tl := NewTimeline(time.Second, 4)
	tl.Add(300*time.Millisecond, 300*time.Millisecond, 64)
	if tl.Bytes[1] != 64 || tl.Ops[1] != 1 {
		t.Errorf("instant op misplaced: %v %v", tl.Bytes, tl.Ops)
	}
}

// TestTimelineSpanShorterThanBins: a span of fewer nanoseconds than bins
// (a five-nanosecond trace on the default 64-bin timeline) must not make
// the bins zero-wide — Add divides by the width.
func TestTimelineSpanShorterThanBins(t *testing.T) {
	start := []int64{1, 3, 4}
	end := []int64{2, 5, 4}
	size := []int64{4096, 128, 7}
	tl := NewTimeline(5, 64)
	for i := range start {
		tl.Add(time.Duration(start[i]), time.Duration(end[i]), size[i])
	}
	if tl.TotalBytes() != 4096+128+7 {
		t.Errorf("TotalBytes = %d, want %d", tl.TotalBytes(), 4096+128+7)
	}
}

func TestTimelineInvalidArgsPanic(t *testing.T) {
	for _, fn := range []func(){
		func() { NewTimeline(0, 4) },
		func() { NewTimeline(time.Second, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

// Property: timeline never loses bytes for in-range ops.
func TestTimelineConservationProperty(t *testing.T) {
	f := func(ops []struct {
		Start uint16
		Dur   uint16
		Size  uint16
	}) bool {
		tl := NewTimeline(100*time.Millisecond, 7)
		var want int64
		for _, op := range ops {
			start := time.Duration(op.Start%90) * time.Millisecond
			end := start + time.Duration(op.Dur%10)*time.Millisecond
			tl.Add(start, end, int64(op.Size))
			want += int64(op.Size)
		}
		return tl.TotalBytes() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: histogram totals equal the sum of inserted requests.
func TestSizeHistogramConservationProperty(t *testing.T) {
	f := func(sizes []uint32) bool {
		var h SizeHistogram
		var wantBytes int64
		for _, s := range sizes {
			h.Add(int64(s), time.Microsecond)
			wantBytes += int64(s)
		}
		return h.TotalCount() == int64(len(sizes)) && h.TotalBytes() == wantBytes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
