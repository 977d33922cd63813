package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterministicForSeed(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestRNGDifferentSeedsDiverge(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 5 {
		t.Errorf("%d/100 identical samples across seeds", same)
	}
}

func TestForkIndependence(t *testing.T) {
	g := NewRNG(7)
	f1 := g.Fork()
	// Consuming from the fork must not perturb the parent relative to a
	// replayed run.
	g2 := NewRNG(7)
	_ = g2.Fork()
	for i := 0; i < 50; i++ {
		f1.Float64()
	}
	for i := 0; i < 50; i++ {
		if g.Float64() != g2.Float64() {
			t.Fatal("fork consumption perturbed parent stream")
		}
	}
}

func TestUniformRange(t *testing.T) {
	g := NewRNG(3)
	for i := 0; i < 1000; i++ {
		v := g.Uniform(10, 20)
		if v < 10 || v >= 20 {
			t.Fatalf("Uniform(10,20) = %v out of range", v)
		}
	}
}

func TestNormalMoments(t *testing.T) {
	g := NewRNG(5)
	const n = 50000
	var sum, sq float64
	for i := 0; i < n; i++ {
		v := g.Normal(100, 15)
		sum += v
		sq += v * v
	}
	mean := sum / n
	sd := math.Sqrt(sq/n - mean*mean)
	if math.Abs(mean-100) > 0.5 {
		t.Errorf("mean = %v, want ~100", mean)
	}
	if math.Abs(sd-15) > 0.5 {
		t.Errorf("stddev = %v, want ~15", sd)
	}
}

func TestGammaMoments(t *testing.T) {
	g := NewRNG(11)
	const n = 50000
	k, theta := 2.0, 3.0
	var sum, sq float64
	for i := 0; i < n; i++ {
		v := g.Gamma(k, theta)
		if v < 0 {
			t.Fatalf("gamma sample %v < 0", v)
		}
		sum += v
		sq += v * v
	}
	mean := sum / n
	variance := sq/n - mean*mean
	if math.Abs(mean-k*theta) > 0.2 {
		t.Errorf("gamma mean = %v, want ~%v", mean, k*theta)
	}
	if math.Abs(variance-k*theta*theta) > 1.0 {
		t.Errorf("gamma var = %v, want ~%v", variance, k*theta*theta)
	}
}

func TestGammaShapeBelowOne(t *testing.T) {
	g := NewRNG(13)
	const n = 20000
	k, theta := 0.5, 2.0
	var sum float64
	for i := 0; i < n; i++ {
		v := g.Gamma(k, theta)
		if v < 0 {
			t.Fatalf("gamma sample %v < 0", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-k*theta) > 0.1 {
		t.Errorf("gamma(0.5,2) mean = %v, want ~1", mean)
	}
}

func TestGammaInvalidParamsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRNG(1).Gamma(0, 1)
}

func TestJitterBoundsProperty(t *testing.T) {
	g := NewRNG(19)
	f := func(raw uint32, fRaw uint8) bool {
		v := float64(raw%1000000) + 1
		frac := float64(fRaw%100) / 100
		j := g.Jitter(v, frac)
		lo, hi := v*(1-frac), v*(1+frac)
		return j >= lo-1e-9 && j <= hi+1e-9 && j > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestJitterZeroFractionIdentity(t *testing.T) {
	g := NewRNG(23)
	if got := g.Jitter(42, 0); got != 42 {
		t.Errorf("Jitter(42, 0) = %v, want 42", got)
	}
}

func TestJitterCapsFraction(t *testing.T) {
	g := NewRNG(29)
	for i := 0; i < 1000; i++ {
		if v := g.Jitter(10, 5.0); v <= 0 {
			t.Fatalf("Jitter with huge fraction produced non-positive %v", v)
		}
	}
}
