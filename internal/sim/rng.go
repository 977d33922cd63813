package sim

import (
	"math"
	"math/rand"
)

// RNG is a deterministic random source for simulations. All stochastic
// elements of the substrates (service-time jitter, data-distribution
// sampling, workload think times) draw from an explicitly seeded RNG so
// that runs are reproducible; nothing in this repository uses the global
// math/rand state.
type RNG struct {
	r *rand.Rand
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Fork derives an independent generator from this one, used to give each
// rank or subsystem its own stream without coupling their consumption.
func (g *RNG) Fork() *RNG { return NewRNG(g.r.Int63()) }

// Float64 returns a uniform sample in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform sample in [0, n). It panics if n <= 0.
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Int63n returns a uniform int64 sample in [0, n).
func (g *RNG) Int63n(n int64) int64 { return g.r.Int63n(n) }

// Uniform returns a uniform sample in [lo, hi).
func (g *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*g.r.Float64()
}

// Normal returns a normal sample with the given mean and standard
// deviation.
func (g *RNG) Normal(mean, stddev float64) float64 {
	return mean + stddev*g.r.NormFloat64()
}

// Gamma returns a gamma sample with the given shape k and scale theta,
// using the Marsaglia–Tsang method. CosmoFlow's voxel data distribution is
// characterized as gamma in Table VI; this sampler lets the synthetic
// dataset generator reproduce that shape.
func (g *RNG) Gamma(k, theta float64) float64 {
	if k <= 0 || theta <= 0 {
		panic("sim: gamma parameters must be positive")
	}
	if k < 1 {
		// Boost: Gamma(k) = Gamma(k+1) * U^(1/k).
		u := g.r.Float64()
		return g.Gamma(k+1, theta) * math.Pow(u, 1/k)
	}
	d := k - 1.0/3.0
	c := 1.0 / math.Sqrt(9*d)
	for {
		x := g.r.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := g.r.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v * theta
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v * theta
		}
	}
}

// Shuffle pseudo-randomly permutes n elements using swap.
func (g *RNG) Shuffle(n int, swap func(i, j int)) { g.r.Shuffle(n, swap) }

// Jitter returns v scaled by a uniform factor in [1-f, 1+f]. It models
// service-time noise; f <= 0 returns v unchanged and f is capped at 0.99 so
// the result stays positive.
func (g *RNG) Jitter(v float64, f float64) float64 {
	if f <= 0 {
		return v
	}
	if f > 0.99 {
		f = 0.99
	}
	return v * g.Uniform(1-f, 1+f)
}
