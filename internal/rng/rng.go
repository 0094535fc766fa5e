// Package rng provides the deterministic pseudo-random number generator
// and the distribution samplers used by every stochastic component of the
// DISC reproduction.
//
// The paper's evaluation model (§4.1) draws the number of consecutive
// active/inactive instructions, the spacing of external access requests
// and the I/O access times from Poisson distributions. All simulation
// results in this repository must be reproducible from a seed alone, so
// the package wraps a self-contained xorshift64* generator rather than
// math/rand global state.
package rng

import "math"

// Source is a deterministic xorshift64* pseudo-random generator.
//
// The zero value is not usable; construct with New. Two Sources created
// with the same seed produce identical sequences on every platform.
type Source struct {
	state uint64
}

// New returns a Source seeded with seed. A zero seed is remapped to a
// fixed non-zero constant because xorshift has an all-zero fixed point.
func New(seed uint64) *Source {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	s := &Source{state: seed}
	// Warm up so that small seeds (1, 2, 3...) decorrelate.
	for i := 0; i < 8; i++ {
		s.Uint64()
	}
	return s
}

// State returns the generator's internal state word. Together with
// SetState it lets a checkpoint capture a generator mid-sequence and
// resume it elsewhere with bit-identical continuation — the property
// the snapshot/restore layer (internal/snap) relies on for stochastic
// workloads and fault schedules.
func (s *Source) State() uint64 { return s.state }

// SetState overwrites the generator's internal state word, typically
// with a value previously returned by State. A zero state (the
// xorshift fixed point, which State can never legitimately return) is
// remapped the same way New remaps a zero seed, so a corrupted or
// adversarial snapshot cannot wedge the generator.
func (s *Source) SetState(v uint64) {
	if v == 0 {
		v = 0x9E3779B97F4A7C15
	}
	s.state = v
}

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Source) Uint64() uint64 {
	x := s.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	s.state = x
	return x * 0x2545F4914F6CDD1D
}

// Float64 returns a uniform float64 in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(s.Uint64() % uint64(n))
}

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool {
	return s.Float64() < p
}

// Poisson returns a sample from a Poisson distribution with the given
// mean. A non-positive mean yields 0, matching the paper's convention
// that a zero mean switches the corresponding behaviour off (for
// example meanoff = 0 means "always active").
//
// For small means it uses Knuth's product-of-uniforms method; for large
// means it switches to the PTRS transformed-rejection sampler to stay
// O(1) per sample. A caller that draws repeatedly at one mean should
// build a PoissonSampler once instead: Poisson is exactly
// NewPoissonSampler(mean).Sample(s).
func (s *Source) Poisson(mean float64) int {
	ps := NewPoissonSampler(mean)
	return ps.Sample(s)
}

// PoissonSampler draws Poisson samples at one fixed mean with
// exp(-mean), the threshold of Knuth's method, computed once instead of
// on every draw. Sample consumes the same uniforms and returns the same
// values as Source.Poisson at that mean, draw for draw, so a cached
// sampler never changes a seeded result.
type PoissonSampler struct {
	mean float64
	l    float64 // exp(-mean) when Knuth's method serves the mean
}

// ptrsMin is the smallest mean Poisson routes to PTRS.
const ptrsMin = 30

// NewPoissonSampler returns the sampler for mean. A non-positive mean
// yields a sampler that always returns 0 and draws nothing.
func NewPoissonSampler(mean float64) PoissonSampler {
	ps := PoissonSampler{mean: mean}
	if mean > 0 && mean < ptrsMin {
		ps.l = math.Exp(-mean)
	}
	return ps
}

// Sample draws one Poisson sample from s.
func (ps *PoissonSampler) Sample(s *Source) int {
	switch {
	case ps.mean <= 0:
		return 0
	case ps.mean < ptrsMin:
		k := 0
		p := 1.0
		for {
			p *= s.Float64()
			if p <= ps.l {
				return k
			}
			k++
		}
	default:
		return s.poissonPTRS(ps.mean)
	}
}

// poissonPTRS implements Hörmann's PTRS algorithm (transformed rejection
// with squeeze), which Hörmann states for means >= 10; Poisson routes
// it only means >= 30 (ptrsMin).
func (s *Source) poissonPTRS(mean float64) int {
	b := 0.931 + 2.53*math.Sqrt(mean)
	a := -0.059 + 0.02483*b
	invAlpha := 1.1239 + 1.1328/(b-3.4)
	vr := 0.9277 - 3.6224/(b-2)
	for {
		u := s.Float64() - 0.5
		v := s.Float64()
		us := 0.5 - math.Abs(u)
		k := math.Floor((2*a/us+b)*u + mean + 0.43)
		if us >= 0.07 && v <= vr {
			return int(k)
		}
		if k < 0 || (us < 0.013 && v > us) {
			continue
		}
		lg, _ := math.Lgamma(k + 1)
		if math.Log(v*invAlpha/(a/(us*us)+b)) <= k*math.Log(mean)-mean-lg {
			return int(k)
		}
	}
}

// Geometric returns a sample from a geometric distribution counting the
// number of failures before the first success, where each trial succeeds
// with probability p. It panics unless 0 < p <= 1.
func (s *Source) Geometric(p float64) int {
	if p <= 0 || p > 1 {
		panic("rng: Geometric probability out of (0,1]")
	}
	if p == 1 {
		return 0
	}
	u := s.Float64()
	for u == 0 {
		u = s.Float64()
	}
	return int(math.Log(u) / math.Log(1-p))
}

// Exponential returns an exponentially distributed sample with the
// given mean. A non-positive mean yields 0.
func (s *Source) Exponential(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	u := s.Float64()
	for u == 0 {
		u = s.Float64()
	}
	return -mean * math.Log(u)
}

// Shuffle permutes the first n elements using the Fisher-Yates
// algorithm, calling swap(i, j) for each exchange.
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}

// Fork derives an independent child Source from the current state so
// that subsystems (one per instruction stream, say) can draw without
// perturbing each other's sequences.
func (s *Source) Fork() *Source {
	return New(s.Uint64() ^ 0xD1B54A32D192ED03)
}

// Child derives the seed of run index from a root seed, SplitMix64
// style: the root is advanced by (index+1) steps of the golden-ratio
// Weyl sequence and the result is passed through the SplitMix64
// finalizer. Unlike Fork, Child is a pure function of (root, index):
// replication r of an experiment gets the same seed no matter how many
// worker goroutines the sweep engine uses or in which order the runs
// execute — the determinism contract of internal/parallel rests on it.
// Distinct indices under one root yield decorrelated, never-shared
// generator states.
func Child(root, index uint64) uint64 {
	z := root + (index+1)*0x9E3779B97F4A7C15
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

// NewChild returns New(Child(root, index)): the ready-to-use generator
// for one run of a replicated experiment.
func NewChild(root, index uint64) *Source {
	return New(Child(root, index))
}
