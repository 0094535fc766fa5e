package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("sequence diverged at step %d", i)
		}
	}
}

func TestZeroSeedUsable(t *testing.T) {
	s := New(0)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[s.Uint64()] = true
	}
	if len(seen) < 100 {
		t.Fatalf("zero-seeded source repeats values: %d distinct of 100", len(seen))
	}
}

func TestDistinctSeedsDiverge(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 collided %d times in 100 draws", same)
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(7)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(11)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	s := New(3)
	for n := 1; n <= 17; n++ {
		for i := 0; i < 1000; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestPoissonMeanVariance(t *testing.T) {
	// Poisson mean == variance; check both at small and large means,
	// covering the Knuth and PTRS code paths.
	for _, mean := range []float64{0.5, 3, 12, 50, 200} {
		s := New(99)
		const n = 60000
		sum, sumSq := 0.0, 0.0
		for i := 0; i < n; i++ {
			v := float64(s.Poisson(mean))
			sum += v
			sumSq += v * v
		}
		m := sum / n
		variance := sumSq/n - m*m
		if math.Abs(m-mean) > 0.05*mean+0.1 {
			t.Errorf("Poisson(%v): sample mean %v", mean, m)
		}
		if math.Abs(variance-mean) > 0.12*mean+0.2 {
			t.Errorf("Poisson(%v): sample variance %v", mean, variance)
		}
	}
}

func TestPoissonNonPositiveMean(t *testing.T) {
	s := New(5)
	if got := s.Poisson(0); got != 0 {
		t.Fatalf("Poisson(0) = %d, want 0", got)
	}
	if got := s.Poisson(-4); got != 0 {
		t.Fatalf("Poisson(-4) = %d, want 0", got)
	}
}

func TestPoissonNonNegativeProperty(t *testing.T) {
	s := New(123)
	f := func(mean uint8) bool {
		return s.Poisson(float64(mean)) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGeometricMean(t *testing.T) {
	s := New(17)
	p := 0.2
	const n = 100000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += float64(s.Geometric(p))
	}
	mean := sum / n
	want := (1 - p) / p // failures before first success
	if math.Abs(mean-want) > 0.1*want {
		t.Fatalf("Geometric(%v) mean = %v, want ~%v", p, mean, want)
	}
}

func TestGeometricEdge(t *testing.T) {
	s := New(1)
	if got := s.Geometric(1); got != 0 {
		t.Fatalf("Geometric(1) = %d, want 0", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Geometric(0) did not panic")
		}
	}()
	s.Geometric(0)
}

func TestExponentialMean(t *testing.T) {
	s := New(23)
	const n, mean = 100000, 40.0
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.Exponential(mean)
	}
	got := sum / n
	if math.Abs(got-mean) > 0.05*mean {
		t.Fatalf("Exponential mean = %v, want ~%v", got, mean)
	}
	if s.Exponential(0) != 0 {
		t.Fatal("Exponential(0) != 0")
	}
}

func TestBoolProbability(t *testing.T) {
	s := New(31)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if s.Bool(0.3) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) hit rate %v", frac)
	}
	if s.Bool(0) {
		t.Fatal("Bool(0) returned true")
	}
}

func TestShuffleIsPermutation(t *testing.T) {
	s := New(41)
	f := func(n uint8) bool {
		size := int(n%32) + 1
		xs := make([]int, size)
		for i := range xs {
			xs[i] = i
		}
		s.Shuffle(size, func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
		seen := make([]bool, size)
		for _, v := range xs {
			if v < 0 || v >= size || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestForkIndependence(t *testing.T) {
	parent := New(55)
	child := parent.Fork()
	// The child must not replay the parent's stream.
	a := make([]uint64, 50)
	for i := range a {
		a[i] = parent.Uint64()
	}
	for i := 0; i < 50; i++ {
		v := child.Uint64()
		for _, pv := range a {
			if v == pv {
				t.Fatal("fork shares values with parent stream")
			}
		}
	}
}

func BenchmarkPoissonSmallMean(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		s.Poisson(8)
	}
}

func BenchmarkPoissonLargeMean(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		s.Poisson(500)
	}
}

// TestStateRoundTrip pins the checkpoint contract: capture State
// mid-sequence, continue; a second source rewound with SetState must
// reproduce the identical continuation, across every draw kind the
// simulator uses.
func TestStateRoundTrip(t *testing.T) {
	a := New(42)
	for i := 0; i < 1000; i++ {
		a.Uint64()
	}
	mid := a.State()
	b := New(99) // different seed, fully overwritten by SetState
	b.SetState(mid)
	for i := 0; i < 1000; i++ {
		if x, y := a.Uint64(), b.Uint64(); x != y {
			t.Fatalf("draw %d: %#x vs %#x", i, x, y)
		}
		if x, y := a.Intn(100), b.Intn(100); x != y {
			t.Fatalf("Intn draw %d: %d vs %d", i, x, y)
		}
		if x, y := a.Exponential(50), b.Exponential(50); x != y {
			t.Fatalf("Exponential draw %d: %v vs %v", i, x, y)
		}
	}
	if a.State() != b.State() {
		t.Fatalf("final states diverged: %#x vs %#x", a.State(), b.State())
	}
}

// TestSetStateZeroSafe: zero is the xorshift fixed point and can never
// be a legitimate State() value, so a corrupted snapshot carrying it
// must be remapped to a usable generator, not a wedged one.
func TestSetStateZeroSafe(t *testing.T) {
	s := New(1)
	s.SetState(0)
	seen := make(map[uint64]bool)
	for i := 0; i < 10; i++ {
		seen[s.Uint64()] = true
	}
	if len(seen) < 2 {
		t.Fatal("generator wedged after SetState(0)")
	}
}

// TestPoissonSamplerMatchesPoisson: a cached sampler, reused across
// draws, must be draw-for-draw Source.Poisson — the same values and the
// same generator state after every draw — and both must match the
// per-call formulation below (exp(-mean) recomputed on every draw), on
// both sides of the Knuth/PTRS switch and
// for the non-positive means that draw nothing.
func TestPoissonSamplerMatchesPoisson(t *testing.T) {
	for _, mean := range []float64{-1, 0, 0.5, 4, 10, 29.999, 30, 50, 80} {
		seed := uint64(mean*1000) + 5
		ref, a, b := New(seed), New(seed), New(seed)
		ps := NewPoissonSampler(mean)
		for i := 0; i < 10000; i++ {
			want := poissonPerCall(ref, mean)
			if got := a.Poisson(mean); got != want || a.State() != ref.State() {
				t.Fatalf("mean %v draw %d: Poisson %d state %#x, per-call %d state %#x",
					mean, i, got, a.State(), want, ref.State())
			}
			if got := ps.Sample(b); got != want || b.State() != ref.State() {
				t.Fatalf("mean %v draw %d: sampler %d state %#x, per-call %d state %#x",
					mean, i, got, b.State(), want, ref.State())
			}
		}
	}
}

// poissonPerCall is Knuth's method before its threshold was cached:
// every draw recomputes exp(-mean). Large means go to PTRS as before.
func poissonPerCall(s *Source, mean float64) int {
	switch {
	case mean <= 0:
		return 0
	case mean >= 30:
		return s.poissonPTRS(mean)
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= s.Float64()
		if p <= l {
			return k
		}
		k++
	}
}
