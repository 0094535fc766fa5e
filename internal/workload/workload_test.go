package workload

import (
	"math"
	"testing"

	"disc/internal/rng"
)

func TestValidate(t *testing.T) {
	bad := []Params{
		{Name: "a", Alpha: -0.1},
		{Name: "b", Alpha: 1.1},
		{Name: "c", AlJmp: 2},
		{Name: "d", TMem: -1},
	}
	for _, p := range bad {
		if p.Validate() == nil {
			t.Errorf("%s accepted", p.Name)
		}
	}
	for _, p := range Base() {
		if err := p.Validate(); err != nil {
			t.Errorf("base load rejected: %v", err)
		}
	}
	if (Load{Name: "empty"}).Validate() == nil {
		t.Error("empty load accepted")
	}
	for _, l := range Combined() {
		if err := l.Validate(); err != nil {
			t.Errorf("combined load rejected: %v", err)
		}
	}
}

func TestAlwaysActiveLoadNeverIdles(t *testing.T) {
	p := NewProcess(Simple(Ld1), rng.New(1))
	for i := 0; i < 10000; i++ {
		if !p.Active() {
			t.Fatal("always-active load went inactive")
		}
		p.Issue()
	}
}

func TestOnOffDutyCycle(t *testing.T) {
	// Ld2 has meanon == meanoff == 50: over a long run, roughly half
	// the time steps should be active.
	p := NewProcess(Simple(Ld2), rng.New(7))
	active, total := 0, 200000
	for i := 0; i < total; i++ {
		if p.Active() {
			active++
			p.Issue()
		} else {
			p.TickIdle()
		}
	}
	duty := float64(active) / float64(total)
	if math.Abs(duty-0.5) > 0.05 {
		t.Fatalf("duty cycle = %.3f, want ~0.5", duty)
	}
}

func TestJumpFraction(t *testing.T) {
	p := NewProcess(Simple(Ld3), rng.New(3))
	jumps, n := 0, 100000
	for i := 0; i < n; i++ {
		kind, _ := p.Issue()
		if kind == KindJump {
			jumps++
		}
	}
	frac := float64(jumps) / float64(n)
	if math.Abs(frac-Ld3.AlJmp) > 0.01 {
		t.Fatalf("jump fraction = %.4f, want ~%.2f", frac, Ld3.AlJmp)
	}
}

func TestRequestSpacingAndMix(t *testing.T) {
	p := NewProcess(Simple(Ld1), rng.New(11))
	reqs, mem, n := 0, 0, 200000
	var totalLat int
	for i := 0; i < n; i++ {
		kind, lat := p.Issue()
		if kind == KindRequest {
			reqs++
			if lat == Ld1.TMem {
				mem++
			} else {
				totalLat += lat
			}
		}
	}
	spacing := float64(n) / float64(reqs)
	if math.Abs(spacing-Ld1.MeanReq) > 1 {
		t.Fatalf("request spacing = %.2f, want ~%.0f", spacing, Ld1.MeanReq)
	}
	memFrac := float64(mem) / float64(reqs)
	if math.Abs(memFrac-Ld1.Alpha) > 0.05 {
		t.Fatalf("memory fraction = %.3f, want ~%.2f", memFrac, Ld1.Alpha)
	}
	ioCount := reqs - mem
	if ioCount > 0 {
		meanIO := float64(totalLat) / float64(ioCount)
		if math.Abs(meanIO-Ld1.MeanIO) > 2 {
			t.Fatalf("mean io = %.2f, want ~%.0f", meanIO, Ld1.MeanIO)
		}
	}
}

func TestNoRequestsWhenMeanReqZero(t *testing.T) {
	p := NewProcess(Simple(Ld3), rng.New(5))
	for i := 0; i < 50000; i++ {
		if kind, _ := p.Issue(); kind == KindRequest {
			t.Fatal("internal-only load issued an external request")
		}
	}
}

// TestCombinedAlternates: a composite of an always-active and a bursty
// load must exhibit phases of both behaviours — in particular it must
// sometimes idle (Ld4 gaps) and must issue external requests at Ld1's
// spacing during Ld1 phases.
func TestCombinedAlternates(t *testing.T) {
	l := Combine("1:4", Simple(Ld1), Simple(Ld4))
	p := NewProcess(l, rng.New(13))
	idle, steps := 0, 300000
	reqs := 0
	for i := 0; i < steps; i++ {
		if p.Active() {
			if kind, _ := p.Issue(); kind == KindRequest {
				reqs++
			}
		} else {
			p.TickIdle()
			idle++
		}
	}
	if idle == 0 {
		t.Fatal("composite never idled despite Ld4 phases")
	}
	if idle > steps/2 {
		t.Fatalf("composite idle %d of %d steps; Ld1 phases missing", idle, steps)
	}
	if reqs == 0 {
		t.Fatal("composite issued no external requests")
	}
}

func TestCombineName(t *testing.T) {
	l := Combine("xy", Simple(Ld1), Simple(Ld2))
	if l.Name != "xy" || len(l.Phases) != 2 {
		t.Fatalf("combine wrong: %+v", l)
	}
}

func TestProcessDeterminism(t *testing.T) {
	a := NewProcess(Simple(Ld4), rng.New(42))
	b := NewProcess(Simple(Ld4), rng.New(42))
	for i := 0; i < 10000; i++ {
		if a.Active() != b.Active() {
			t.Fatal("activity diverged")
		}
		if a.Active() {
			ka, la := a.Issue()
			kb, lb := b.Issue()
			if ka != kb || la != lb {
				t.Fatal("issue sequence diverged")
			}
		} else {
			a.TickIdle()
			b.TickIdle()
		}
	}
}

// TestProcessStateRoundTrip: a process checkpointed mid-burst and
// rewound into a twin must issue the identical request/idle schedule
// from that point on — the property the snapshot layer relies on for
// stochastic workloads. The second checkpoint falls mid-way through a
// composite's second phase, restored into a twin still in its first,
// so the twin's cached phase must follow SetState.
func TestProcessStateRoundTrip(t *testing.T) {
	step := func(p *Process) {
		if p.Active() {
			p.Issue()
		} else {
			p.TickIdle()
		}
	}
	afterSteps := func(p *Process) bool {
		for i := 0; i < 5000; i++ {
			step(p)
		}
		return true
	}
	midSecondPhase := func(p *Process) bool {
		for i, inPhase := 0, 0; i < 100000; i++ {
			step(p)
			if st := p.State(); st.Phase == 1 && p.Active() {
				if inPhase++; inPhase >= 5 && st.OnLeft >= 2 {
					return true
				}
			} else {
				inPhase = 0
			}
		}
		return false
	}
	for _, load := range Combined() {
		for ci, capture := range []func(*Process) bool{afterSteps, midSecondPhase} {
			a := NewProcess(load, rng.New(7))
			if !capture(a) {
				t.Fatalf("%s: never reached checkpoint %d", load.Name, ci)
			}
			mid := a.State()
			b := NewProcess(load, rng.New(1234))
			b.SetState(mid)
			for i := 0; i < 5000; i++ {
				if aa, ba := a.Active(), b.Active(); aa != ba {
					t.Fatalf("%s checkpoint %d step %d: activity diverged", load.Name, ci, i)
				}
				if a.Active() {
					ak, al := a.Issue()
					bk, bl := b.Issue()
					if ak != bk || al != bl {
						t.Fatalf("%s checkpoint %d step %d: issue diverged (%v/%d vs %v/%d)",
							load.Name, ci, i, ak, al, bk, bl)
					}
				} else {
					a.TickIdle()
					b.TickIdle()
				}
			}
			if a.State() != b.State() {
				t.Fatalf("%s checkpoint %d: final states diverged", load.Name, ci)
			}
		}
	}
}

// TestSkipIdleMatchesTickIdle: skipping k cycles of an off gap must
// leave the process exactly where k TickIdle calls leave it, for every
// k up to the whole gap, and the two must go on to issue identically.
func TestSkipIdleMatchesTickIdle(t *testing.T) {
	short := Params{Name: "short", MeanOn: 3, MeanOff: 2, MeanReq: 4, Alpha: 0.5, TMem: 3, MeanIO: 40}
	loads := []Load{Simple(Ld2), Simple(Ld4), Simple(short), Combined()[0], Combined()[2]} // loads with off gaps
	for _, load := range loads {
		p := NewProcess(load, rng.New(21))
		for gaps := 0; gaps < 20; {
			if p.Active() {
				p.Issue()
				continue
			}
			gaps++
			st := p.State()
			for k := 1; k <= st.OffLeft; k++ {
				a, b := NewProcess(load, rng.New(1)), NewProcess(load, rng.New(2))
				a.SetState(st)
				b.SetState(st)
				a.SkipIdle(k)
				for i := 0; i < k; i++ {
					b.TickIdle()
				}
				if a.State() != b.State() || a.OffLeft() != st.OffLeft-k {
					t.Fatalf("%s gap %d, k=%d of %d: skip %+v, ticks %+v",
						load.Name, gaps, k, st.OffLeft, a.State(), b.State())
				}
				for i := 0; i < 50 && a.Active(); i++ {
					ak, al := a.Issue()
					bk, bl := b.Issue()
					if ak != bk || al != bl {
						t.Fatalf("%s gap %d, k=%d: issue %d diverged", load.Name, gaps, k, i)
					}
				}
			}
			p.TickIdle()
		}
	}
}

// TestProcessSetStateClampsPhase: an out-of-range phase index from an
// adversarial snapshot must not make params() panic.
func TestProcessSetStateClampsPhase(t *testing.T) {
	p := NewProcess(Simple(Ld1), rng.New(1))
	s := p.State()
	s.Phase = 99
	p.SetState(s)
	if p.Active() {
		p.Issue() // must not panic
	}
}
