package fault

import (
	"disc/internal/core"
	"disc/internal/obs"
	"disc/internal/rng"
)

// Injector perturbs a machine from outside, once per cycle. Tick runs
// before the machine's own Step so an injected event is visible to the
// very cycle it lands on.
type Injector interface {
	Tick(m *core.Machine)
}

// StormConfig shapes an interrupt storm.
type StormConfig struct {
	// Seed feeds the storm's private generator.
	Seed uint64
	// MeanGap is the mean number of cycles between bursts (exponential
	// spacing, matching the paper's Poisson event model). Values below
	// 1 are treated as 1.
	MeanGap float64
	// Streams are the target streams; empty means stream 0 only.
	Streams []int
	// Bits are the IR bits raised; empty means bit 1.
	Bits []uint8
	// Burst is how many requests land per firing (minimum 1).
	Burst int
}

// Storm raises bursts of interrupt requests at seeded random intervals
// — the "screaming device" scenario. Determinism: the firing schedule
// is a pure function of the config, advanced once per Tick.
type Storm struct {
	cfg  StormConfig
	src  *rng.Source
	next uint64 // cycle count at which the next burst fires
	tick uint64

	Raised uint64 // total requests raised
}

// NewStorm builds a storm generator from cfg.
func NewStorm(cfg StormConfig) *Storm {
	if cfg.MeanGap < 1 {
		cfg.MeanGap = 1
	}
	if len(cfg.Streams) == 0 {
		cfg.Streams = []int{0}
	}
	if len(cfg.Bits) == 0 {
		cfg.Bits = []uint8{1}
	}
	if cfg.Burst < 1 {
		cfg.Burst = 1
	}
	s := &Storm{cfg: cfg, src: rng.New(cfg.Seed)}
	s.next = s.gap()
	return s
}

func (s *Storm) gap() uint64 {
	return s.tick + 1 + uint64(s.src.Exponential(s.cfg.MeanGap))
}

// Tick fires a burst when the schedule says so.
func (s *Storm) Tick(m *core.Machine) {
	s.tick++
	if s.tick < s.next {
		return
	}
	for i := 0; i < s.cfg.Burst; i++ {
		stream := s.cfg.Streams[s.src.Intn(len(s.cfg.Streams))]
		bit := s.cfg.Bits[s.src.Intn(len(s.cfg.Bits))]
		m.RaiseIRQ(uint8(stream), bit)
		s.Raised++
	}
	s.next = s.gap()
}

// StreamStall freezes one stream for a fixed period — the stuck-stream
// injector. At cycle At the stream stops issuing for For cycles.
type StreamStall struct {
	Stream int
	At     uint64
	For    uint64
}

// Tick arms the stall when the machine reaches the trigger cycle.
func (st StreamStall) Tick(m *core.Machine) {
	if m.Cycle() == st.At {
		m.StallStream(st.Stream, st.For)
	}
}

// Run steps the machine for n cycles under the given injectors.
func Run(m *core.Machine, n int, inj ...Injector) {
	for i := 0; i < n; i++ {
		for _, j := range inj {
			j.Tick(m)
		}
		m.Step()
	}
}

// RunGuarded steps the machine under the given injectors with the
// liveness watchdog armed: it stops on clean idle, a diagnosed
// deadlock (*core.DeadlockError) or the cycle budget
// (*core.CycleLimitError). maxCycles 0 means unlimited; stallWindow 0
// disables the deadlock watchdog.
func RunGuarded(m *core.Machine, maxCycles int, stallWindow uint64, inj ...Injector) (int, error) {
	g := m.NewGuard(stallWindow)
	for n := 0; maxCycles == 0 || n < maxCycles; n++ {
		for _, j := range inj {
			j.Tick(m)
		}
		done, err := g.Step()
		if err != nil {
			return n + 1, err
		}
		if done {
			return n + 1, nil
		}
	}
	return maxCycles, &core.CycleLimitError{Limit: maxCycles, PostMortem: m.PostMortem(obs.DefaultPostMortemEvents)}
}
