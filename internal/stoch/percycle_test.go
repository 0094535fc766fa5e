package stoch

import (
	"fmt"
	"reflect"
	"testing"

	"disc/internal/rng"
	"disc/internal/sched"
	"disc/internal/workload"
)

// refSlot is the per-cycle loop's pipe slot.
type refSlot struct {
	valid   bool
	is      int
	kind    workload.Kind
	latency int // for requests
}

// refState is the per-cycle loop's stream state.
type refState struct {
	proc     *workload.Process
	waiting  bool
	retry    bool // re-issue a flushed request after reactivation
	retryLat int
}

// runPerCycle is Run as it stood before the idle-gap jump: every cycle
// one at a time, the pipe shifted by copy, the dead-cycle test a scan
// of channels, streams and slots. It is kept verbatim as the oracle
// that Run must match field for field.
func runPerCycle(cfg Config) (Result, error) {
	if len(cfg.Streams) == 0 {
		return Result{}, fmt.Errorf("stoch: no streams configured")
	}
	pipeLen := cfg.PipeLen
	if pipeLen == 0 {
		pipeLen = DefaultPipeLen
	}
	if pipeLen < 2 {
		return Result{}, fmt.Errorf("stoch: pipe length %d < 2", pipeLen)
	}
	cycles := cfg.Cycles
	if cycles == 0 {
		cycles = DefaultCycles
	}
	var sc *sched.Scheduler
	var err error
	if cfg.Slots != nil {
		sc, err = sched.NewTable(cfg.Slots, len(cfg.Streams))
	} else {
		sc = sched.NewEven(len(cfg.Streams))
	}
	if err != nil {
		return Result{}, err
	}

	buses := cfg.Buses
	if buses == 0 {
		buses = 1
	}
	if buses < 1 || buses > 8 {
		return Result{}, fmt.Errorf("stoch: %d buses outside 1..8", buses)
	}
	root := rng.New(cfg.Seed)
	streams := make([]*refState, len(cfg.Streams))
	for i, l := range cfg.Streams {
		if err := l.Validate(); err != nil {
			return Result{}, err
		}
		streams[i] = &refState{proc: workload.NewProcess(l, root.Fork())}
	}

	res := Result{PerStream: make([]StreamResult, len(streams))}
	pipe := make([]refSlot, pipeLen)
	busBusy := make([]int, buses)
	freeBus := func() int {
		for i, b := range busBusy {
			if b == 0 {
				return i
			}
		}
		return -1
	}

	// readyMask rebuilds the scheduler's ready bits for this cycle.
	readyMask := func() sched.ReadyMask {
		var m sched.ReadyMask
		for i, s := range streams {
			m.SetTo(i, !s.waiting && s.proc.Active())
		}
		return m
	}

	for c := uint64(0); c < cycles; c++ {
		res.Cycles++

		// Live-cycle accounting: dead means every stream is in an off
		// gap, nothing is in flight and the bus is quiet.
		dead := true
		for _, b := range busBusy {
			if b > 0 {
				dead = false
				break
			}
		}
		if dead {
			for _, s := range streams {
				if s.waiting || s.proc.Active() {
					dead = false
					break
				}
			}
		}
		if dead {
			for i := range pipe {
				if pipe[i].valid {
					dead = false
					break
				}
			}
		}
		if !dead {
			res.LiveCycles++
		}

		// Bus advance; any completion reactivates all waiting ISs
		// (§3.6.1); with multiple channels the busy count sums them.
		completed := false
		for i := range busBusy {
			if busBusy[i] > 0 {
				busBusy[i]--
				res.BusBusy++
				if busBusy[i] == 0 {
					completed = true
				}
			}
		}
		if completed {
			for _, s := range streams {
				s.waiting = false
			}
		}

		// Complete the instruction leaving the pipe.
		done := pipe[pipeLen-1]
		copy(pipe[1:], pipe[:pipeLen-1])
		pipe[0] = refSlot{}
		if done.valid {
			m := &res.PerStream[done.is]
			s := streams[done.is]
			switch done.kind {
			case workload.KindJump:
				// The jump takes place: flush every same-IS
				// instruction still in the pipe.
				res.Executed++
				m.Executed++
				m.Jumps++
				for i := range pipe {
					if pipe[i].valid && pipe[i].is == done.is {
						pipe[i] = refSlot{}
						res.Flushed++
						m.Flushed++
					}
				}
			case workload.KindRequest:
				if done.latency <= 0 {
					// Zero-time access: nothing blocks.
					res.Executed++
					m.Executed++
					break
				}
				if ch := freeBus(); ch < 0 {
					// All channels busy: this instruction is flushed
					// (it does not complete) and the access is
					// re-requested after reactivation.
					res.Flushed++
					m.Flushed++
					m.Rejects++
					s.waiting = true
					s.retry = true
					s.retryLat = done.latency
				} else {
					res.Executed++
					m.Executed++
					m.Requests++
					busBusy[ch] = done.latency
					s.waiting = true
				}
				// Either way the IS's other in-flight work flushes.
				for i := range pipe {
					if pipe[i].valid && pipe[i].is == done.is {
						pipe[i] = refSlot{}
						res.Flushed++
						m.Flushed++
					}
				}
			default:
				res.Executed++
				m.Executed++
			}
		}

		// Idle/off bookkeeping and issue.
		for i, s := range streams {
			if s.waiting {
				res.PerStream[i].WaitCycles++
			} else if !s.proc.Active() {
				s.proc.TickIdle()
				res.PerStream[i].OffCycles++
			}
		}
		id, _, ok := sc.Next(readyMask())
		if !ok {
			res.IdleSlots++
			continue
		}
		s := streams[id]
		var kind workload.Kind
		var lat int
		if s.retry {
			kind, lat = workload.KindRequest, s.retryLat
			s.retry = false
		} else {
			kind, lat = s.proc.Issue()
		}
		pipe[0] = refSlot{valid: true, is: id, kind: kind, latency: lat}
	}
	return res, nil
}

// TestRunMatchesPerCycle: Run, with its idle-gap jump, ring pipe and
// event-driven readiness (the ready mask and the wait and off counts
// change only at transitions, not in a pass over the streams each
// cycle), must return the identical Result — PerStream included — as
// the per-cycle loop, over seeded random configurations: pipe lengths
// 2–8, 1–8 buses, 1–16 streams, explicit slot tables, composite loads,
// random parameters (I/O means ≥ 30 take the PTRS sampler, off gaps of
// 1–3 cycles end on the next cycle), saturated buses that reject and
// retry, and budgets that end inside a gap; then over the named
// transitionCases.
func TestRunMatchesPerCycle(t *testing.T) {
	n := 300
	if testing.Short() {
		n = 60
	}
	for seed := uint64(1); seed <= uint64(n); seed++ {
		checkMatchesPerCycle(t, randomConfig(seed))
	}
	// Every budget up to 400 cycles on bursty loads: most end inside
	// an off gap or a bus wait.
	bursty := []workload.Load{workload.Simple(workload.Ld4), workload.Simple(workload.Ld2)}
	for c := uint64(1); c <= 400; c++ {
		checkMatchesPerCycle(t, Config{Cycles: c, Seed: c, Streams: bursty[:1]})
		checkMatchesPerCycle(t, Config{Cycles: c, Seed: c, Streams: bursty, PipeLen: 2})
	}
	for _, tc := range transitionCases {
		t.Run(tc.name, func(t *testing.T) {
			for _, cfg := range tc.cfgs() {
				checkMatchesPerCycle(t, cfg)
			}
		})
	}
}

// frozen ends most bursts with a long request, so its off gap starts
// ticking while the request is in the pipe and freezes when the
// request leaves it and the stream waits on the bus.
var frozen = workload.Simple(workload.Params{Name: "frozen", MeanOn: 1, MeanOff: 40,
	MeanReq: 1, Alpha: 1, TMem: 25})

// transitionCases aim at one transition each of Run's event-driven
// readiness.
var transitionCases = []struct {
	name string
	cfgs func() []Config
}{
	{"burst-ending-request-freezes-gap", func() (cs []Config) {
		for seed := uint64(1); seed <= 40; seed++ {
			cs = append(cs,
				Config{Cycles: 3000, Seed: seed, Streams: []workload.Load{frozen}},
				Config{Cycles: 3000, Seed: seed, PipeLen: 6, Buses: 2,
					Streams: []workload.Load{frozen, frozen, workload.Simple(workload.Ld2)}})
		}
		return cs
	}},
	{"wake-with-bus-completion", func() (cs []Config) {
		// At pipe length 2 a gap of 2 has one tick left when its
		// burst-ending request leaves the pipe, so it ends in the
		// cycle the 3-cycle access completes; the second stream's short
		// gaps end on completion cycles too.
		short := workload.Simple(workload.Params{Name: "short", MeanOn: 1, MeanOff: 2,
			MeanReq: 1, Alpha: 1, TMem: 3})
		gaps := workload.Simple(workload.Params{Name: "gaps", MeanOn: 2, MeanOff: 3})
		for seed := uint64(1); seed <= 40; seed++ {
			cs = append(cs,
				Config{Cycles: 2000, Seed: seed, PipeLen: 2, Streams: []workload.Load{short}},
				Config{Cycles: 2000, Seed: seed, PipeLen: 2, Streams: []workload.Load{short, gaps}},
				Config{Cycles: 2000, Seed: seed, PipeLen: 3, Streams: []workload.Load{short, short, gaps}})
		}
		return cs
	}},
	{"one-cycle-gaps", func() (cs []Config) {
		// A mean this small draws 0, which becomes a gap of 1: the
		// stream is off for one cycle and ready in the next.
		blink := workload.Simple(workload.Params{Name: "blink", MeanOn: 3, MeanOff: 0.01,
			MeanReq: 4, Alpha: 0.5, TMem: 2, MeanIO: 5, AlJmp: 0.3})
		for seed := uint64(1); seed <= 40; seed++ {
			cs = append(cs,
				Config{Cycles: 2000, Seed: seed, Streams: []workload.Load{blink}},
				Config{Cycles: 2000, Seed: seed, PipeLen: 2, Streams: []workload.Load{blink, blink}},
				Config{Cycles: 2000, Seed: seed, Streams: []workload.Load{blink, frozen, blink}})
		}
		return cs
	}},
	{"budget-ends-in-frozen-gap", func() (cs []Config) {
		for c := uint64(1); c <= 300; c++ {
			cs = append(cs,
				Config{Cycles: c, Seed: c, Streams: []workload.Load{frozen}},
				Config{Cycles: c, Seed: c, PipeLen: 2, Streams: []workload.Load{frozen, frozen}})
		}
		return cs
	}},
	{"donations-across-16-streams", func() (cs []Config) {
		// Stream 0 owns every slot and mostly waits, so nearly every
		// slot is donated round-robin among the other fifteen, whose
		// bursts and gaps keep changing the ready mask.
		hog := workload.Simple(workload.Params{Name: "hog", MeanReq: 2, Alpha: 1, TMem: 30})
		others := []workload.Load{workload.Simple(workload.Ld2), workload.Simple(workload.Ld4),
			frozen, workload.Combined()[2]}
		for seed := uint64(1); seed <= 20; seed++ {
			streams := []workload.Load{hog}
			for i := 1; i < sched.MaxStreams; i++ {
				streams = append(streams, others[(i+int(seed))%len(others)])
			}
			cs = append(cs, Config{Cycles: 4000, Seed: seed, Slots: []int{0}, Buses: 2, Streams: streams})
		}
		return cs
	}},
}

// FuzzRunMatchesPerCycle is TestRunMatchesPerCycle over fuzzed seeds;
// the seed corpus runs under go test.
func FuzzRunMatchesPerCycle(f *testing.F) {
	// 15869, 13560, 3492, 4225 and 4807 drive the event-driven
	// transitions hardest: frozen off gaps, wakes on bus-completion
	// cycles, 1-cycle gaps, donations across 16 streams and a budget
	// that ends inside a frozen gap.
	for _, s := range []uint64{0, 7, 13, 14, 1991, 1 << 40, 0xDEADBEEF, 15869, 13560, 3492, 4225, 4807} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		checkMatchesPerCycle(t, randomConfig(seed))
	})
}

func checkMatchesPerCycle(t *testing.T, cfg Config) {
	t.Helper()
	want, werr := runPerCycle(cfg)
	got, gerr := Run(cfg)
	if (werr != nil) != (gerr != nil) {
		t.Fatalf("%+v: error %v, per-cycle error %v", cfg, gerr, werr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%+v:\n got %+v\nwant %+v", cfg, got, want)
	}
}

// randomConfig draws one model configuration from seed.
func randomConfig(seed uint64) Config {
	r := rng.New(seed)
	nStreams := 1 + r.Intn(16)
	if r.Bool(0.5) {
		nStreams = 1 + r.Intn(4) // the paper's range, drawn more often
	}
	cfg := Config{
		PipeLen: 2 + r.Intn(7),
		Cycles:  1 + uint64(r.Intn(6000)),
		Seed:    r.Uint64(),
		Buses:   r.Intn(9), // 0 selects the default single channel
		Streams: make([]workload.Load, nStreams),
	}
	if r.Bool(0.3) {
		cfg.Slots = make([]int, 1+r.Intn(32))
		for i := range cfg.Slots {
			cfg.Slots[i] = r.Intn(nStreams)
		}
	}
	// A saturated mix: short request spacing, long accesses, one bus.
	saturated := r.Bool(0.2)
	if saturated {
		cfg.Buses = 1
	}
	for i := range cfg.Streams {
		switch r.Intn(4) {
		case 0:
			cfg.Streams[i] = workload.Simple(workload.Base()[r.Intn(4)])
		case 1:
			cfg.Streams[i] = workload.Combined()[r.Intn(3)]
		case 2:
			cfg.Streams[i] = workload.Simple(randomParams(r, saturated))
		default:
			cfg.Streams[i] = workload.Combine("rand", workload.Simple(randomParams(r, saturated)),
				workload.Simple(randomParams(r, saturated)))
		}
	}
	return cfg
}

func randomParams(r *rng.Source, saturated bool) workload.Params {
	p := workload.Params{
		Name:    "rand",
		MeanReq: float64(r.Intn(20)),
		Alpha:   r.Float64(),
		TMem:    r.Intn(12),
		MeanIO:  float64(r.Intn(80)), // >= 30 takes the PTRS sampler
		AlJmp:   r.Float64() * 0.5,
	}
	if r.Bool(0.6) {
		p.MeanOn = float64(1 + r.Intn(100))
		p.MeanOff = float64(1 + r.Intn(3)) // gaps ending on the next cycle
		if r.Bool(0.5) {
			p.MeanOff = float64(r.Intn(200))
		}
	}
	if saturated {
		p.MeanReq = float64(1 + r.Intn(3))
		p.TMem = 20 + r.Intn(40)
		p.MeanIO = float64(30 + r.Intn(50))
	}
	return p
}
