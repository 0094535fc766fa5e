// Package workload defines the stochastic program loads of the paper's
// evaluation model (§4.1, Table 4.1).
//
// A load is described by Poisson parameters: the number of consecutive
// instructions an instruction stream stays active (meanon), the length
// of its inactive gaps (meanoff), the spacing between external access
// requests (mean_req) and the I/O access time (mean_io); plus alpha
// (the fraction of external requests that go to memory rather than
// I/O), tmem (external memory access cycles) and aljmp (the fraction of
// instructions that modify program flow).
//
// The OCR of the paper destroyed Table 4.1's numeric cells, so the
// concrete values below are reconstructed from the prose of §4.2 (see
// DESIGN.md §4): load 1 is "typical RTS behaviour ... always active";
// load 2 the same but "alternately active and inactive"; load 3 "a DSP
// type program running only from internal memory"; load 4 "an interrupt
// driven program which is only active while handling an interrupt".
// Combined loads such as Ld 1:4 are "a statistical combination of loads
// 1 and 4 into a single IS", modelled by alternating whole activity
// bursts of each constituent.
//
// Determinism contract: a Process draws only from the rng.Source it
// was constructed with and holds no global state, so a simulation that
// gives every stream its own forked (or rng.Child-derived) source is a
// pure function of its seeds — the property the parallel sweep engine
// relies on.
package workload

import (
	"fmt"

	"disc/internal/rng"
)

// Params is one row of Table 4.1.
type Params struct {
	Name    string
	MeanOn  float64 // mean active-burst length in instructions; <=0: always active
	MeanOff float64 // mean inactive-gap length in cycles; <=0: never inactive
	MeanReq float64 // mean instructions between external requests; <=0: none
	Alpha   float64 // fraction of external requests going to memory
	TMem    int     // external memory access time in cycles
	MeanIO  float64 // mean I/O access time in cycles
	AlJmp   float64 // fraction of flow-modifying instructions
}

// Validate rejects physically meaningless parameter sets.
func (p Params) Validate() error {
	if p.Alpha < 0 || p.Alpha > 1 {
		return fmt.Errorf("workload %s: alpha %v outside [0,1]", p.Name, p.Alpha)
	}
	if p.AlJmp < 0 || p.AlJmp > 1 {
		return fmt.Errorf("workload %s: aljmp %v outside [0,1]", p.Name, p.AlJmp)
	}
	if p.TMem < 0 {
		return fmt.Errorf("workload %s: tmem %d negative", p.Name, p.TMem)
	}
	return nil
}

// Load is a (possibly composite) workload: the phases are cycled
// through, one per activity burst, so Combine(A, B) alternates bursts
// of A-behaviour and B-behaviour within a single instruction stream.
type Load struct {
	Name   string
	Phases []Params
}

// Simple wraps a single parameter set as a Load.
func Simple(p Params) Load { return Load{Name: p.Name, Phases: []Params{p}} }

// Combine builds the paper's "statistical combination" of two loads
// into a single instruction stream.
func Combine(name string, a, b Load) Load {
	phases := make([]Params, 0, len(a.Phases)+len(b.Phases))
	phases = append(phases, a.Phases...)
	phases = append(phases, b.Phases...)
	return Load{Name: name, Phases: phases}
}

// Validate checks every phase.
func (l Load) Validate() error {
	if len(l.Phases) == 0 {
		return fmt.Errorf("workload %s: no phases", l.Name)
	}
	for _, p := range l.Phases {
		if err := p.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// The reconstructed Table 4.1 parameter sets (DESIGN.md §4).
var (
	// Ld1: typical real-time controller load, always active. Frequent
	// external traffic — half to tmem-cycle memory, half to slow I/O —
	// and RTS-typical branchiness.
	Ld1 = Params{Name: "load1", MeanOn: 0, MeanOff: 0, MeanReq: 10,
		Alpha: 0.5, TMem: 4, MeanIO: 20, AlJmp: 0.20}

	// Ld2: the same traffic pattern but alternately active and
	// inactive in roughly equal measure.
	Ld2 = Params{Name: "load2", MeanOn: 50, MeanOff: 50, MeanReq: 10,
		Alpha: 0.5, TMem: 4, MeanIO: 20, AlJmp: 0.20}

	// Ld3: a DSP-type program running only from internal memory — no
	// external accesses, few jumps, always active. Its single-stream
	// utilization is already high, so DISC's headroom is small (§4.2).
	Ld3 = Params{Name: "load3", MeanOn: 0, MeanOff: 0, MeanReq: 0,
		Alpha: 0, TMem: 0, MeanIO: 0, AlJmp: 0.05}

	// Ld4: an interrupt-driven program, active only in short handler
	// bursts with long quiet gaps, branch-heavy, with slower I/O.
	Ld4 = Params{Name: "load4", MeanOn: 20, MeanOff: 80, MeanReq: 8,
		Alpha: 0.3, TMem: 4, MeanIO: 30, AlJmp: 0.25}
)

// Base returns the four primary loads in table order.
func Base() []Params { return []Params{Ld1, Ld2, Ld3, Ld4} }

// Combined returns the Ld1:X composite loads of Table 4.1.
func Combined() []Load {
	return []Load{
		Combine("load1:2", Simple(Ld1), Simple(Ld2)),
		Combine("load1:3", Simple(Ld1), Simple(Ld3)),
		Combine("load1:4", Simple(Ld1), Simple(Ld4)),
	}
}

// Process is the per-instruction-stream runtime state of a Load: it
// tells the simulator whether the stream has work, and classifies each
// issued instruction.
type Process struct {
	phases []phase
	cur    *phase // &phases[phase]
	src    *rng.Source
	phase  int

	onLeft  int // instructions remaining in the current burst; -1 = unbounded
	offLeft int // idle cycles remaining
	toReq   int // instructions until the next external request; -1 = never
}

// phase is one constituent of a Load with its Poisson samplers built
// once, so a draw costs no exp(-mean) and Issue reads the parameters
// through a pointer instead of copying them.
type phase struct {
	Params
	unbounded         bool // the burst never ends (onLeft = -1)
	on, off, req, lat rng.PoissonSampler
}

// NewProcess instantiates a load with its own RNG stream.
func NewProcess(l Load, src *rng.Source) *Process {
	p := &Process{phases: make([]phase, len(l.Phases)), src: src, phase: -1}
	for i, pr := range l.Phases {
		on := pr.MeanOn
		if on <= 0 && len(l.Phases) > 1 {
			on = CombinedBurst
		}
		p.phases[i] = phase{
			Params:    pr,
			unbounded: on <= 0,
			on:        rng.NewPoissonSampler(on),
			off:       rng.NewPoissonSampler(pr.MeanOff),
			req:       rng.NewPoissonSampler(pr.MeanReq),
			lat:       rng.NewPoissonSampler(pr.MeanIO),
		}
	}
	p.nextBurst()
	return p
}

// ProcessState is the serializable runtime state of a Process: the RNG
// position plus the burst/request counters. The Load itself is config,
// not state — a restored Process must be built over the same Load.
type ProcessState struct {
	RNG     uint64
	Phase   int
	OnLeft  int
	OffLeft int
	ToReq   int
}

// State captures the process mid-run for a checkpoint.
func (p *Process) State() ProcessState {
	return ProcessState{
		RNG:     p.src.State(),
		Phase:   p.phase,
		OnLeft:  p.onLeft,
		OffLeft: p.offLeft,
		ToReq:   p.toReq,
	}
}

// SetState rewinds the process to a previously captured state. The
// phase index is clamped into range so an adversarial snapshot cannot
// make Issue index past the phase table; all other fields are plain
// counters for which any value is safe.
func (p *Process) SetState(s ProcessState) {
	p.src.SetState(s.RNG)
	ph := s.Phase
	if ph < 0 || ph >= len(p.phases) {
		ph = 0
	}
	p.phase = ph
	p.cur = &p.phases[ph]
	p.onLeft = s.OnLeft
	p.offLeft = s.OffLeft
	p.toReq = s.ToReq
}

// CombinedBurst is the nominal burst length used for an always-active
// phase inside a composite load: without a finite burst the composite
// could never alternate to its other constituent.
const CombinedBurst = 200

// nextBurst advances to the next activity burst (cycling phases).
func (p *Process) nextBurst() {
	p.phase = (p.phase + 1) % len(p.phases)
	p.cur = &p.phases[p.phase]
	if p.cur.unbounded {
		p.onLeft = -1
	} else {
		p.onLeft = p.cur.on.Sample(p.src)
		if p.onLeft < 1 {
			p.onLeft = 1
		}
	}
	p.rollReq()
}

// rollReq draws the distance to the next external request.
func (p *Process) rollReq() {
	if p.cur.MeanReq <= 0 {
		p.toReq = -1
		return
	}
	p.toReq = p.cur.req.Sample(p.src)
	if p.toReq < 1 {
		p.toReq = 1
	}
}

// Active reports whether the stream currently has instructions to run.
func (p *Process) Active() bool { return p.offLeft == 0 }

// OffLeft returns the idle cycles left in the current inactive gap; 0
// means the stream is active.
func (p *Process) OffLeft() int { return p.offLeft }

// TickIdle advances an inactive stream by one cycle.
func (p *Process) TickIdle() {
	if p.offLeft > 0 {
		p.offLeft--
		if p.offLeft == 0 {
			p.nextBurst()
		}
	}
}

// SkipIdle advances the stream by k idle cycles at once, exactly as k
// TickIdle calls would: the gap shrinks by k, and if it ends within the
// k cycles the next burst starts (further idle ticks of an active
// stream do nothing).
func (p *Process) SkipIdle(k int) {
	if k <= 0 || p.offLeft == 0 {
		return
	}
	if k < p.offLeft {
		p.offLeft -= k
		return
	}
	p.offLeft = 0
	p.nextBurst()
}

// Kind classifies one issued instruction.
type Kind uint8

// Instruction kinds drawn by Issue.
const (
	KindPlain Kind = iota
	KindJump
	KindRequest
)

// Issue consumes one instruction from the burst and classifies it.
// For KindRequest, latency is the bus access time (0 means the access
// is free and nothing blocks) — memory with probability alpha, I/O
// otherwise, per §4.1.
func (p *Process) Issue() (kind Kind, latency int) {
	pr := p.cur
	// Burst accounting.
	if p.onLeft > 0 {
		p.onLeft--
		if p.onLeft == 0 {
			// Burst over: enter the off gap after this instruction.
			if pr.MeanOff > 0 {
				p.offLeft = pr.off.Sample(p.src)
				if p.offLeft < 1 {
					p.offLeft = 1
				}
			} else {
				p.nextBurst()
			}
		}
	}
	// External request?
	if p.toReq > 0 {
		p.toReq--
		if p.toReq == 0 {
			p.rollReq()
			if p.src.Bool(pr.Alpha) {
				return KindRequest, pr.TMem
			}
			return KindRequest, pr.lat.Sample(p.src)
		}
	}
	if pr.AlJmp > 0 && p.src.Bool(pr.AlJmp) {
		return KindJump, 0
	}
	return KindPlain, 0
}
