// Package study implements the paper's §5 "future work" analyses on
// top of the §4.1 stochastic model:
//
//   - StreamSweep — "future work should be done to evaluate the optimum
//     number of instruction streams for a given application": sweep the
//     stochastic model past DISC1's four streams and locate the knee
//     where marginal utilization gain collapses.
//
//   - StackDepth — "the depth and size of memory usage in the stack
//     windows could be evaluated by stochastic means": a random-walk
//     call/return/interrupt model of the stack-window live span,
//     measuring spill/fill traffic against the physical file depth.
//
//   - LatencyUnderLoad — "appropriate measures of interrupt latency
//     need to be defined and modeled": dispatch latency measured on the
//     cycle-accurate machine while 0..3 other streams saturate it,
//     under both even and prioritised partitions.
//
// Determinism contract: every study is a pure function of its
// parameters. Replicated sweeps draw one rng.Child seed per run index
// and fan out through internal/parallel, so results are byte-identical
// for any worker count; the random-walk and machine studies derive all
// state from explicit seeds.
package study

import (
	"fmt"

	"disc/internal/asm"
	"disc/internal/core"
	"disc/internal/isa"
	"disc/internal/parallel"
	"disc/internal/report"
	"disc/internal/rng"
	"disc/internal/rt"
	"disc/internal/stoch"
	"disc/internal/workload"
)

// SweepPoint is one entry of a stream-count sweep.
type SweepPoint struct {
	Streams  int
	PD       float64 // mean over the sweep's replications
	CI       float64 // 95% confidence half-width of PD
	Marginal float64 // PD gain over the previous point
}

// SweepConfig parameterizes StreamSweep.
type SweepConfig struct {
	Load       workload.Load
	MaxStreams int
	Cycles     uint64
	Seed       uint64
	PipeLen    int
	// Threshold is the marginal-PD gain below which the knee is
	// declared.
	Threshold float64
	// Reps is the number of independent replications per point (each
	// with its own rng.Child seed); 0 selects 3 — enough for the knee
	// detection to see the trend, not monte-carlo jitter.
	Reps int
	// Par is the sweep worker count; 0 selects GOMAXPROCS. Results do
	// not depend on Par.
	Par int
	// Progress, when non-nil, is called serially as runs complete.
	Progress func(done, total int)
}

// StreamSweep partitions the load across 1..MaxStreams instruction
// streams and reports PD at each width. Knee is the smallest stream
// count whose marginal gain drops below Threshold (0 if none does).
func StreamSweep(cfg SweepConfig) ([]SweepPoint, int, error) {
	if cfg.MaxStreams < 1 {
		return nil, 0, fmt.Errorf("study: maxStreams %d < 1", cfg.MaxStreams)
	}
	reps := cfg.Reps
	if reps < 1 {
		reps = 3
	}
	total := cfg.MaxStreams * reps
	vals, err := parallel.MapProgress(cfg.Par, total, func(j int) (float64, error) {
		k := j/reps + 1
		streams := make([]workload.Load, k)
		for i := range streams {
			streams[i] = cfg.Load
		}
		res, err := stoch.Run(stoch.Config{
			PipeLen: cfg.PipeLen,
			Cycles:  cfg.Cycles,
			Seed:    rng.Child(cfg.Seed, uint64(j)),
			Streams: streams,
		})
		if err != nil {
			return 0, err
		}
		return res.PD(), nil
	}, cfg.Progress)
	if err != nil {
		return nil, 0, err
	}
	points := make([]SweepPoint, 0, cfg.MaxStreams)
	prev := 0.0
	knee := 0
	for k := 1; k <= cfg.MaxStreams; k++ {
		st := report.Summarize(vals[(k-1)*reps : k*reps])
		p := SweepPoint{Streams: k, PD: st.Mean, CI: st.CI, Marginal: st.Mean - prev}
		prev = st.Mean
		points = append(points, p)
		if knee == 0 && k > 1 && p.Marginal < cfg.Threshold {
			knee = k
		}
	}
	return points, knee, nil
}

// StackParams configures the stack-window depth study.
type StackParams struct {
	PCall      float64 // per-instruction probability of a procedure call
	MeanLocals float64 // mean locals allocated per frame (Poisson)
	PIRQ       float64 // per-instruction probability of an interrupt entry
	MeanISR    float64 // mean handler length in instructions
	MaxDepth   int     // deepest call nesting the program reaches
	Guard      int     // overflow guard band (registers)
	SpillBatch int     // registers spilled/filled per fault
	MemWait    int     // cycles per spilled register (1 + wait states)
	Instrs     uint64  // instructions to simulate
	Seed       uint64
}

func (p StackParams) validate() error {
	if p.PCall < 0 || p.PCall > 1 || p.PIRQ < 0 || p.PIRQ > 1 {
		return fmt.Errorf("study: probabilities outside [0,1]")
	}
	if p.SpillBatch < 1 {
		return fmt.Errorf("study: SpillBatch must be positive")
	}
	if p.MaxDepth < 1 {
		return fmt.Errorf("study: MaxDepth must be positive")
	}
	return nil
}

// DefaultStackParams models RTS-flavoured code: a call every ~20
// instructions, small frames, occasional interrupts.
func DefaultStackParams() StackParams {
	return StackParams{
		PCall:      0.05,
		MeanLocals: 3,
		MaxDepth:   14,
		PIRQ:       0.002,
		MeanISR:    25,
		Guard:      isa.WindowSize,
		SpillBatch: isa.WindowSize,
		MemWait:    4,
		Instrs:     200000,
		Seed:       7,
	}
}

// StackResult is the outcome for one physical window depth.
type StackResult struct {
	Depth      int
	Spills     uint64  // overflow faults
	Fills      uint64  // underflow faults
	MaxLive    int     // deepest live span observed
	TrafficPct float64 // spill/fill cycles per 100 instructions
	FaultPer1k float64 // faults per 1000 instructions
}

// stackWalk runs the call/return/interrupt random walk for one window
// depth. frameSize maps a requested frame to the registers actually
// consumed: identity for the paper's variable-size windows, a constant
// full window for the RISC-I-style fixed organization. Every depth
// re-seeds its own generator from p.Seed, so the walk *sequence* is
// identical across depths and organizations — only the costs differ.
func stackWalk(p StackParams, d int, frameSize func(requested int) int) StackResult {
	src := rng.New(p.Seed)
	res := StackResult{Depth: d}

	var frames []int  // live frame sizes (call and ISR frames)
	var isrLeft []int // remaining instructions per nested handler
	awp := isa.WindowSize - 1
	bos := -1
	var trafficCycles uint64

	push := func(requested int) {
		size := frameSize(requested)
		frames = append(frames, size)
		awp += size
		if live := awp - bos; live > res.MaxLive {
			res.MaxLive = live
		}
		for awp-bos > d-p.Guard {
			res.Spills++
			bos += p.SpillBatch
			trafficCycles += uint64(p.SpillBatch * p.MemWait)
		}
	}
	pop := func() {
		if len(frames) == 0 {
			return
		}
		size := frames[len(frames)-1]
		frames = frames[:len(frames)-1]
		awp -= size
		for awp-bos < isa.WindowSize && bos > -1 {
			res.Fills++
			bos -= p.SpillBatch
			if bos < -1 {
				bos = -1
			}
			trafficCycles += uint64(p.SpillBatch * p.MemWait)
		}
	}

	for i := uint64(0); i < p.Instrs; i++ {
		// Nested handlers retire first.
		if n := len(isrLeft); n > 0 {
			isrLeft[n-1]--
			if isrLeft[n-1] <= 0 {
				isrLeft = isrLeft[:n-1]
				pop() // RETI pops the entry frame
			}
		} else if len(frames) > 0 && src.Bool(p.PCall) {
			// Balanced walk with a depth cap: real programs nest
			// finitely, so returns win once the cap is reached.
			if len(frames) >= p.MaxDepth || src.Bool(0.5) {
				pop()
			} else {
				push(1 + src.Poisson(p.MeanLocals))
			}
		} else if src.Bool(p.PCall) {
			push(1 + src.Poisson(p.MeanLocals))
		}
		if src.Bool(p.PIRQ) {
			push(2) // hardware entry: return PC + SR
			n := src.Poisson(p.MeanISR)
			if n < 1 {
				n = 1
			}
			isrLeft = append(isrLeft, n)
		}
	}
	res.TrafficPct = 100 * float64(trafficCycles) / float64(p.Instrs)
	res.FaultPer1k = 1000 * float64(res.Spills+res.Fills) / float64(p.Instrs)
	return res
}

// stackDepths fans the walk across the candidate depths (each depth is
// an independent simulation, so the fan-out cannot change results).
func stackDepths(p StackParams, depths []int, frameSize func(int) int) ([]StackResult, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	return parallel.Map(0, len(depths), func(i int) (StackResult, error) {
		d := depths[i]
		if d < 2*isa.WindowSize {
			return StackResult{}, fmt.Errorf("study: depth %d below the minimum window file", d)
		}
		return stackWalk(p, d, frameSize), nil
	})
}

// StackDepth runs the random-walk model for each candidate depth.
// Frames are pushed by calls (return address + SR analogue + locals)
// and interrupt entries, popped by returns; a live span exceeding
// depth−guard costs a spill (batch registers at 1+memWait cycles
// each), and a return into spilled territory costs a fill.
func StackDepth(p StackParams, depths []int) ([]StackResult, error) {
	return stackDepths(p, depths, func(requested int) int { return requested })
}

// LoadLatency is one row of the latency-under-load experiment.
type LoadLatency struct {
	BusyStreams int
	Shares      string
	Min, Max    uint64
	Mean        float64
}

// LatencyUnderLoad measures dispatch latency for a stream dedicated to
// an interrupt while busyStreams other streams saturate the machine,
// for each partition in shares (nil entries mean an even split). The
// dedicated stream is always stream busyStreams (the last one). Each
// (busy, partition) combination builds its own machine, so the rows
// are measured in parallel without affecting each other.
func LatencyUnderLoad(busy []int, events int, shareSets [][]int) ([]LoadLatency, error) {
	type combo struct {
		nBusy  int
		shares []int
	}
	var combos []combo
	for _, nBusy := range busy {
		if nBusy < 0 || nBusy+1 > isa.NumStreams {
			return nil, fmt.Errorf("study: %d busy streams leaves no room for the handler stream", nBusy)
		}
		sets := shareSets
		if sets == nil {
			sets = [][]int{nil}
		}
		for _, shares := range sets {
			combos = append(combos, combo{nBusy, shares})
		}
	}
	return parallel.Map(0, len(combos), func(i int) (LoadLatency, error) {
		c := combos[i]
		lat, err := measureLoaded(c.nBusy, events, c.shares)
		if err != nil {
			return LoadLatency{}, err
		}
		label := "even"
		if c.shares != nil {
			label = fmt.Sprint(c.shares)
		}
		return LoadLatency{
			BusyStreams: c.nBusy,
			Shares:      label,
			Min:         lat.Min(),
			Max:         lat.Max(),
			Mean:        lat.Mean(),
		}, nil
	})
}

func measureLoaded(nBusy, events int, shares []int) (rt.Samples, error) {
	nStreams := nBusy + 1
	cfg := core.Config{Streams: nStreams, VectorBase: 0x200}
	if shares != nil {
		if len(shares) != nStreams {
			return nil, fmt.Errorf("study: %d shares for %d streams", len(shares), nStreams)
		}
		cfg.Shares = shares
	}
	m, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	src := `
.org 0
busy:
    ADDI R0, 1
    ADDI R1, 1
    ADDI R2, 1
    JMP  busy
`
	handlerVec := 0x200 + 8*(nStreams-1) + 3
	src += fmt.Sprintf(".org %#x\n    RETI\n", handlerVec)
	im, err := asm.Assemble(src)
	if err != nil {
		return nil, err
	}
	starts := map[int]string{}
	for i := 0; i < nBusy; i++ {
		starts[i] = "busy"
	}
	if err := im.Load(m, starts); err != nil {
		return nil, err
	}
	m.Run(32)
	samples, _, err := rt.MeasureDispatchLatency(m, nStreams-1, 3, events, 120)
	return samples, err
}

// FixedWindowResult compares the paper's variable-size stack window
// against RISC-I-style fixed windows at the same physical depth — the
// §2 claim: register windows have "disadvantageous worst case
// replacement behavior", so "we will propose a variable sized
// multi-window organization".
type FixedWindowResult struct {
	Depth           int
	VariableTraffic float64 // spill/fill cycles per 100 instructions
	FixedTraffic    float64
	Ratio           float64 // fixed / variable (>1: variable wins)
}

// FixedVsVariable runs the same call/interrupt random walk under both
// organizations. The fixed organization charges a full window of
// isa.WindowSize registers per call regardless of the frame's actual
// size (minus a two-register overlap for argument passing, as RISC-I
// does); the variable organization charges exactly the frame.
func FixedVsVariable(p StackParams, depths []int) ([]FixedWindowResult, error) {
	varRes, err := StackDepth(p, depths)
	if err != nil {
		return nil, err
	}
	const overlap = 2
	fixedFrame := isa.WindowSize - overlap // net registers consumed per call
	fixedRes, err := stackDepths(p, depths, func(int) int { return fixedFrame })
	if err != nil {
		return nil, err
	}
	out := make([]FixedWindowResult, len(depths))
	for i := range depths {
		r := FixedWindowResult{
			Depth:           depths[i],
			VariableTraffic: varRes[i].TrafficPct,
			FixedTraffic:    fixedRes[i].TrafficPct,
		}
		if r.VariableTraffic > 0 {
			r.Ratio = r.FixedTraffic / r.VariableTraffic
		}
		out[i] = r
	}
	return out, nil
}
