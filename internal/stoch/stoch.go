// Package stoch reimplements the paper's stochastic evaluation model
// (§4.1) — the engine behind Tables 4.2 and 4.3.
//
// The model simulates the DISC1 sequencer at the slot level: a pipe of
// pipe_length positions, one instruction issued per cycle from the
// stream selected by the hardware scheduler, with Poisson-driven
// workload processes (package workload) supplying the instruction mix.
// Faithfully to §4.1:
//
//   - when a jump instruction takes place, all instructions in the pipe
//     belonging to the same IS are flushed (the paper notes this
//     simplifying assumption makes single-IS DISC *worse* than a plain
//     single-stream machine);
//   - an external request with non-zero access time flushes the same
//     IS's in-flight instructions and puts the IS into a wait state
//     while the asynchronous bus runs the access;
//   - if the bus is busy when the request is made, the requesting
//     instruction itself is flushed and the access is re-requested
//     after the IS is reactivated;
//   - completion of the bus access reactivates *all* waiting ISs.
//
// Processor utilization PD is completed instructions per cycle. The
// companion package baseline computes Ps, the standard single-stream
// processor's utilization, and Delta compares the two exactly as the
// paper defines: delta = (PD − Ps)/Ps × 100%.
//
// Determinism contract: Run is a pure function of its Config — a fixed
// Seed reproduces the identical Result on every platform, and RunReps
// derives one rng.Child seed per replication index so its output is
// byte-identical no matter how many workers execute the replications.
package stoch

import (
	"fmt"

	"disc/internal/parallel"
	"disc/internal/rng"
	"disc/internal/sched"
	"disc/internal/workload"
)

// DefaultPipeLen matches DISC1's four-stage pipeline.
const DefaultPipeLen = 4

// DefaultCycles is long enough for ±1% run-to-run repeatability on the
// paper's parameter sets.
const DefaultCycles = 200000

// Config describes one stochastic simulation run.
type Config struct {
	PipeLen int             // pipeline stages; 0 selects DefaultPipeLen
	Cycles  uint64          // simulated cycles; 0 selects DefaultCycles
	Seed    uint64          // RNG seed (runs are reproducible)
	Slots   []int           // scheduler slot table; nil = even split
	Streams []workload.Load // one load per instruction stream
	// Buses is the number of independent asynchronous bus channels.
	// DISC1 has one (the default); more channels model the §5
	// "implementation technology" question of whether the single data
	// bus is the scaling limit (ablation E15).
	Buses int
}

// StreamResult is the per-stream outcome.
type StreamResult struct {
	Executed   uint64 // instructions completed
	Flushed    uint64 // instructions lost to jump/wait flushes
	Jumps      uint64 // flow-changing instructions completed
	Requests   uint64 // external requests issued to the bus
	Rejects    uint64 // requests that found the bus busy
	WaitCycles uint64 // cycles spent in the wait state
	OffCycles  uint64 // cycles with no work (inactive gaps)
}

// Result is the outcome of a run.
type Result struct {
	Cycles    uint64
	Executed  uint64
	Flushed   uint64
	IdleSlots uint64 // cycles with no ready stream
	BusBusy   uint64 // cycles the data bus was occupied
	// LiveCycles excludes dead time: cycles in which every stream was
	// in an inactive gap with nothing in the pipe and the bus quiet.
	// The paper's Ps denominator contains only work-related cycles
	// (executable + bus busy + jump drops), so PD is measured over
	// live cycles for a symmetric comparison.
	LiveCycles uint64
	PerStream  []StreamResult
}

// PD returns processor utilization: completed instructions per cycle
// while there was any work in the system (see LiveCycles).
func (r Result) PD() float64 {
	if r.LiveCycles == 0 {
		return 0
	}
	return float64(r.Executed) / float64(r.LiveCycles)
}

// PDTotal is utilization over every simulated cycle, dead time
// included.
func (r Result) PDTotal() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Executed) / float64(r.Cycles)
}

// Delta compares DISC utilization to a standard processor's, §4.1:
// delta = (PD − Ps)/Ps × 100%.
func Delta(pd, ps float64) float64 {
	if ps == 0 {
		return 0
	}
	return (pd - ps) / ps * 100
}

// RunReps executes reps independent replications of cfg across par
// worker goroutines (par <= 0 selects GOMAXPROCS) and returns the
// per-replication results in replication order. Replication r runs
// with seed rng.Child(cfg.Seed, r) — a private SplitMix64-derived seed,
// never a shared generator — so the slice is identical for any par.
func RunReps(cfg Config, reps, par int) ([]Result, error) {
	if reps < 1 {
		reps = 1
	}
	return parallel.Map(par, reps, func(r int) (Result, error) {
		c := cfg
		c.Seed = rng.Child(cfg.Seed, uint64(r))
		return Run(c)
	})
}

// PDs extracts the PD of each replicated result, ready for
// report.Summarize.
func PDs(rs []Result) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.PD()
	}
	return out
}

// slot is one pipe position: the issuing stream, the instruction kind
// and, for a request, its bus access time.
type slot struct {
	lat   int
	is    uint8
	kind  workload.Kind
	valid bool
}

// isState is a stream's runtime state and its running counts.
type isState struct {
	proc     *workload.Process
	retryLat int
	inPipe   int  // this stream's valid slots in the pipe
	waiting  bool // in the wait state until a bus channel completes
	retry    bool // re-issue a flushed request after reactivation
	m        StreamResult
}

// Run executes the simulation.
func Run(cfg Config) (Result, error) {
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
	st := make([]isState, len(cfg.Streams))
	for i, l := range cfg.Streams {
		if err := l.Validate(); err != nil {
			return Result{}, err
		}
		st[i].proc = workload.NewProcess(l, root.Fork())
	}

	var res Result
	// The pipe is a ring: position p (0 = just issued, pipeLen-1 =
	// completing) is pipe[(head+p)%pipeLen], so advancing it moves head
	// instead of every slot.
	pipe := make([]slot, pipeLen)
	head, inPipe := 0, 0
	busBusy := make([]int, buses) // cycles left on each channel
	nBusy := 0                    // channels with cycles left

	for c := uint64(0); c < cycles; {
		// Live-cycle accounting: dead means every stream is in an off
		// gap, nothing is in flight and the bus is quiet.
		live := true
		if inPipe == 0 {
			// Idle-gap jump (DESIGN.md §10): advance every cycle that
			// repeats an idle one in one step.
			var k uint64
			if k, live = idleGap(st, busBusy, nBusy, cycles-c); k > 0 {
				res.IdleSlots += k
				if live {
					res.LiveCycles += k
				}
				res.BusBusy += k * uint64(nBusy)
				for i, b := range busBusy {
					if b > 0 {
						busBusy[i] = b - int(k)
					}
				}
				for i := range st {
					s := &st[i]
					if s.waiting {
						s.m.WaitCycles += k
					} else {
						s.proc.SkipIdle(int(k))
						s.m.OffCycles += k
					}
				}
				sc.AdvanceIdle(int(k))
				c += k
				continue
			}
		}
		c++
		if live {
			res.LiveCycles++
		}

		// Bus advance; any completion reactivates all waiting ISs
		// (§3.6.1); with multiple channels the busy count sums them.
		if nBusy > 0 {
			res.BusBusy += uint64(nBusy)
			completed := 0
			for i, b := range busBusy {
				if b > 0 {
					busBusy[i] = b - 1
					if b == 1 {
						completed++
					}
				}
			}
			if completed > 0 {
				nBusy -= completed
				for i := range st {
					st[i].waiting = false
				}
			}
		}

		// Advance the pipe and complete the instruction leaving it.
		if head--; head < 0 {
			head = pipeLen - 1
		}
		if done := pipe[head]; done.valid {
			pipe[head].valid = false
			inPipe--
			s := &st[done.is]
			s.inPipe--
			switch done.kind {
			case workload.KindJump:
				// The jump takes place: flush every same-IS
				// instruction still in the pipe.
				s.m.Executed++
				s.m.Jumps++
				inPipe -= flush(pipe, s, done.is)
			case workload.KindRequest:
				if done.lat <= 0 {
					// Zero-time access: nothing blocks.
					s.m.Executed++
					break
				}
				if nBusy == len(busBusy) {
					// All channels busy: this instruction is flushed
					// (it does not complete) and the access is
					// re-requested after reactivation.
					s.m.Flushed++
					s.m.Rejects++
					s.retry = true
					s.retryLat = done.lat
				} else {
					s.m.Executed++
					s.m.Requests++
					for i, b := range busBusy {
						if b == 0 {
							busBusy[i] = done.lat
							break
						}
					}
					nBusy++
				}
				s.waiting = true
				// Either way the IS's other in-flight work flushes.
				inPipe -= flush(pipe, s, done.is)
			default:
				s.m.Executed++
			}
		}

		// Idle/off bookkeeping and the ready mask, in one pass.
		var ready sched.ReadyMask
		for i := range st {
			s := &st[i]
			if s.waiting {
				s.m.WaitCycles++
				continue
			}
			if !s.proc.Active() {
				s.proc.TickIdle()
				s.m.OffCycles++
				if !s.proc.Active() {
					continue
				}
			}
			ready.Set(i)
		}
		id, _, ok := sc.Next(ready)
		if !ok {
			res.IdleSlots++
			continue
		}
		s := &st[id]
		sl := slot{is: uint8(id), valid: true}
		if s.retry {
			sl.kind, sl.lat = workload.KindRequest, s.retryLat
			s.retry = false
		} else {
			sl.kind, sl.lat = s.proc.Issue()
		}
		pipe[head] = sl
		inPipe++
		s.inPipe++
	}

	res.Cycles = cycles
	res.PerStream = make([]StreamResult, len(st))
	for i := range st {
		m := st[i].m
		res.PerStream[i] = m
		res.Executed += m.Executed
		res.Flushed += m.Flushed
	}
	return res, nil
}

// idleGap is called with the pipe empty. When no stream is ready —
// each waits on the bus or sits in an off gap — every coming cycle
// repeats an idle one (channels and gaps count down, nothing issues)
// until a channel completes or a gap ends; idleGap returns how many
// cycles, at most left, come before that, or 0 when a stream is ready.
// live reports whether those cycles count as live: some stream waits
// or a channel is busy. k always fits an int: any completion wakes
// every waiting stream, so a stream waits only while some channel is
// busy, and an off gap or a channel's countdown bounds k.
func idleGap(st []isState, busBusy []int, nBusy int, left uint64) (k uint64, live bool) {
	k, live = left, nBusy > 0
	for i := range st {
		s := &st[i]
		if s.waiting {
			live = true
			continue
		}
		off := s.proc.OffLeft()
		if off == 0 {
			return 0, true
		}
		k = min(k, uint64(off-1))
	}
	for _, b := range busBusy {
		if b > 0 {
			k = min(k, uint64(b-1))
		}
	}
	return k, live
}

// flush removes every in-flight instruction of stream is from the pipe
// (§4.1's jump and request flushes), counts them against s, and
// returns how many it removed.
func flush(pipe []slot, s *isState, is uint8) int {
	n := s.inPipe
	for i := 0; s.inPipe > 0; i++ {
		if pipe[i].valid && pipe[i].is == is {
			pipe[i].valid = false
			s.inPipe--
		}
	}
	s.m.Flushed += uint64(n)
	return n
}
