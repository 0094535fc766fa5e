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
	"math"
	"math/bits"

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
	retry    bool // re-issue a flushed request after reactivation
	// since is the first cycle not yet counted in WaitCycles (while the
	// stream waits) or OffCycles (while its off-gap clock runs); wake is
	// the cycle whose tick ends the running off gap.
	since, wake uint64
	m           StreamResult
}

// startGap starts s's off-gap clock with its first tick in cycle from
// and returns the cycle of its last tick, in which the stream is ready
// again.
func (s *isState) startGap(from uint64) uint64 {
	s.since = from
	s.wake = from + uint64(s.proc.OffLeft()) - 1
	return s.wake
}

// settleGap applies s's off-gap ticks before cycle c to its process
// and counts them.
func (s *isState) settleGap(c uint64) {
	k := c - s.since
	s.proc.SkipIdle(int(k))
	s.m.OffCycles += k
	s.since = c
}

// Run executes the simulation.
//
// Readiness is event-driven (DESIGN.md §10): the ready mask and the
// waiting and off sets change only at §4.1's transitions — a request
// leaving the pipe, a bus completion, a burst ending at Issue and an
// off gap's last tick — and each stream's WaitCycles or OffCycles
// accrue from its since stamp until the next transition, or the end of
// the budget, settles them. A stepped cycle therefore costs no pass
// over the streams.
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

	// Every stream starts active. A stream is in at most one of ready,
	// waiting (until a bus channel completes; its off gap, if any, is
	// frozen) and off (its off-gap clock runs until its wake cycle).
	// nextWake is at or before the earliest wake in off.
	ready := sched.ReadyMask(1)<<len(st) - 1
	var waiting, off uint32
	nextWake := uint64(math.MaxUint64)

	for c := uint64(0); c < cycles; {
		// Live-cycle accounting: dead means every stream is in an off
		// gap, nothing is in flight and the bus is quiet.
		live := true
		if inPipe == 0 && ready == 0 {
			// Idle-gap jump (DESIGN.md §10): every stream waits on the
			// bus or sits in an off gap, so each coming cycle repeats an
			// idle one until a channel completes or a gap ends. A
			// stream waits only while some channel is busy, so the gap
			// is live exactly when one is; a channel's countdown or an
			// off gap bounds k.
			live = nBusy > 0
			k := min(cycles-c, nextWake-c-1)
			for _, b := range busBusy {
				if b > 0 {
					k = min(k, uint64(b-1))
				}
			}
			if k > 0 {
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
		// (§3.6.1); with multiple channels the busy count sums them. A
		// woken stream is ready, or its frozen off gap ticks again from
		// this cycle.
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
				for w := waiting; w != 0; w &= w - 1 {
					i := bits.TrailingZeros32(w)
					s := &st[i]
					s.m.WaitCycles += c - s.since
					if s.proc.Active() {
						ready.Set(i)
					} else {
						off |= 1 << i
						nextWake = min(nextWake, s.startGap(c))
					}
				}
				waiting = 0
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
				// The wait state freezes a running off gap: count its
				// ticks so far and take it out of off (nextWake may now
				// be early, which costs one scan).
				if off&(1<<done.is) != 0 {
					s.settleGap(c)
					off &^= 1 << done.is
				}
				ready.Clear(int(done.is))
				waiting |= 1 << done.is
				s.since = c
				// Either way the IS's other in-flight work flushes.
				inPipe -= flush(pipe, s, done.is)
			default:
				s.m.Executed++
			}
		}

		// Off gaps whose last tick is this cycle end: their streams
		// start the next burst and are ready.
		if nextWake <= c {
			nextWake = math.MaxUint64
			for o := off; o != 0; o &= o - 1 {
				i := bits.TrailingZeros32(o)
				s := &st[i]
				if s.wake == c {
					s.settleGap(c + 1)
					off &^= 1 << i
					ready.Set(i)
				} else {
					nextWake = min(nextWake, s.wake)
				}
			}
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
			if !s.proc.Active() {
				// The burst ended with this instruction: the off gap
				// ticks from the next cycle.
				ready.Clear(id)
				off |= 1 << id
				nextWake = min(nextWake, s.startGap(c+1))
			}
		}
		pipe[head] = sl
		inPipe++
		s.inPipe++
	}

	// Settle what still accrues at the end of the budget.
	for w := waiting; w != 0; w &= w - 1 {
		s := &st[bits.TrailingZeros32(w)]
		s.m.WaitCycles += cycles + 1 - s.since
	}
	for o := off; o != 0; o &= o - 1 {
		st[bits.TrailingZeros32(o)].settleGap(cycles + 1)
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
