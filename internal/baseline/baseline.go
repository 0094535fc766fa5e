// Package baseline models the conventional single-instruction-stream
// pipelined processor the paper compares DISC against (§4.1).
//
// The paper's Ps — "processor utilization on the standard processor" —
// is defined as the total number of executable instructions divided by
// the sum of the executable instructions, the cycles the data bus was
// busy, and the cycles dropped because of jump-type instructions, where
// every jump costs (pipe_length − 1) flushed cycles. Two assumptions
// from the paper are preserved: the standard processor executes nothing
// while waiting for data (no out-of-order issue, no "smart compiler"),
// and it keeps its pipe halted rather than flushed during a bus access,
// which is *more favourable* to the baseline than to DISC.
package baseline

import (
	"fmt"

	"disc/internal/rng"
	"disc/internal/workload"
)

// Result summarises a standard-processor run.
type Result struct {
	Cycles      uint64 // total simulated cycles, including off gaps
	Executed    uint64 // completed instructions
	Jumps       uint64 // flow-modifying instructions
	JumpDropped uint64 // cycles flushed: Jumps × (pipeLen−1)
	BusBusy     uint64 // cycles the data bus was busy (pipe halted)
	OffCycles   uint64 // cycles with no work at all
}

// Ps is the paper's baseline utilization formula.
func (r Result) Ps() float64 {
	den := float64(r.Executed + r.BusBusy + r.JumpDropped)
	if den == 0 {
		return 0
	}
	return float64(r.Executed) / den
}

// Utilization is completed instructions over *all* cycles, including
// inactive gaps — directly comparable to the DISC model's PD.
func (r Result) Utilization() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Executed) / float64(r.Cycles)
}

// Run simulates the standard processor executing load for at least the
// given number of cycles (the final instruction's penalty may overrun
// by a few cycles; the overrun is included in Cycles).
func Run(load workload.Load, pipeLen int, cycles uint64, seed uint64) (Result, error) {
	if err := load.Validate(); err != nil {
		return Result{}, err
	}
	if pipeLen < 2 {
		return Result{}, fmt.Errorf("baseline: pipe length %d < 2", pipeLen)
	}
	if cycles == 0 {
		return Result{}, fmt.Errorf("baseline: zero cycle budget")
	}
	src := rng.New(seed)
	proc := workload.NewProcess(load, src.Fork())

	var r Result
	for r.Cycles < cycles {
		if off := proc.OffLeft(); off > 0 {
			// An off gap: jump it whole, or to the end of the budget.
			k := min(uint64(off), cycles-r.Cycles)
			proc.SkipIdle(int(k))
			r.Cycles += k
			r.OffCycles += k
			continue
		}
		kind, lat := proc.Issue()
		r.Cycles++ // the instruction's own slot
		r.Executed++
		switch kind {
		case workload.KindJump:
			r.Jumps++
			penalty := uint64(pipeLen - 1)
			r.JumpDropped += penalty
			r.Cycles += penalty
		case workload.KindRequest:
			if lat > 0 {
				// The pipe halts while the data bus is busy.
				r.BusBusy += uint64(lat)
				r.Cycles += uint64(lat)
			}
		}
	}
	return r, nil
}
