package analysis

import "disc/internal/isa"

// Stack-window depth pass (§3.5). Every entry point starts a frame at
// relative depth 0 and a worklist propagates the depth through the
// instruction-level CFG:
//
//   - the SW adjust carried by any instruction moves depth by ±1;
//   - CALL/CALR edges assume a balanced callee (the callee's RET pops
//     exactly what the CALL pushed plus the callee's own frame), so
//     the fallthrough edge sees only the call's own SW adjust — the
//     callee body is analyzed separately from its entryCall root;
//   - a join reached at two different known depths is the §3.5 bug
//     this pass exists for: a loop whose body nets +1 marches the AWP
//     away every iteration until the window spills or wraps;
//   - RET n must execute at depth n (the convention documented in
//     internal/asmlib: n allocations since entry), or it returns
//     through a garbage cell; RETI must execute at depth 0 relative
//     to its vector entry, where the hardware-pushed SR/PC pair sits;
//   - depth below 0 claws into the caller's frame;
//   - MTS AWP relocates the window wholesale, after which the depth is
//     unknown and the path is exempted rather than guessed at.
//
// Depths sit in a flat lattice: unset < known(d) < conflict.

type depthState struct {
	set      bool
	known    bool // false once an MTS AWP or a reported conflict is crossed
	depth    int
	reported bool // a conflict at this join has already been reported

	// The underflow and spill advisories are reported once per word.
	underflowed, overflowed bool
}

func (a *analyzer) windowDepthPass() {
	states := make([]depthState, len(a.code))
	var work []int32

	// merge folds an incoming edge depth into the state at word i and
	// reports the first conflicting pair of known depths per join.
	merge := func(i int32, depth int, known bool) {
		st := &states[i]
		switch {
		case !st.set:
			st.set, st.known, st.depth = true, known, depth
			work = append(work, i)
		case !st.known:
			// Already top: nothing more to learn.
		case !known:
			st.known = false
			work = append(work, i)
		case st.depth != depth:
			if !st.reported {
				st.reported = true
				a.findingf(PassWindow, Error, a.code[i].addr,
					"stack-window depth imbalance at join: depth %d vs %d from another path (§3.5)",
					st.depth, depth)
			}
			st.known = false
			work = append(work, i)
		}
	}

	for i, k := range a.entry {
		if k != entryNone {
			merge(int32(i), 0, true)
		}
	}

	budget := a.windowBudget()

	for len(work) > 0 {
		i := work[len(work)-1]
		work = work[:len(work)-1]
		st := &states[i]
		ins := &a.code[i]
		if ins.bad != nil {
			continue
		}
		in, addr := ins.in, ins.addr
		depth, known := st.depth, st.known

		// Frame-discipline checks at returns, before their pops: the
		// pops cross back into the caller and are not underflow.
		if known {
			switch in.Op {
			case isa.OpRET:
				if int(in.Imm) != depth {
					a.findingf(PassWindow, Error, addr,
						"RET %d at window depth %d: frame imbalance, the return cell is not where RET will look (§3.5)",
						in.Imm, depth)
				}
				continue
			case isa.OpRETI:
				if depth != 0 {
					a.findingf(PassWindow, Error, addr,
						"RETI at window depth %d: the hardware-pushed SR/PC pair is buried (§3.6.3)", depth)
				}
				continue
			}
		} else if in.Op == isa.OpRET || in.Op == isa.OpRETI {
			continue
		}

		delta, deltaKnown := in.AWPDelta()
		if in.Flow() == isa.FlowCall || in.Flow() == isa.FlowCallIndirect {
			// Balanced-callee assumption: only the call's SW survives.
			delta = 0
			switch in.SW {
			case isa.SWInc:
				delta = 1
			case isa.SWDec:
				delta = -1
			}
		}
		next, nextKnown := depth+delta, known && deltaKnown

		if nextKnown && next < 0 {
			if !st.underflowed {
				st.underflowed = true
				a.findingf(PassWindow, Error, addr,
					"stack-window underflow: depth %d steps below the entry frame (§3.5)", next)
			}
			continue // don't cascade one report down the whole path
		}
		// Advise only at the crossing, not on every instruction that
		// then runs at excess depth.
		if nextKnown && budget >= 0 && next > budget && depth <= budget && !st.overflowed {
			st.overflowed = true
			a.findingf(PassWindow, Info, addr,
				"window depth %d exceeds the physical budget of %d: a §3.5 spill handler is required", next, budget)
		}

		// A call target is its own entryCall root at depth 0; only the
		// fall-through continues this frame.
		for _, s := range ins.frameSuccs(fateVaries) {
			if s >= 0 {
				merge(s, next, nextKnown)
			}
		}
	}
}
