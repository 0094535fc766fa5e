package analysis

import "disc/internal/isa"

// Use-before-def pass. A forward must-be-defined dataflow over the
// window locals R0..R7, the H multiply special and the SR condition
// flags — the per-stream state a freshly started stream has not
// initialised (the simulator zeroes it, real silicon would not, and
// either way branching on flags nothing set is a logic bug).
//
// How much is "defined" at a root depends on how the root is entered:
//
//   - explicit stream entries (Options.Entries/EntryLabels): nothing —
//     SSTART gives the stream a PC and nothing else;
//   - vector slots: the hardware entry sequence pushed the old SR into
//     R0 and the return PC into R1 (§3.6.3); R2..R7 alias the
//     interrupted frame and reading them samples garbage; the flags
//     are the interrupted context's — branching on them is a bug;
//   - CALL targets: R0 holds the return PC and R1..R7 window into the
//     caller's frame, the documented argument-passing convention
//     (internal/asmlib), so everything is treated as defined;
//   - unreferenced labels: the caller is outside the image; everything
//     is treated as defined to avoid convicting code on missing
//     evidence.
//
// Globals and ZR are always defined (shared/constant). Merging is set
// intersection: a register is defined at a join only if every path
// defines it.

// Definedness bit positions: 0..7 window locals, then H and flags.
const (
	defH     = 1 << 8
	defFlags = 1 << 9
	defAll   = 1<<10 - 1
)

func entryMask(k entryKind) uint16 {
	switch k {
	case entryStream:
		return 0
	case entryVector:
		return 1<<isa.R0 | 1<<isa.R1
	default: // entryCall, entryLabel
		return defAll
	}
}

// defState is the use-def fact at one word.
type defState struct {
	set      bool
	mask     uint16 // definedness bits reaching the word on every path
	reported uint16 // definedness bits already reported undefined here
}

func (a *analyzer) useDefPass() {
	states := make([]defState, len(a.code))
	var work []int32

	merge := func(i int32, mask uint16) {
		st := &states[i]
		if !st.set {
			st.set, st.mask = true, mask
			work = append(work, i)
			return
		}
		if next := st.mask & mask; next != st.mask {
			st.mask = next
			work = append(work, i)
		}
	}
	for i, k := range a.entry {
		if k != entryNone {
			merge(int32(i), entryMask(k))
		}
	}

	for len(work) > 0 {
		i := work[len(work)-1]
		work = work[:len(work)-1]
		ins := &a.code[i]
		if ins.bad != nil {
			continue
		}
		inst, st := ins.in, &states[i]
		state := st.mask
		report := func(bit uint16, format string, args ...any) {
			if st.reported&(1<<bit) != 0 {
				return
			}
			st.reported |= 1 << bit
			a.findingf(PassUseDef, Warning, ins.addr, format, args...)
		}

		// Reads first: operands are sampled before results land.
		reads, nr := inst.RegReads()
		for _, r := range reads[:nr] {
			switch {
			case r.IsWindow():
				if state&(1<<r) == 0 {
					report(uint16(r), "%s reads %s before any write on a path from a stream entry (use-before-def)", inst.Op, r)
				}
			case r == isa.H:
				if state&defH == 0 {
					report(8, "%s reads H before any MUL on this path", inst.Op)
				}
			}
			// SR as a data operand is a context save, not a flags use.
		}
		if inst.ReadsH() && state&defH == 0 {
			report(8, "MFS reads H before any MUL on this path")
		}
		if inst.ReadsFlags() && state&defFlags == 0 {
			report(9, "B%s tests condition flags never set on a path from a stream entry", inst.Cond)
		}

		// Writes and clobbers.
		out := state
		writes, nw := inst.RegWrites()
		for _, r := range writes[:nw] {
			switch {
			case r.IsWindow():
				out |= 1 << r
			case r == isa.H:
				out |= defH
			case r == isa.SR:
				out |= defFlags
			}
		}
		if inst.WritesH() {
			out |= defH
		}
		if inst.SetsFlags() {
			out |= defFlags
		}
		if inst.Op == isa.OpMTS && inst.Spec == isa.SpecAWP {
			// The window was relocated; locals now alias arbitrary
			// physical registers.
			out &^= 1<<isa.WindowSize - 1
		}
		flow := inst.Flow()
		if flow == isa.FlowCall || flow == isa.FlowCallIndirect {
			// Balanced callee: locals survive (§3.5 protocol), but the
			// callee's ALU work redefines flags and may redefine H.
			out |= defFlags | defH
		}

		// The callee is analyzed from its own root.
		for _, s := range ins.frameSuccs(fateVaries) {
			if s >= 0 {
				merge(s, out)
			}
		}
	}
}
