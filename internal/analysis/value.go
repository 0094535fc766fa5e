package analysis

import (
	"math/bits"

	"disc/internal/isa"
)

// Value-range / constant-propagation pass. An abstract interpretation
// of the program over an interval domain: each window local R0..R7 and
// the H special carry an unsigned interval [lo,hi] ⊆ [0,0xFFFF], and
// the SR condition flags carry a symbolic abstraction of the last
// flag-setting operation. A worklist fixpoint propagates the state
// through the instruction-level CFG; widening-to-extremes at joins
// (a bound that moves, moves all the way) makes the lattice finite
// and termination unconditional.
//
// The pass powers four findings:
//
//   - never/always-taken conditional branches (the condition is
//     provably false/true on every reaching path);
//   - provably-unmapped external accesses, when Options.BusRanges
//     supplies the device map: an effective address whose entire
//     interval is external and intersects no device is a run-time
//     bus fault, found at lint time;
//   - constant-fold hints (Options.ConstHints): register-register ALU
//     work whose result is the same constant on every path;
//   - the livelock pass consumes the branch fates to prune provably
//     dead edges before looking for yield-free cycles.
//
// Soundness notes. Globals G0..G3 are shared mutable state and always
// read as top. Loads read top (memory is not modeled). MTS AWP
// relocates the window, so every local becomes top. CALL/CALR assume
// the balanced-callee protocol (locals survive, flags and H do not) —
// the same assumption the depth and use-def passes make. Interrupt
// handlers are separate roots starting from top, so a handler firing
// mid-block cannot invalidate block-local facts (it runs on pushed
// frames and returns through RETI, which restores SR).

// ival is an unsigned interval [lo,hi] over the 16-bit data word.
// lo <= hi always; the domain does not represent wrapped intervals —
// an arithmetic result that straddles the wrap goes to top.
type ival struct{ lo, hi uint16 }

func topv() ival           { return ival{0, 0xFFFF} }
func cst(v uint16) ival    { return ival{v, v} }
func (v ival) isTop() bool { return v.lo == 0 && v.hi == 0xFFFF }

// isConst returns the single value of a singleton interval.
func (v ival) isConst() (uint16, bool) { return v.lo, v.lo == v.hi }

// widen folds an incoming interval into an existing one: a bound that
// grew is widened to its extreme. Each bound can only move once, so
// chains of widenings terminate after two steps per cell.
func widen(old, in ival) ival {
	out := old
	if in.lo < old.lo {
		out.lo = 0
	}
	if in.hi > old.hi {
		out.hi = 0xFFFF
	}
	return out
}

// iadd is interval addition modulo 2^16: exact when neither or both
// bound sums wrap, top when only one does.
func iadd(a, b ival) ival {
	lo := uint32(a.lo) + uint32(b.lo)
	hi := uint32(a.hi) + uint32(b.hi)
	if hi <= 0xFFFF {
		return ival{uint16(lo), uint16(hi)}
	}
	if lo > 0xFFFF {
		return ival{uint16(lo), uint16(hi)} // both wrap: still ordered
	}
	return topv()
}

// isub is interval subtraction modulo 2^16.
func isub(a, b ival) ival {
	if a.lo >= b.hi {
		return ival{a.lo - b.hi, a.hi - b.lo}
	}
	if a.hi < b.lo {
		return ival{a.lo - b.hi, a.hi - b.lo} // both wrap: still ordered
	}
	return topv()
}

// iand/ior/ixor are conservative bitwise interval transfers; exact for
// constants.
func iand(a, b ival) ival {
	if av, ok := a.isConst(); ok {
		if bv, ok := b.isConst(); ok {
			return cst(av & bv)
		}
	}
	hi := a.hi
	if b.hi < hi {
		hi = b.hi
	}
	return ival{0, hi}
}

func ior(a, b ival) ival {
	if av, ok := a.isConst(); ok {
		if bv, ok := b.isConst(); ok {
			return cst(av | bv)
		}
	}
	lo := a.lo
	if b.lo > lo {
		lo = b.lo
	}
	hi := uint16(1)<<bits.Len16(a.hi|b.hi) - 1
	return ival{lo, hi}
}

func ixor(a, b ival) ival {
	if av, ok := a.isConst(); ok {
		if bv, ok := b.isConst(); ok {
			return cst(av ^ bv)
		}
	}
	return ival{0, uint16(1)<<bits.Len16(a.hi|b.hi) - 1}
}

// flagsAbs abstracts the SR condition flags by remembering what last
// set them: a compare (operand intervals a, b — the flags describe
// a-b) or an ALU result (interval a — Z and N describe the value).
type flagsAbs struct {
	kind uint8 // flUnknown, flCmp, flVal
	a, b ival
}

const (
	flUnknown = iota
	flCmp
	flVal
)

func flagsTop() flagsAbs          { return flagsAbs{kind: flUnknown} }
func flagsCmp(a, b ival) flagsAbs { return flagsAbs{kind: flCmp, a: a, b: b} }
func flagsVal(v ival) flagsAbs    { return flagsAbs{kind: flVal, a: v} }

// mergeFlags joins two flag abstractions: equal kinds widen pointwise,
// different kinds lose everything.
func mergeFlags(old, in flagsAbs) flagsAbs {
	if old.kind != in.kind {
		return flagsTop()
	}
	return flagsAbs{kind: old.kind, a: widen(old.a, in.a), b: widen(old.b, in.b)}
}

// Branch fates. The tri-state is joined across every fixpoint visit of
// the branch, so only verdicts that hold in the final state survive.
const (
	fateNever  int8 = -1
	fateVaries int8 = 0
	fateAlways int8 = 1
)

// Fate is the exported view of one conditional branch's proven runtime
// behaviour, for consumers of a Summary (fusion planners, linters). The
// zero value is the sound default: nothing proven.
type Fate int8

const (
	// FateNever: the condition is false on every reachable execution —
	// the branch falls through; its taken edge is dead.
	FateNever Fate = -1
	// FateVaries: neither direction could be ruled out (or the address
	// is not a reachable conditional branch).
	FateVaries Fate = 0
	// FateAlways: the condition holds on every reachable execution —
	// the branch is taken; its fall-through edge is dead.
	FateAlways Fate = 1
)

// branchFate decides a condition against the flag abstraction:
// fateAlways / fateNever when provable, fateVaries otherwise.
func branchFate(c isa.Cond, fl flagsAbs) int8 {
	switch fl.kind {
	case flCmp:
		return cmpFate(c, fl.a, fl.b)
	case flVal:
		return valFate(c, fl.a)
	}
	return fateVaries
}

// cmpFate evaluates a condition over the flags of a-b with a ∈ fl.a,
// b ∈ fl.b. Unsigned conditions use interval bounds directly; signed
// conditions reduce to the unsigned ones when both intervals sit on
// one side of the sign boundary, and separate provably when they sit
// on opposite sides.
func cmpFate(c isa.Cond, a, b ival) int8 {
	disjoint := a.hi < b.lo || b.hi < a.lo
	switch c {
	case isa.CondEQ:
		if av, ok := a.isConst(); ok {
			if bv, ok2 := b.isConst(); ok2 && av == bv {
				return fateAlways
			}
		}
		if disjoint {
			return fateNever
		}
	case isa.CondNE:
		return -cmpFate(isa.CondEQ, a, b)
	case isa.CondCS: // unsigned a >= b
		if a.lo >= b.hi {
			return fateAlways
		}
		if a.hi < b.lo {
			return fateNever
		}
	case isa.CondCC:
		return -cmpFate(isa.CondCS, a, b)
	case isa.CondHI: // unsigned a > b
		if a.lo > b.hi {
			return fateAlways
		}
		if a.hi <= b.lo {
			return fateNever
		}
	case isa.CondLS:
		return -cmpFate(isa.CondHI, a, b)
	case isa.CondGE, isa.CondLT, isa.CondGT, isa.CondLE:
		return signedFate(c, a, b)
	case isa.CondMI, isa.CondPL, isa.CondVS, isa.CondVC:
		av, okA := a.isConst()
		bv, okB := b.isConst()
		if okA && okB {
			if condOnConstSub(c, av, bv) {
				return fateAlways
			}
			return fateNever
		}
	}
	return fateVaries
}

// signedFate handles GE/LT/GT/LE over signed views of the intervals.
func signedFate(c isa.Cond, a, b ival) int8 {
	aNeg, aPos := a.lo >= 0x8000, a.hi < 0x8000
	bNeg, bPos := b.lo >= 0x8000, b.hi < 0x8000
	// Same sign region: signed order coincides with unsigned order.
	if (aPos && bPos) || (aNeg && bNeg) {
		switch c {
		case isa.CondGE:
			return cmpFate(isa.CondCS, a, b)
		case isa.CondLT:
			return cmpFate(isa.CondCC, a, b)
		case isa.CondGT:
			return cmpFate(isa.CondHI, a, b)
		case isa.CondLE:
			return cmpFate(isa.CondLS, a, b)
		}
	}
	// Opposite sign regions: the order is decided outright.
	if aNeg && bPos { // a < b signed
		switch c {
		case isa.CondLT, isa.CondLE:
			return fateAlways
		case isa.CondGE, isa.CondGT:
			return fateNever
		}
	}
	if aPos && bNeg { // a > b signed
		switch c {
		case isa.CondGT, isa.CondGE:
			return fateAlways
		case isa.CondLT, isa.CondLE:
			return fateNever
		}
	}
	return fateVaries
}

// condOnConstSub evaluates a condition exactly for constant compare
// operands, mirroring the machine's subFlags.
func condOnConstSub(c isa.Cond, a, b uint16) bool {
	r := a - b
	z := r == 0
	n := r&0x8000 != 0
	carry := a >= b
	v := (a^b)&(a^r)&0x8000 != 0
	switch c {
	case isa.CondEQ:
		return z
	case isa.CondNE:
		return !z
	case isa.CondCS:
		return carry
	case isa.CondCC:
		return !carry
	case isa.CondMI:
		return n
	case isa.CondPL:
		return !n
	case isa.CondVS:
		return v
	case isa.CondVC:
		return !v
	case isa.CondHI:
		return carry && !z
	case isa.CondLS:
		return !carry || z
	case isa.CondGE:
		return n == v
	case isa.CondLT:
		return n != v
	case isa.CondGT:
		return !z && n == v
	case isa.CondLE:
		return z || n != v
	}
	return false
}

// valFate evaluates a condition against an ALU-result abstraction.
// Only Z (result == 0) and N (bit 15) are derivable from the value;
// carry/overflow-based conditions stay unknown.
func valFate(c isa.Cond, v ival) int8 {
	switch c {
	case isa.CondEQ:
		if v.lo == 0 && v.hi == 0 {
			return fateAlways
		}
		if v.lo > 0 {
			return fateNever
		}
	case isa.CondNE:
		return -valFate(isa.CondEQ, v)
	case isa.CondMI:
		if v.lo >= 0x8000 {
			return fateAlways
		}
		if v.hi < 0x8000 {
			return fateNever
		}
	case isa.CondPL:
		return -valFate(isa.CondMI, v)
	}
	return fateVaries
}

// vstate is the abstract machine state at one program point.
type vstate struct {
	regs [isa.WindowSize]ival
	h    ival
	fl   flagsAbs
}

func topState() vstate {
	st := vstate{h: topv(), fl: flagsTop()}
	for i := range st.regs {
		st.regs[i] = topv()
	}
	return st
}

// mergeInto widens st with in; reports whether st changed.
func (st *vstate) mergeInto(in *vstate) bool {
	changed := false
	for i := range st.regs {
		if w := widen(st.regs[i], in.regs[i]); w != st.regs[i] {
			st.regs[i] = w
			changed = true
		}
	}
	if w := widen(st.h, in.h); w != st.h {
		st.h = w
		changed = true
	}
	if f := mergeFlags(st.fl, in.fl); f != st.fl {
		st.fl = f
		changed = true
	}
	return changed
}

// readIval abstracts a register read: window locals and H track
// intervals, ZR is the constant zero, globals and SR are top.
func (st *vstate) readIval(r isa.Reg) ival {
	switch {
	case r.IsWindow():
		return st.regs[r]
	case r == isa.H:
		return st.h
	case r == isa.ZR:
		return cst(0)
	}
	return topv()
}

func (st *vstate) writeIval(r isa.Reg, v ival) {
	switch {
	case r.IsWindow():
		st.regs[r] = v
	case r == isa.H:
		st.h = v
	}
	// Globals are shared state the domain does not track; ZR discards.
}

// immU converts a (possibly sign-extended) immediate to its 16-bit
// two's-complement machine value, matching execute's uint16(in.Imm).
func immU(imm int32) uint16 { return uint16(imm) }

// memClass classifies an effective-address interval against the
// internal/external boundary.
type memClass uint8

const (
	memInternal memClass = iota // entirely below isa.InternalSize
	memExternal                 // entirely at or above isa.InternalSize
	memEither                   // straddles the boundary (or top)
)

func classifyEA(ea ival) memClass {
	if ea.hi < isa.InternalSize {
		return memInternal
	}
	if ea.lo >= isa.InternalSize {
		return memExternal
	}
	return memEither
}

// eaInterval computes the effective-address interval of a memory
// instruction in state st.
func eaInterval(in isa.Instruction, st *vstate) (ival, bool) {
	base, off, _, ok := in.MemAccess()
	if !ok {
		return ival{}, false
	}
	return iadd(st.readIval(base), cst(immU(off))), true
}

// valuePass runs the abstract interpretation to fixpoint, recording
// final states and branch fates for the block and livelock layers, and
// emits the value findings.
func (a *analyzer) valuePass() {
	n := len(a.code)
	states := make([]vstate, n)
	a.vals = make([]*vstate, n)
	a.fates = make([]int8, n)
	fateSeen := make([]bool, n)
	var work []int32

	merge := func(i int32, in *vstate) {
		st := a.vals[i]
		if st == nil {
			states[i] = *in
			a.vals[i] = &states[i]
			work = append(work, i)
			return
		}
		if st.mergeInto(in) {
			work = append(work, i)
		}
	}

	top := topState()
	for i, k := range a.entry {
		if k != entryNone {
			merge(int32(i), &top)
		}
	}

	for len(work) > 0 {
		i := work[len(work)-1]
		work = work[:len(work)-1]
		ins := &a.code[i]
		if ins.bad != nil {
			continue
		}
		in := ins.in
		out := *a.vals[i]
		a.transfer(in, &out)

		// Conditional branches: decide the fate in the current state and
		// join it across visits; prune propagation along provably dead
		// edges (re-propagated automatically if widening revives them).
		var fate int8
		flow := in.Flow()
		if flow == isa.FlowCond {
			fate = branchFate(in.Cond, a.vals[i].fl)
			if fateSeen[i] && a.fates[i] != fate {
				fate = fateVaries
			}
			a.fates[i] = fate
			fateSeen[i] = true
		}
		if flow == isa.FlowCall || flow == isa.FlowCallIndirect {
			// Balanced callee: locals survive, flags and H do not. The
			// callee itself is its own root, starting from top.
			out.fl = flagsTop()
			out.h = topv()
		}
		for _, s := range ins.frameSuccs(fate) {
			if s >= 0 {
				merge(s, &out)
			}
		}
	}

	a.valueFindings()
}

// transfer applies one instruction's abstract semantics to st in place.
func (a *analyzer) transfer(in isa.Instruction, st *vstate) {
	switch in.Op {
	// ---- ALU register-register ----
	case isa.OpADD:
		av, bv := st.readIval(in.Rs), st.readIval(in.Rt)
		r := iadd(av, bv)
		st.fl = flagsVal(r)
		st.writeIval(in.Rd, r)
	case isa.OpSUB:
		av, bv := st.readIval(in.Rs), st.readIval(in.Rt)
		r := isub(av, bv)
		st.fl = flagsCmp(av, bv)
		st.writeIval(in.Rd, r)
	case isa.OpAND:
		r := iand(st.readIval(in.Rs), st.readIval(in.Rt))
		st.fl = flagsVal(r)
		st.writeIval(in.Rd, r)
	case isa.OpOR:
		r := ior(st.readIval(in.Rs), st.readIval(in.Rt))
		st.fl = flagsVal(r)
		st.writeIval(in.Rd, r)
	case isa.OpXOR:
		r := ixor(st.readIval(in.Rs), st.readIval(in.Rt))
		st.fl = flagsVal(r)
		st.writeIval(in.Rd, r)
	case isa.OpSHL, isa.OpSHR, isa.OpASR:
		r := shiftIval(in.Op, st.readIval(in.Rs), st.readIval(in.Rt))
		st.fl = flagsVal(r)
		st.writeIval(in.Rd, r)
	case isa.OpMUL:
		av, bv := st.readIval(in.Rs), st.readIval(in.Rt)
		lo, hi := topv(), topv()
		if ac, okA := av.isConst(); okA {
			if bc, okB := bv.isConst(); okB {
				p := uint32(ac) * uint32(bc)
				lo, hi = cst(uint16(p)), cst(uint16(p>>16))
			}
		}
		st.h = hi
		st.fl = flagsVal(lo)
		st.writeIval(in.Rd, lo)
	case isa.OpCMP:
		st.fl = flagsCmp(st.readIval(in.Rs), st.readIval(in.Rt))
	case isa.OpMOV:
		r := st.readIval(in.Rs)
		st.fl = flagsVal(r)
		st.writeIval(in.Rd, r)
	case isa.OpNOT:
		v := st.readIval(in.Rs)
		r := ival{^v.hi, ^v.lo}
		st.fl = flagsVal(r)
		st.writeIval(in.Rd, r)
	case isa.OpNEG:
		v := st.readIval(in.Rs)
		r := isub(cst(0), v)
		st.fl = flagsCmp(cst(0), v) // NEG sets flags as 0 - rs
		st.writeIval(in.Rd, r)
	case isa.OpSWP:
		dv, sv := st.readIval(in.Rd), st.readIval(in.Rs)
		st.writeIval(in.Rd, sv)
		st.writeIval(in.Rs, dv)
		st.fl = flagsVal(sv)

	// ---- ALU immediate ----
	case isa.OpADDI:
		av, bv := st.readIval(in.Rd), cst(immU(in.Imm))
		r := iadd(av, bv)
		st.fl = flagsVal(r)
		st.writeIval(in.Rd, r)
	case isa.OpSUBI:
		av, bv := st.readIval(in.Rd), cst(immU(in.Imm))
		r := isub(av, bv)
		st.fl = flagsCmp(av, bv)
		st.writeIval(in.Rd, r)
	case isa.OpANDI:
		r := iand(st.readIval(in.Rd), cst(immU(in.Imm)))
		st.fl = flagsVal(r)
		st.writeIval(in.Rd, r)
	case isa.OpORI:
		r := ior(st.readIval(in.Rd), cst(immU(in.Imm)))
		st.fl = flagsVal(r)
		st.writeIval(in.Rd, r)
	case isa.OpXORI:
		r := ixor(st.readIval(in.Rd), cst(immU(in.Imm)))
		st.fl = flagsVal(r)
		st.writeIval(in.Rd, r)
	case isa.OpCMPI:
		st.fl = flagsCmp(st.readIval(in.Rd), cst(immU(in.Imm)))
	case isa.OpLDI:
		r := cst(immU(in.Imm))
		st.fl = flagsVal(r)
		st.writeIval(in.Rd, r)
	case isa.OpLDHI:
		r := cst(immU(in.Imm) << 8)
		st.fl = flagsVal(r)
		st.writeIval(in.Rd, r)

	// ---- Memory ----
	case isa.OpLD, isa.OpLDM, isa.OpTAS:
		// The loaded value is unknown. The flags follow the machine:
		// internal accesses set Z/N on the value in the same cycle;
		// external completions write the register without touching the
		// flags. When the class is uncertain, so are the flags.
		ea, _ := eaInterval(in, st)
		switch classifyEA(ea) {
		case memInternal:
			st.fl = flagsVal(topv())
		case memExternal:
			// flags unchanged
		default:
			st.fl = flagsTop()
		}
		st.writeIval(in.Rd, topv())
	case isa.OpST, isa.OpSTM:
		// No register or flag effects.

	// ---- Specials ----
	case isa.OpMFS:
		if in.Spec == isa.SpecH {
			st.writeIval(in.Rd, st.h)
		} else {
			st.writeIval(in.Rd, topv())
		}
	case isa.OpMTS:
		switch in.Spec {
		case isa.SpecH:
			st.h = st.readIval(in.Rs)
		case isa.SpecSR:
			st.fl = flagsTop()
		case isa.SpecAWP:
			// The window was relocated: every local aliases arbitrary
			// physical registers.
			for i := range st.regs {
				st.regs[i] = topv()
			}
		}
	case isa.OpRETI:
		// Restores the interrupted SR: flags revert to an unknown
		// earlier context. (No successors anyway — FlowReturn.)
		st.fl = flagsTop()
	}
}

// shiftIval models SHL/SHR/ASR. The machine masks the amount to 0..15.
func shiftIval(op isa.Op, v, amt ival) ival {
	ac, constAmt := amt.isConst()
	if !constAmt || ac > 15 {
		// Variable or out-of-range-masked amount: only SHR keeps a
		// useful bound (result never exceeds the input).
		if op == isa.OpSHR {
			return ival{0, v.hi}
		}
		return topv()
	}
	sh := ac & 0xF
	switch op {
	case isa.OpSHL:
		if uint32(v.hi)<<sh <= 0xFFFF {
			return ival{v.lo << sh, v.hi << sh}
		}
		return topv()
	case isa.OpSHR:
		return ival{v.lo >> sh, v.hi >> sh}
	case isa.OpASR:
		if v.hi < 0x8000 || v.lo >= 0x8000 {
			// All-positive or all-negative: monotone.
			return ival{uint16(int16(v.lo) >> sh), uint16(int16(v.hi) >> sh)}
		}
		return topv()
	}
	return topv()
}

// valueFindings walks the final fixpoint state and reports what it
// proves, in address order.
func (a *analyzer) valueFindings() {
	for i := range a.code {
		ins := &a.code[i]
		st := a.vals[i]
		if !a.reach[i] || ins.bad != nil || ins.data || st == nil {
			continue
		}
		in, addr := ins.in, ins.addr

		// Branch fates.
		if in.Flow() == isa.FlowCond {
			switch a.fates[i] {
			case fateAlways:
				a.findingf(PassValue, Warning, addr,
					"B%s is always taken: the condition is provably true on every reaching path (fallthrough at %04x may be dead)",
					in.Cond, addr+1)
			case fateNever:
				a.findingf(PassValue, Warning, addr,
					"B%s is never taken: the condition is provably false on every reaching path", in.Cond)
			}
		}

		// Provably-unmapped external accesses.
		if len(a.opts.BusRanges) > 0 {
			if ea, ok := eaInterval(in, st); ok && classifyEA(ea) == memExternal {
				if !a.anyRangeIntersects(ea) {
					a.findingf(PassValue, Error, addr,
						"%s accesses %04x..%04x: provably unmapped — no bus device answers any address in range (run-time bus fault)",
						in.Op, ea.lo, ea.hi)
				}
			}
		}

		// Constant-fold hints: register-register ALU work whose result
		// is a compile-time constant.
		if a.opts.ConstHints {
			switch in.Op {
			case isa.OpADD, isa.OpSUB, isa.OpAND, isa.OpOR, isa.OpXOR,
				isa.OpSHL, isa.OpSHR, isa.OpASR, isa.OpMUL, isa.OpNOT, isa.OpNEG:
				out := *st
				a.transfer(in, &out)
				if c, ok := out.readIval(in.Rd).isConst(); ok {
					a.findingf(PassValue, Info, addr,
						"%s always computes %#04x here: foldable to a constant load", in.Op, c)
				}
			}
		}
	}
}

// anyRangeIntersects reports whether any configured bus range overlaps
// the interval.
func (a *analyzer) anyRangeIntersects(ea ival) bool {
	for _, r := range a.opts.BusRanges {
		last := uint32(r.Base) + uint32(r.Size) - 1
		if r.Size == 0 {
			continue
		}
		if uint32(ea.lo) <= last && uint32(ea.hi) >= uint32(r.Base) {
			return true
		}
	}
	return false
}
