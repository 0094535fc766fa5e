package isa

// Static-effect helpers: what an instruction reads, writes and does to
// control flow and the stack window, derivable without executing it.
// internal/analysis builds its CFG and dataflow passes on these, so the
// answers here must match internal/core's execute semantics exactly.

// FlowKind classifies an instruction's effect on control flow.
type FlowKind uint8

// Control-flow classes.
const (
	FlowFall         FlowKind = iota // falls through to pc+1
	FlowJump                         // unconditional, static target
	FlowCond                         // conditional: static target or fallthrough
	FlowCall                         // static target, returns to pc+1
	FlowCallIndirect                 // register target, returns to pc+1
	FlowIndirect                     // register target, no fallthrough (JR, MTS PC)
	FlowReturn                       // RET/RETI: target only known dynamically
	FlowHalt                         // HALT: stream deactivates
)

// Flow returns the instruction's control-flow class. A BAL (Bcc with
// CondAL) is an unconditional jump; MTS PC is a computed jump.
func (in Instruction) Flow() FlowKind {
	switch in.Op {
	case OpJMP:
		return FlowJump
	case OpBcc:
		if in.Cond == CondAL {
			return FlowJump
		}
		return FlowCond
	case OpCALL:
		return FlowCall
	case OpCALR:
		return FlowCallIndirect
	case OpJR:
		return FlowIndirect
	case OpMTS:
		if in.Spec == SpecPC {
			return FlowIndirect
		}
		return FlowFall
	case OpRET, OpRETI:
		return FlowReturn
	case OpHALT:
		return FlowHalt
	}
	return FlowFall
}

// StaticTarget returns the branch destination when it is a compile-time
// constant: JMP/CALL absolutes and Bcc PC-relative displacements.
func (in Instruction) StaticTarget(pc uint16) (uint16, bool) {
	switch in.Op {
	case OpJMP, OpCALL:
		return uint16(in.Imm), true
	case OpBcc:
		return pc + 1 + uint16(in.Imm), true
	}
	return 0, false
}

// AWPDelta returns the instruction's net stack-window pointer change,
// including both the opcode's intrinsic push/pop behaviour and the
// carried SW adjust field (§3.5). known is false when the change cannot
// be determined statically (MTS AWP relocates the window wholesale).
// CALL/CALR report their push; the matching pop happens in the callee's
// RET, so interprocedural balance is the analyzer's business.
func (in Instruction) AWPDelta() (delta int, known bool) {
	switch in.Op {
	case OpCALL, OpCALR:
		delta = 1
	case OpRET:
		delta = -int(in.Imm) - 1
	case OpRETI:
		delta = -2
	case OpMTS:
		if in.Spec == SpecAWP {
			return 0, false
		}
	}
	switch in.SW {
	case SWInc:
		delta++
	case SWDec:
		delta--
	}
	return delta, true
}

// RegReads lists the architectural register fields the instruction
// reads: the first n entries of rs. ZR reads are included (they are
// legal and read zero); callers tracking definedness treat ZR and the
// globals as always defined. No instruction reads more than two
// register fields, so the list is a fixed array and costs no
// allocation.
func (in Instruction) RegReads() (rs [2]Reg, n int) {
	switch in.Op {
	case OpADD, OpSUB, OpAND, OpOR, OpXOR, OpSHL, OpSHR, OpASR, OpMUL, OpCMP:
		return [2]Reg{in.Rs, in.Rt}, 2
	case OpMOV, OpNOT, OpNEG:
		return [2]Reg{in.Rs}, 1
	case OpSWP:
		return [2]Reg{in.Rd, in.Rs}, 2
	case OpADDI, OpSUBI, OpANDI, OpORI, OpXORI, OpCMPI:
		return [2]Reg{in.Rd}, 1
	case OpLD, OpTAS:
		return [2]Reg{in.Rs}, 1
	case OpST:
		return [2]Reg{in.Rd, in.Rs}, 2
	case OpSTM:
		return [2]Reg{in.Rd}, 1
	case OpJR, OpCALR, OpSSTART, OpMTS:
		return [2]Reg{in.Rs}, 1
	}
	return rs, 0
}

// RegWrites lists the register fields the instruction writes, as the
// first n entries of ws (at most two, see RegReads). CALL's push of the
// return PC lands in the *callee's* R0, so it is not reported here;
// analyzers model it at the callee's entry instead.
func (in Instruction) RegWrites() (ws [2]Reg, n int) {
	switch in.Op {
	case OpADD, OpSUB, OpAND, OpOR, OpXOR, OpSHL, OpSHR, OpASR, OpMUL,
		OpMOV, OpNOT, OpNEG,
		OpADDI, OpSUBI, OpANDI, OpORI, OpXORI, OpLDI, OpLDHI,
		OpLD, OpLDM, OpTAS, OpMFS:
		return [2]Reg{in.Rd}, 1
	case OpSWP:
		return [2]Reg{in.Rd, in.Rs}, 2
	}
	return ws, 0
}

// WritesH reports whether the instruction overwrites the H special
// (the multiplier's high half, readable only through MFS).
func (in Instruction) WritesH() bool {
	return in.Op == OpMUL || (in.Op == OpMTS && in.Spec == SpecH)
}

// ReadsH reports whether the instruction observes H.
func (in Instruction) ReadsH() bool {
	return in.Op == OpMFS && in.Spec == SpecH
}

// SetsFlags reports whether the instruction defines the SR condition
// flags: every ALU result, compares, loads (which set Z/N on the loaded
// value), and direct SR writes.
func (in Instruction) SetsFlags() bool {
	switch in.Op {
	case OpADD, OpSUB, OpAND, OpOR, OpXOR, OpSHL, OpSHR, OpASR, OpMUL,
		OpCMP, OpMOV, OpNOT, OpNEG, OpSWP,
		OpADDI, OpSUBI, OpANDI, OpORI, OpXORI, OpCMPI, OpLDI, OpLDHI,
		OpLD, OpLDM, OpTAS, OpRETI:
		return true
	case OpMTS:
		return in.Spec == SpecSR
	}
	return false
}

// ReadsFlags reports whether the instruction's behaviour depends on the
// SR condition flags: conditional branches and SR reads.
func (in Instruction) ReadsFlags() bool {
	switch in.Op {
	case OpBcc:
		return in.Cond != CondAL
	case OpMFS:
		return in.Spec == SpecSR
	}
	return false
}

// IRQVisible reports whether executing the instruction can change any
// stream's interrupt state — raise, clear or mask IR bits, consume a
// WAITI join, enter or leave a vectored level. These are the points a
// block-compiled executor must stay interpretive around, because the
// machine emits interrupt events (and may reschedule) exactly there.
func (in Instruction) IRQVisible() bool {
	switch in.Op {
	case OpSSTART, OpSIGNAL, OpCLRI, OpSETMR, OpWAITI, OpRETI, OpHALT:
		return true
	case OpMTS:
		return in.Spec == SpecIR || in.Spec == SpecMR
	}
	return false
}

// StreamControl reports whether the instruction can change which
// streams are runnable: starting a stream, signalling a join, blocking
// on one, or deactivating (§3.4, §3.6.3). A scheduler consuming block
// summaries must re-evaluate readiness after any of these.
func (in Instruction) StreamControl() bool {
	switch in.Op {
	case OpSSTART, OpSIGNAL, OpWAITI, OpHALT, OpRETI:
		return true
	}
	return false
}

// MemAccess describes the instruction's data-memory access, when it has
// one: the base register (ZR for the absolute LDM/STM forms), the
// signed offset added to it, and whether the access writes. ok is false
// for non-memory instructions. External TAS degrades to a load, so TAS
// reports a read either way.
func (in Instruction) MemAccess() (base Reg, off int32, write, ok bool) {
	switch in.Op {
	case OpLD, OpTAS:
		return in.Rs, in.Imm, false, true
	case OpST:
		return in.Rs, in.Imm, true, true
	case OpLDM:
		return ZR, in.Imm, false, true
	case OpSTM:
		return ZR, in.Imm, true, true
	}
	return 0, 0, false, false
}

// DecodeRaw unpacks a word's fields per its opcode's format without any
// validation, so diagnostics can name the illegal field (for example a
// reserved register-15 encoding) that makes Decode reject the word.
// The result is meaningless for undefined opcodes beyond Op itself.
func DecodeRaw(w Word) Instruction {
	in := Instruction{
		Op: Op(w >> 18 & 0x3F),
		SW: SW(w >> 16 & 0x3),
	}
	switch in.Op.Format() {
	case FmtR:
		in.Rd = Reg(w >> 12 & 0xF)
		in.Rs = Reg(w >> 8 & 0xF)
		in.Rt = Reg(w >> 4 & 0xF)
		if in.Op == OpMFS || in.Op == OpMTS {
			in.Spec = Special(in.Rt)
			in.Rt = R0
		}
	case FmtI:
		in.Rd = Reg(w >> 12 & 0xF)
		in.Imm = int32(w & 0xFFF)
		if signedImm(in.Op) && in.Imm&0x800 != 0 {
			in.Imm -= 0x1000
		}
	case FmtM:
		in.Rd = Reg(w >> 12 & 0xF)
		in.Rs = Reg(w >> 8 & 0xF)
		in.Imm = int32(w & 0xFF)
		if in.Imm&0x80 != 0 {
			in.Imm -= 0x100
		}
	case FmtB:
		in.Cond = Cond(w >> 12 & 0xF)
		in.Imm = int32(w & 0xFFF)
		if in.Imm&0x800 != 0 {
			in.Imm -= 0x1000
		}
	case FmtJ:
		in.Imm = int32(w & 0xFFFF)
	case FmtS:
		in.S = uint8(w >> 14 & 0x3)
		in.N = uint8(w >> 11 & 0x7)
		in.Rs = Reg(w >> 7 & 0xF)
	}
	return in
}

// ReservedRegField reports whether any register field the opcode's
// format actually decodes holds the reserved value 15 (§3.7: register
// field 15 is architecturally illegal).
func ReservedRegField(w Word) (Reg, bool) {
	in := DecodeRaw(w)
	if !in.Op.Valid() {
		return 0, false
	}
	var fields []Reg
	switch in.Op.Format() {
	case FmtR:
		if in.Op == OpMFS {
			fields = []Reg{in.Rd}
		} else if in.Op == OpMTS {
			fields = []Reg{in.Rs}
		} else {
			fields = []Reg{in.Rd, in.Rs, in.Rt}
		}
	case FmtI:
		fields = []Reg{in.Rd}
	case FmtM:
		fields = []Reg{in.Rd, in.Rs}
	case FmtS:
		if in.Op == OpSSTART {
			fields = []Reg{in.Rs}
		}
	}
	for _, r := range fields {
		if r == RegInvalid {
			return r, true
		}
	}
	return 0, false
}
