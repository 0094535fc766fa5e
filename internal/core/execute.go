package core

import (
	"disc/internal/bus"
	"disc/internal/interrupt"
	"disc/internal/isa"
	"disc/internal/obs"
)

// execute performs a slot's semantics as it arrives at EX, for stream
// id whose context is s. Same-stream instructions reach EX strictly in
// program order, so executing atomically here models a machine with a
// perfect bypass network. It is the machine's one EX stage: the
// per-cycle pipelines pass their EX slot, and a fused block session
// passes the region's compiled slot (whose stream field it ignores).
func (m *Machine) execute(id int, s *stream, sl *slot) {
	if sl.kind == kindIntEntry {
		// Hardware interrupt entry: push return PC, then the old SR
		// (with the pre-entry level), and switch to the new level.
		s.entryInFlight = false
		prev := s.intr.Enter(sl.bit)
		ev := s.win.Push(sl.retPC)
		m.raiseStackEvent(id, ev)
		ev = s.win.Push(uint16(s.flags) | uint16(prev)<<isa.SRLevelShift)
		m.raiseStackEvent(id, ev)
		return
	}

	in := &sl.instr
	if sl.shadow {
		s.branchShadow--
	}

	switch in.Op {
	// ---- Memory ----
	case isa.OpLD:
		ea := m.readReg(s, in.Rs) + uint16(in.Imm)
		m.access(id, sl, s, ea, false, 0, in.Rd)
	case isa.OpST:
		ea := m.readReg(s, in.Rs) + uint16(in.Imm)
		m.access(id, sl, s, ea, true, m.readReg(s, in.Rd), 0)
	case isa.OpLDM:
		m.access(id, sl, s, uint16(in.Imm), false, 0, in.Rd)
	case isa.OpSTM:
		m.access(id, sl, s, uint16(in.Imm), true, m.readReg(s, in.Rd), 0)
	case isa.OpTAS:
		// Test-and-set is only atomic against the zero-wait internal
		// memory; external TAS is architecturally undefined and
		// degrades to a plain load (counted as a fault).
		ea := m.readReg(s, in.Rs) + uint16(in.Imm)
		if m.imem.Contains(ea) {
			old := m.imem.TestAndSet(ea)
			m.setZN(s, old)
			m.writeReg(s, in.Rd, old)
		} else {
			m.stats.UndefinedTAS++
			m.access(id, sl, s, ea, false, 0, in.Rd)
		}

	// ---- Control flow (resolved here at EX; shadow already lifted) ----
	case isa.OpJMP:
		s.pc = uint16(in.Imm)
	case isa.OpJR:
		s.pc = m.readReg(s, in.Rs)
	case isa.OpBcc:
		if condTrue(in.Cond, s.flags) {
			s.pc = sl.pc + 1 + uint16(in.Imm)
		}
		// Not taken: pc already points at sl.pc+1 (shadow blocked
		// further fetch), so fall-through needs no action.
	case isa.OpCALL, isa.OpCALR:
		target := uint16(in.Imm)
		if in.Op == isa.OpCALR {
			target = m.readReg(s, in.Rs)
		}
		ev := s.win.Push(sl.pc + 1)
		m.raiseStackEvent(id, ev)
		s.pc = target
	case isa.OpRET:
		// §3.5: step AWP down over the callee's frame to the return
		// cell, restore PC, and step once more.
		ev := s.win.Adjust(-int(in.Imm))
		m.raiseStackEvent(id, ev)
		s.pc = s.win.Read(0)
		ev = s.win.Adjust(-1)
		m.raiseStackEvent(id, ev)
	case isa.OpRETI:
		sr, ev := s.win.Pop()
		m.raiseStackEvent(id, ev)
		ret, ev2 := s.win.Pop()
		m.raiseStackEvent(id, ev2)
		s.intr.Exit(uint8(sr >> isa.SRLevelShift & 0x7))
		s.flags = uint8(sr & 0xF)
		s.pc = ret

	// ---- Stream and interrupt control ----
	case isa.OpSSTART:
		// Start another stream at the address held in rs. Starting an
		// already-active stream — or one beyond the configured stream
		// count — is ignored (the context is live, or absent).
		if int(in.S) >= len(m.streams) {
			m.stats.SStartIgnored++
			break
		}
		t := m.streams[in.S]
		if !t.intr.Active() && t.state == StateRun {
			t.pc = m.readReg(s, in.Rs)
			t.intr.Request(interrupt.Background)
		} else {
			m.stats.SStartIgnored++
		}
	case isa.OpSIGNAL:
		// Signalling an unimplemented stream is a no-op, like raising
		// an external interrupt line that is not bonded out.
		if int(in.S) < len(m.streams) {
			m.streams[in.S].intr.Request(in.N)
		}
	case isa.OpCLRI:
		s.intr.Clear(in.N)
	case isa.OpSETMR:
		s.intr.SetMR(uint8(in.Imm))
	case isa.OpWAITI:
		if s.intr.Test(in.N) {
			s.intr.Clear(in.N)
		} else {
			// Sleep until the bit arrives; the WAITI itself re-executes
			// on wake-up so a preempting vectored handler returns to
			// the join point, not past it.
			s.state = StateIRQWait
			s.waitBit = in.N
			m.flushYounger(id)
			s.pc = sl.pc
			if m.rec != nil {
				m.emitState(id, obs.StreamRun, obs.StreamIRQWait)
			}
		}
	case isa.OpHALT:
		s.intr.Clear(interrupt.Background)
		if !s.intr.Active() {
			m.flushYounger(id)
			s.pc = sl.pc + 1
			if m.rec != nil {
				m.emitState(id, obs.StreamRun, obs.StreamHalted)
			}
		}
	case isa.OpMFS:
		m.writeReg(s, in.Rd, m.readSpecial(sl, s))
	case isa.OpMTS:
		m.writeSpecial(id, sl, s, m.readReg(s, in.Rs))
	default:
		m.alu(s, in) // NOP..LDHI
	}

	// Post-instruction stack-window adjust (§3.5).
	switch in.SW {
	case isa.SWInc:
		m.raiseStackEvent(id, s.win.Adjust(1))
	case isa.SWDec:
		m.raiseStackEvent(id, s.win.Adjust(-1))
	}
}

// alu performs the register-only instructions, NOP through LDHI. It is
// kept apart from execute, and small, so that the register-file reads
// and writes inline into it: Go does not inline them into a function
// the size of execute, and a fused block session spends most of its
// time here.
func (m *Machine) alu(s *stream, in *isa.Instruction) {
	switch in.Op {
	case isa.OpNOP:

	// ---- ALU register-register ----
	case isa.OpADD:
		a, b := m.readReg(s, in.Rs), m.readReg(s, in.Rt)
		r := a + b
		m.addFlags(s, a, b, r)
		m.writeReg(s, in.Rd, r)
	case isa.OpSUB:
		a, b := m.readReg(s, in.Rs), m.readReg(s, in.Rt)
		r := a - b
		m.subFlags(s, a, b, r)
		m.writeReg(s, in.Rd, r)
	case isa.OpAND:
		r := m.readReg(s, in.Rs) & m.readReg(s, in.Rt)
		m.setZN(s, r)
		m.writeReg(s, in.Rd, r)
	case isa.OpOR:
		r := m.readReg(s, in.Rs) | m.readReg(s, in.Rt)
		m.setZN(s, r)
		m.writeReg(s, in.Rd, r)
	case isa.OpXOR:
		r := m.readReg(s, in.Rs) ^ m.readReg(s, in.Rt)
		m.setZN(s, r)
		m.writeReg(s, in.Rd, r)
	case isa.OpSHL:
		a := m.readReg(s, in.Rs)
		amt := m.readReg(s, in.Rt) & 0xF
		r := a << amt
		m.setZN(s, r)
		if amt > 0 {
			s.flags &^= isa.FlagC
			if a&(1<<(16-amt)) != 0 {
				s.flags |= isa.FlagC
			}
		}
		m.writeReg(s, in.Rd, r)
	case isa.OpSHR:
		a := m.readReg(s, in.Rs)
		amt := m.readReg(s, in.Rt) & 0xF
		r := a >> amt
		m.setZN(s, r)
		if amt > 0 {
			s.flags &^= isa.FlagC
			if a&(1<<(amt-1)) != 0 {
				s.flags |= isa.FlagC
			}
		}
		m.writeReg(s, in.Rd, r)
	case isa.OpASR:
		a := m.readReg(s, in.Rs)
		amt := m.readReg(s, in.Rt) & 0xF
		r := uint16(int16(a) >> amt)
		m.setZN(s, r)
		m.writeReg(s, in.Rd, r)
	case isa.OpMUL:
		// 16x16 hardware multiplier (§3.7): low half to rd, high to H.
		p := uint32(m.readReg(s, in.Rs)) * uint32(m.readReg(s, in.Rt))
		lo := uint16(p)
		s.h = uint16(p >> 16)
		m.setZN(s, lo)
		m.writeReg(s, in.Rd, lo)
	case isa.OpCMP:
		a, b := m.readReg(s, in.Rs), m.readReg(s, in.Rt)
		m.subFlags(s, a, b, a-b)
	case isa.OpMOV:
		r := m.readReg(s, in.Rs)
		m.setZN(s, r)
		m.writeReg(s, in.Rd, r)
	case isa.OpNOT:
		r := ^m.readReg(s, in.Rs)
		m.setZN(s, r)
		m.writeReg(s, in.Rd, r)
	case isa.OpNEG:
		a := m.readReg(s, in.Rs)
		r := -a
		m.subFlags(s, 0, a, r)
		m.writeReg(s, in.Rd, r)
	case isa.OpSWP:
		// Atomic exchange — with globals this is the register-file
		// semaphore of §3.6.2.
		a, b := m.readReg(s, in.Rd), m.readReg(s, in.Rs)
		m.writeReg(s, in.Rd, b)
		m.writeReg(s, in.Rs, a)
		m.setZN(s, b)

	// ---- ALU immediate (read-modify-write on rd) ----
	case isa.OpADDI:
		a, b := m.readReg(s, in.Rd), uint16(in.Imm)
		r := a + b
		m.addFlags(s, a, b, r)
		m.writeReg(s, in.Rd, r)
	case isa.OpSUBI:
		a, b := m.readReg(s, in.Rd), uint16(in.Imm)
		r := a - b
		m.subFlags(s, a, b, r)
		m.writeReg(s, in.Rd, r)
	case isa.OpANDI:
		r := m.readReg(s, in.Rd) & uint16(in.Imm)
		m.setZN(s, r)
		m.writeReg(s, in.Rd, r)
	case isa.OpORI:
		r := m.readReg(s, in.Rd) | uint16(in.Imm)
		m.setZN(s, r)
		m.writeReg(s, in.Rd, r)
	case isa.OpXORI:
		r := m.readReg(s, in.Rd) ^ uint16(in.Imm)
		m.setZN(s, r)
		m.writeReg(s, in.Rd, r)
	case isa.OpCMPI:
		a, b := m.readReg(s, in.Rd), uint16(in.Imm)
		m.subFlags(s, a, b, a-b)
	case isa.OpLDI:
		r := uint16(in.Imm)
		m.setZN(s, r)
		m.writeReg(s, in.Rd, r)
	case isa.OpLDHI:
		// Load-high clears the low byte so that LDHI+ORI (the LI
		// pseudo-instruction) materialises any 16-bit constant
		// regardless of the register's previous contents.
		r := uint16(in.Imm) << 8
		m.setZN(s, r)
		m.writeReg(s, in.Rd, r)

	}
}

// access routes a data access: internal memory completes in the same
// cycle; anything at or above isa.ExternalBase goes through the ABI
// with the full §3.6.1 wait-state protocol.
func (m *Machine) access(id int, sl *slot, s *stream, ea uint16, write bool, data uint16, dest isa.Reg) {
	if m.imem.Contains(ea) {
		if write {
			m.imem.Write(ea, data)
			m.checkWatch(id, sl.pc, ea, data)
		} else {
			v := m.imem.Read(ea)
			m.setZN(s, v)
			m.writeReg(s, dest, v)
		}
		return
	}
	if m.inSession {
		// A fused block session ends at its first external access.
		m.blockBusEnter(id, s, sl.pc, ea, write, data, dest)
		return
	}
	if m.bus.Busy() {
		// Busy flag set: the instruction is flushed and the access is
		// re-requested once the stream leaves the wait state (§4.1).
		m.bus.Start(bus.Request{}) // records the rejection statistic
		s.state = StateBusWait
		s.busRetries++
		m.stats.BusRetries++
		m.flushYounger(id)
		s.pc = sl.pc // retry the whole instruction
		if m.rec != nil {
			m.rec.Emit(obs.Event{Cycle: m.cycle, Kind: obs.KindBusRetry,
				Stream: int8(id), PC: sl.pc, Addr: ea})
			m.emitState(id, obs.StreamRun, obs.StreamBusWait)
		}
		return
	}
	m.bus.Start(bus.Request{
		Stream: id,
		Write:  write,
		Addr:   ea,
		Data:   data,
		Dest:   uint8(dest),
		Tag:    m.cycle,
	})
	s.state = StateBusWait
	s.busWaits++
	m.stats.BusWaits++
	m.flushYounger(id)
	s.pc = sl.pc + 1 // flushed successors re-fetch after reactivation
	if m.rec != nil {
		w := uint8(0)
		if write {
			w = 1
		}
		m.rec.Emit(obs.Event{Cycle: m.cycle, Kind: obs.KindBusWait,
			Stream: int8(id), PC: sl.pc, Addr: ea, A: w})
		m.emitState(id, obs.StreamRun, obs.StreamBusWait)
	}
}

// readSpecial implements MFS.
func (m *Machine) readSpecial(sl *slot, s *stream) uint16 {
	switch sl.instr.Spec {
	case isa.SpecPC:
		return sl.pc
	case isa.SpecSR:
		return s.sr()
	case isa.SpecH:
		return s.h
	case isa.SpecVB:
		return s.vb
	case isa.SpecAWP:
		return uint16(s.win.AWP())
	case isa.SpecBOS:
		return uint16(s.win.BOS())
	case isa.SpecIR:
		return uint16(s.intr.IR())
	case isa.SpecMR:
		return uint16(s.intr.MR())
	}
	return 0
}

// writeSpecial implements MTS. Writing PC is a computed jump and was
// treated as a control transfer at issue.
func (m *Machine) writeSpecial(id int, sl *slot, s *stream, v uint16) {
	switch sl.instr.Spec {
	case isa.SpecPC:
		s.pc = v
	case isa.SpecSR:
		s.flags = uint8(v & 0xF)
	case isa.SpecH:
		s.h = v
	case isa.SpecVB:
		s.vb = v
	case isa.SpecAWP:
		m.raiseStackEvent(id, s.win.SetAWP(int(int16(v))))
	case isa.SpecBOS:
		s.win.SetBOS(int(int16(v)))
	case isa.SpecIR:
		s.intr.SetIR(uint8(v))
	case isa.SpecMR:
		s.intr.SetMR(uint8(v))
	}
}
