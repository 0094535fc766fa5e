package core

import (
	"errors"
	"fmt"

	"disc/internal/bus"
	"disc/internal/interrupt"
	"disc/internal/isa"
	"disc/internal/mem"
	"disc/internal/obs"
	"disc/internal/sched"
	"disc/internal/stackwin"
)

// Step advances the machine by one clock cycle:
//
//  1. peripherals tick (they may raise IR bits),
//  2. the ABI advances; a completing access writes its destination
//     register and reactivates every bus-waiting stream (§3.6.1),
//  3. the pipe shifts — the WR slot retires, the RD slot arrives at EX
//     and its semantics execute atomically,
//  4. the scheduler picks a ready stream and the IF slot is filled,
//     injecting a vectored interrupt entry when one is pending (§3.6.3).
//
// This is the simulator's per-cycle hot loop: every table in
// EXPERIMENTS.md is tens of millions of calls to it. The fast path
// therefore avoids recomputing anything a state transition could have
// maintained — the ready mask is updated by the streams as they change
// state, device ticks and bus advance are skipped when provably idle,
// and issue reads the predecoded program store. Step itself always
// advances exactly one cycle; the driver loops (Run, RunUntilIdle,
// Guard.StepN) go through stepBlock, which jumps whole idle bus waits
// (skipIdleGap) and fused block sessions instead of stepping them.
// Config.Reference selects the original recompute-everything pipeline,
// kept as the equivalence oracle.
func (m *Machine) Step() {
	if m.cfg.Reference {
		m.stepReference()
		return
	}
	m.cycle++

	if m.bus.NeedsTick() {
		m.bus.TickDevices()
	}
	if m.bus.Busy() {
		if c, ok := m.bus.Tick(); ok {
			m.completeBus(c)
		}
	}

	// Two sweeps repair the ready bits no machine-side hook covers:
	// stall timers expire by the clock advancing, and interrupt units
	// can be mutated through raw *interrupt.Unit handles (devices,
	// tests, the rt harness) without the machine seeing a call. Every
	// unit mutation advances the shared epoch, so the interrupt sweep
	// runs only on cycles after one happened, not every cycle.
	if m.stallMask != 0 {
		m.sweepStalls()
	}
	if m.intrEpoch != m.intrSeen {
		m.sweepIntr()
	}
	if m.cfg.CheckReadiness {
		m.verifyReadyMask()
	}

	// Latch begin-of-cycle readiness: in hardware the instruction fetch
	// is concurrent with EX, so the fetch decision cannot observe this
	// cycle's execute results. A branch resolving at EX therefore costs
	// its full shadow (Figure 3.2), not one cycle less.
	latched := m.ready

	// Retire WR.
	if wr := m.stage(isa.PipeDepth - 1); wr.valid {
		m.streams[wr.stream].retired++
		m.stats.Retired++
		if m.profile != nil {
			m.profileRetire(int(wr.stream), wr.pc)
		}
		if m.rec != nil {
			m.rec.Emit(obs.Event{Cycle: m.cycle, Kind: obs.KindRetire,
				Stream: int8(wr.stream), PC: wr.pc})
		}
	}
	// Shift: rotating the ring base moves every slot down one stage;
	// the just-retired WR slot becomes the new (empty) IF.
	m.pipeBase = (m.pipeBase + isa.PipeDepth - 1) & (isa.PipeDepth - 1)
	*m.stage(0) = slot{}

	// Execute the slot that just arrived at EX (stage index 2 of 4).
	ex := m.stage(isa.PipeDepth - 2)
	if ex.valid {
		// Execute is the one place a stream can go ready → not-ready
		// mid-cycle (wait-state entry, WAITI, HALT), and it can only do
		// that to itself — cross-stream effects (SIGNAL, SSTART) only
		// raise bits, which never unready a stream, and land in other
		// streams' version counters for next cycle's sweep. Refreshing
		// just the executing stream, and only when one of its readiness
		// inputs (state, shadow depth, interrupt state) may have moved,
		// keeps the live check below exact; stallUntil is excluded
		// because execute never stalls — StallStream refreshes itself.
		// The interrupt test reads the machine-wide epoch, so a SIGNAL
		// to another stream also refreshes this one: a recompute, so
		// harmless.
		exs := m.streams[ex.stream]
		preState, preShadow, preEpoch := exs.state, exs.branchShadow, m.intrEpoch
		m.execute(int(ex.stream), exs, ex)
		if exs.state != preState || exs.branchShadow != preShadow || m.intrEpoch != preEpoch {
			m.refreshReady(int(ex.stream))
		}
	}

	// Issue using the latched decision. If this cycle's execute pushed
	// the chosen stream into a wait state (or rewound it), the slot is
	// lost — hardware would have fetched and immediately flushed.
	id, _, ok := m.sch.Next(latched)
	if ok && m.ready.Test(id) {
		m.issue(id)
	} else {
		m.stats.IdleCycles++
	}
}

// stepReference is the original pipeline: full readiness recompute and
// live decode every cycle. The differential tests run it against the
// fast path and demand byte-identical results.
func (m *Machine) stepReference() {
	m.cycle++

	m.bus.TickDevices()
	if c, ok := m.bus.Tick(); ok {
		m.completeBus(c)
	}

	var latched sched.ReadyMask
	for i := range m.streams {
		latched.SetTo(i, m.streamReady(i))
	}

	if wr := m.stage(isa.PipeDepth - 1); wr.valid {
		m.streams[wr.stream].retired++
		m.stats.Retired++
		if m.profile != nil {
			m.profileRetire(int(wr.stream), wr.pc)
		}
		if m.rec != nil {
			m.rec.Emit(obs.Event{Cycle: m.cycle, Kind: obs.KindRetire,
				Stream: int8(wr.stream), PC: wr.pc})
		}
	}
	m.pipeBase = (m.pipeBase + isa.PipeDepth - 1) & (isa.PipeDepth - 1)
	*m.stage(0) = slot{}

	ex := m.stage(isa.PipeDepth - 2)
	if ex.valid {
		m.execute(int(ex.stream), m.streams[ex.stream], ex)
	}

	id, _, ok := m.sch.Next(latched)
	if ok && m.streamReady(id) {
		m.issue(id)
	} else {
		m.stats.IdleCycles++
	}
}

// refreshReady recomputes stream i's ready bit. Every state transition
// that can change readiness calls this; Step's sweeps cover the rest.
func (m *Machine) refreshReady(i int) {
	m.ready.SetTo(i, m.streamReady(i))
}

// sweepStalls clears expired stall timers. Guarded by stallMask != 0 in
// Step so runs without fault injection never pay for it.
func (m *Machine) sweepStalls() {
	for i, s := range m.streams {
		if m.stallMask&(1<<uint(i)) == 0 {
			continue
		}
		if s.stallUntil <= m.cycle {
			m.stallMask &^= 1 << uint(i)
			m.refreshReady(i)
		}
	}
}

// sweepIntr refreshes the ready bit of every stream whose interrupt
// unit moved since the last sweep and records the epoch it has now
// seen. Step and the block session call it only when the epoch moved.
func (m *Machine) sweepIntr() {
	for i, s := range m.streams {
		if v := s.intr.Version(); v != m.intrVer[i] {
			m.intrVer[i] = v
			m.refreshReady(i)
		}
	}
	m.intrSeen = m.intrEpoch
}

// verifyReadyMask is the retained recompute path behind a debug check
// (Config.CheckReadiness): it proves the incremental mask equals a full
// per-stream recomputation at the top of the cycle.
func (m *Machine) verifyReadyMask() {
	for i := range m.streams {
		if m.ready.Test(i) != m.streamReady(i) {
			panic(fmt.Sprintf("core: ready mask diverged at cycle %d: stream %d mask=%v recompute=%v",
				m.cycle, i, m.ready.Test(i), m.streamReady(i)))
		}
	}
}

// Run executes n cycles, through fused block sessions when a compiled
// block table is attached (SetBlockTable). It is Guard.StepN's loop
// without the watchdog: the same dispatch rule (stepBlock), and it runs
// all n cycles even past idle.
func (m *Machine) Run(n int) {
	for n > 0 {
		n -= m.stepBlock(n)
	}
}

// RunUntilIdle steps until the machine is idle or max cycles elapse.
// It returns the number of cycles executed and whether it went idle.
// A fused session never spans an idle transition — the sole ready
// stream issues on every session cycle — and neither does a jumped
// idle gap, whose bus access keeps the machine busy throughout, so
// checking between dispatches observes the same first-idle cycle the
// per-cycle loop would.
func (m *Machine) RunUntilIdle(max int) (int, bool) {
	for n := 0; n < max; {
		n += m.stepBlock(max - n)
		if m.Idle() {
			return n, true
		}
	}
	return max, false
}

// skipIdleGap advances the machine over a provably idle bus wait in
// one jump of at most max cycles and returns the cycles advanced, or 0
// when the machine does not qualify (the caller steps instead). A gap
// qualifies when no stream is ready, the pipe is empty, no interrupt
// unit was mutated behind the machine's back, the ABI is mid-access
// and every time-keeping device is quiet: then each Step until the
// access completes, times out, or a stall timer expires would tick the
// bus without effect, find nothing to retire, execute or issue, and
// count an idle slot. The jump lands on that exact state — including
// the pipe slots the per-cycle shifts would have cleared and the block
// engine's skip-batch bookkeeping — so the next dispatch cannot tell
// the difference (DESIGN.md §10).
func (m *Machine) skipIdleGap(max int) int {
	if m.ready != 0 || m.cfg.Reference || m.cfg.CheckReadiness {
		return 0
	}
	for i := range m.pipe {
		if m.pipe[i].valid {
			return 0
		}
	}
	k := min(m.bus.QuietTicks(), max)
	if k == 0 {
		return 0
	}
	if m.intrEpoch != m.intrSeen {
		return 0
	}
	for i, s := range m.streams {
		// A stall expiring at cycle stallUntil refreshes readiness
		// there: the gap must end the cycle before.
		if m.stallMask&(1<<uint(i)) != 0 {
			if s.stallUntil <= m.cycle+1 {
				return 0
			}
			if d := s.stallUntil - m.cycle - 1; d < uint64(k) {
				k = int(d)
			}
		}
	}
	if m.bus.NeedsTick() {
		if !m.bus.Quiescent() {
			return 0
		}
		m.bus.CatchUp(uint64(k))
	}
	if m.blocks != nil {
		m.replayIdleDispatches(max, k)
	}
	m.bus.SkipTicks(k)
	// k shifts: each rotates the ring base down one slot and clears the
	// new IF slot, so the min(k, PipeDepth) slots below the base are
	// zeroed — flushed slots keep stale fields until then, and
	// snapshots serialize them.
	for j := 1; j <= min(k, isa.PipeDepth); j++ {
		m.pipe[(int(m.pipeBase)-j)&(isa.PipeDepth-1)] = slot{}
	}
	m.pipeBase = uint8((int(m.pipeBase) - k) & (isa.PipeDepth - 1))
	m.sch.AdvanceIdle(k)
	m.cycle += uint64(k)
	m.stats.IdleCycles += uint64(k)
	return k
}

// streamReady reports whether stream id can supply an instruction this
// cycle. The fast path calls it only on state transitions (and mirrors
// the answer into the ready mask); the reference path calls it for
// every stream every cycle.
func (m *Machine) streamReady(id int) bool {
	s := m.streams[id]
	if s.branchShadow > 0 {
		return false
	}
	if s.stallUntil > m.cycle {
		return false
	}
	switch s.state {
	case StateBusWait:
		return false
	case StateIRQWait:
		// A WAITI sleeper wakes when its bit arrives, or when a
		// higher-priority vectored interrupt preempts the join.
		if s.intr.Test(s.waitBit) {
			return true
		}
		_, ok := s.intr.Dispatch()
		return ok && !s.entryInFlight
	}
	return s.intr.Active()
}

// issue fills the IF slot from stream id. The caller has just cleared
// that slot (the shift), so issue writes only the fields it sets.
func (m *Machine) issue(id int) {
	s := m.streams[id]
	m.seq++

	// A WAITI sleeper whose awaited bit has arrived resumes its join;
	// the join consumes the bit synchronously rather than vectoring.
	// (The documented join protocol also masks the join bit in MR so
	// a signal arriving *before* the WAITI cannot vector the stream.)
	resumeJoin := s.state == StateIRQWait && s.intr.Test(s.waitBit)

	// Vectored interrupt dispatch happens at fetch time: the next
	// instruction of this stream starts at the vector (§3.6.3). The
	// entry micro-op flows down the pipe and performs the context push
	// at EX, in order with the stream's older instructions.
	if !resumeJoin {
		m.dispatch(s)
		if s.dispOK && !s.entryInFlight {
			bit, retPC := s.dispBit, s.pc
			wasWait := s.state == StateIRQWait
			s.pc = interrupt.Vector(s.vb, uint8(id), bit)
			s.state = StateRun
			s.entryInFlight = true
			s.dispatches++
			m.stats.Dispatches++
			sl := m.stage(0)
			sl.valid, sl.stream, sl.pc = true, uint8(id), s.pc
			sl.kind, sl.bit, sl.retPC = kindIntEntry, bit, retPC
			s.issued++
			m.stats.Issued++
			if m.rec != nil {
				if wasWait {
					m.emitState(id, obs.StreamIRQWait, obs.StreamRun)
				}
				m.rec.Emit(obs.Event{Cycle: m.cycle, Kind: obs.KindIRQVector,
					Stream: int8(id), PC: s.pc, Addr: retPC, A: bit})
				m.rec.Emit(obs.Event{Cycle: m.cycle, Kind: obs.KindIssue,
					Stream: int8(id), PC: s.pc, A: bit, B: 1})
			}
			m.refreshReady(id)
			return
		}
	}
	if s.state == StateIRQWait {
		// Re-execute the WAITI; its bit is now pending. Leaving IRQWait
		// changes what readiness means for the stream (Active() instead
		// of the wait-bit test), so its mask bit must be recomputed.
		s.state = StateRun
		if m.rec != nil {
			m.emitState(id, obs.StreamIRQWait, obs.StreamRun)
		}
		m.refreshReady(id)
	}

	pc := s.pc
	if m.dbg != nil {
		m.checkBreak(id, pc)
	}
	var in isa.Instruction
	var illegal, shadow bool
	if m.cfg.Reference {
		// Reference decode: fetch the raw word and decode it live. The
		// wild-PC rule (a fetch at or past the loaded image is illegal)
		// is applied here too, so both paths agree bit for bit.
		in, illegal = m.decodeLive(pc)
		shadow = !illegal && in.IsControlTransfer()
	} else {
		var meta uint8
		in, meta = m.prog.Decoded(pc)
		illegal = meta&mem.MetaIllegal != 0
		shadow = meta&mem.MetaShadow != 0
	}
	if illegal {
		// Illegal instruction: counted, executed as NOP.
		m.stats.IllegalInstr++
	}
	s.pc = pc + 1
	// Fill the IF slot the shift just cleared in place: building a
	// slot literal and copying it in stalls on store forwarding.
	sl := m.stage(0)
	sl.instr = in
	sl.valid, sl.stream, sl.pc, sl.kind, sl.shadow = true, uint8(id), pc, kindInstr, shadow
	if m.rec != nil {
		m.rec.Emit(obs.Event{Cycle: m.cycle, Kind: obs.KindIssue,
			Stream: int8(id), PC: pc})
	}
	if shadow {
		// An unresolved control transfer blocks fetch — no need to run
		// the full readiness predicate to know the bit goes low.
		s.branchShadow++
		m.ready.Clear(id)
	}
	// A plain issue only advances the PC, which readiness never depends
	// on, so the mask bit is left exactly as it was.
	s.issued++
	m.stats.Issued++
}

// dispatch brings stream s's cached interrupt-dispatch decision
// (dispBit, dispOK: the bit s.intr.Dispatch would vector and whether it
// would) up to date. The cache is recomputed only when some interrupt
// unit moved since (the machine-wide intrEpoch); the reference pipeline
// recomputes it every time, so the lockstep checks the cache instead of
// sharing it. Small enough to inline into issue.
func (m *Machine) dispatch(s *stream) {
	if s.dispEpoch != m.intrEpoch || m.cfg.Reference {
		m.refreshDispatch(s)
	}
}

// refreshDispatch recomputes stream s's cached dispatch decision. Kept
// out of line so dispatch stays small enough to inline.
//
//go:noinline
func (m *Machine) refreshDispatch(s *stream) {
	s.dispBit, s.dispOK = s.intr.Dispatch()
	s.dispEpoch = m.intrEpoch
}

// decodeLive is the reference path's fetch: the 24-bit word straight
// through isa.Decode, with the same wild-PC rule Program.Decoded
// applies. It is the oracle the predecode cache is checked against.
func (m *Machine) decodeLive(pc uint16) (in isa.Instruction, illegal bool) {
	if uint32(pc) >= m.prog.Limit() {
		return isa.Instruction{Op: isa.OpNOP}, true
	}
	in, err := isa.Decode(m.prog.Fetch(pc))
	if err != nil {
		return isa.Instruction{Op: isa.OpNOP}, true
	}
	return in, false
}

// flushYounger invalidates the in-flight instructions of stream id in
// the stages younger than EX (IF and RD). It is called when a stream
// enters a wait state — the §4.1 rule "all instructions on the pipe
// belonging to the same IS are flushed". Flushed instructions will be
// re-fetched: callers rewind the stream PC right after flushing. A
// flushed interrupt-entry micro-op undoes its vector redirect so the
// still-pending IR bit re-dispatches with a correct return address.
func (m *Machine) flushYounger(id int) {
	for i := 0; i < isa.PipeDepth-2; i++ {
		sl := m.stage(i)
		if sl.valid && int(sl.stream) == id {
			if sl.shadow {
				m.streams[id].branchShadow--
			}
			if sl.kind == kindIntEntry {
				m.streams[id].pc = sl.retPC
				m.streams[id].entryInFlight = false
			}
			sl.valid = false
			m.streams[id].flushed++
			m.stats.Flushed++
			if m.rec != nil {
				m.rec.Emit(obs.Event{Cycle: m.cycle, Kind: obs.KindFlush,
					Stream: int8(id), PC: sl.pc})
			}
		}
	}
}

// completeBus applies a finished ABI access: load data is written
// straight into the destination register ("without affecting the
// running instruction streams") and all waiting streams reactivate.
// A failed access is classified against the bus error taxonomy; when
// the machine traps bus faults the issuing stream is vectored to its
// BusFault handler, otherwise the stream just sees the 0xFFFF value.
func (m *Machine) completeBus(c bus.Completion) {
	issuer := c.Req.Stream
	known := issuer >= 0 && issuer < len(m.streams)
	if c.Err != nil {
		m.stats.BusFaults++
		var be *bus.BusError
		if errors.As(c.Err, &be) {
			switch {
			case errors.Is(be, bus.ErrTimeout):
				m.stats.BusTimeouts++
			case errors.Is(be, bus.ErrDeviceFault):
				m.stats.BusDeviceFaults++
			}
			if known {
				s := m.streams[issuer]
				s.lastBusErr = be
				s.busFaults++
				if m.cfg.TrapBusFaults {
					s.intr.Request(interrupt.BusFault)
				}
			}
		}
	}
	if !c.Req.Write && known {
		m.writeReg(m.streams[issuer], isa.Reg(c.Req.Dest), c.Data)
	}
	for i, s := range m.streams {
		if s.state == StateBusWait {
			s.state = StateRun
			if m.rec != nil {
				m.emitState(i, obs.StreamBusWait, obs.StreamRun)
			}
			m.refreshReady(i)
		}
	}
}

// readReg reads an architectural register for stream s.
func (m *Machine) readReg(s *stream, r isa.Reg) uint16 {
	switch {
	case r.IsWindow():
		return s.win.Read(int(r))
	case r.IsGlobal():
		return m.globals[r-isa.G0]
	case r == isa.H:
		return s.h
	case r == isa.SR:
		return s.sr()
	}
	return 0 // ZR and reserved
}

// writeReg writes an architectural register for stream s.
func (m *Machine) writeReg(s *stream, r isa.Reg, v uint16) {
	switch {
	case r.IsWindow():
		s.win.Write(int(r), v)
	case r.IsGlobal():
		m.globals[r-isa.G0] = v
	case r == isa.H:
		s.h = v
	case r == isa.SR:
		s.flags = uint8(v & 0xF)
	}
	// ZR and reserved: discarded.
}

func (m *Machine) setZN(s *stream, v uint16) {
	s.flags &^= isa.FlagZ | isa.FlagN
	if v == 0 {
		s.flags |= isa.FlagZ
	}
	if v&0x8000 != 0 {
		s.flags |= isa.FlagN
	}
}

func (m *Machine) addFlags(s *stream, a, b, r uint16) {
	m.setZN(s, r)
	s.flags &^= isa.FlagC | isa.FlagV
	if uint32(a)+uint32(b) > 0xFFFF {
		s.flags |= isa.FlagC
	}
	if (^(a ^ b) & (a ^ r) & 0x8000) != 0 {
		s.flags |= isa.FlagV
	}
}

func (m *Machine) subFlags(s *stream, a, b, r uint16) {
	m.setZN(s, r)
	s.flags &^= isa.FlagC | isa.FlagV
	if a >= b { // C = no borrow
		s.flags |= isa.FlagC
	}
	if ((a ^ b) & (a ^ r) & 0x8000) != 0 {
		s.flags |= isa.FlagV
	}
}

// condTrue evaluates a branch condition against stream flags.
func condTrue(c isa.Cond, f uint8) bool {
	z := f&isa.FlagZ != 0
	n := f&isa.FlagN != 0
	cf := f&isa.FlagC != 0
	v := f&isa.FlagV != 0
	switch c {
	case isa.CondAL:
		return true
	case isa.CondEQ:
		return z
	case isa.CondNE:
		return !z
	case isa.CondCS:
		return cf
	case isa.CondCC:
		return !cf
	case isa.CondMI:
		return n
	case isa.CondPL:
		return !n
	case isa.CondVS:
		return v
	case isa.CondVC:
		return !v
	case isa.CondHI:
		return cf && !z
	case isa.CondLS:
		return !cf || z
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

// raiseStackEvent converts a stack-window fault into the automatic
// stack-fault interrupt (§3.6.3). Faults occurring while already
// servicing the stack-fault level count as double faults instead of
// recursing.
func (m *Machine) raiseStackEvent(id int, ev stackwin.Event) {
	if ev == stackwin.EventNone {
		return
	}
	s := m.streams[id]
	s.stackFault++
	m.stats.StackFaults++
	if s.intr.Level() == interrupt.StackFault {
		m.stats.DoubleFaults++
		return
	}
	s.intr.Request(interrupt.StackFault)
}
