package core

// Block-compiled execution: the dynamic half of the analysis→execution
// pipeline (DESIGN.md §13). Qualifying runs of instructions are
// compiled into regions of decoded pipe slots; when the machine is
// provably in a quiescent single-stream state, a whole run executes in
// one dispatch — a "session" — instead of one Step call per cycle, with
// the per-cycle machinery (readiness sweeps, scheduler calls, pipe
// shifts, slot writes) replaced by bulk accounting that lands on the
// exact same architectural state. A session has no instruction
// semantics of its own: every op runs through the interpreter's
// execute. The session owns only timing, the bail on an external
// access, and branch resolution.
//
// Three region forms widen the fusible universe beyond straight lines:
//
//   - Straight-line runs: contiguous interleave-free instructions, the
//     original form.
//   - Branch-fused regions: a region may contain JMP and Bcc
//     instructions. A fused branch issues at its exact cycle, idles
//     the two §3.3 shadow cycles, resolves against live flags at its
//     EX cycle, and continues at the taken or fall-through address as
//     an intra-session jump — including backward, so a whole loop can
//     spin inside one session. Compiled regions may also contain
//     statically-dead gaps (addresses a proven-taken branch vaults
//     over); a session exits to the interpreter before ever issuing a
//     gap, so a perturbed machine that disagrees with the static fate
//     costs a session, never correctness.
//   - Chained sessions: when a resolved branch lands on the entry of
//     another compiled region of the same stream, the session re-checks
//     quiescence from the cached readiness mask and the new region's
//     stack-window headroom from the live AWP, and on success continues
//     there directly without returning to the interpreter.
//
// Cycle-exactness is preserved by construction, not by hope:
//
//   - A session only opens when exactly one stream is ready, the bus
//     is idle with every tickable device at rest, no stall timer is
//     live, no interrupt can vector, and the IF/RD slots hold (only)
//     this stream's own in-region instructions. Under those
//     preconditions the per-cycle machine would issue this stream
//     back-to-back and nothing interleave-visible could happen — which
//     is exactly what the fused path replays, shadow cycles included.
//   - Compiled slots run through execute in EX order at their precise
//     execute cycles (an instruction issued at cycle c executes at
//     c+2), with m.cycle set before every op that can reach the bus, so
//     a mid-session bus-wait entry stamps the same request Tag the
//     per-cycle path would.
//   - Rest-state devices are kept cycle-exact by a tick watermark: a
//     session skips the per-cycle TickDevices sweep (provably inert
//     under the entry check), then replays the elided ticks in bulk
//     through bus.CatchUp before any access and at session end, so
//     device-internal cycle counters (fault windows, serialized state)
//     match a per-cycle run tick for tick.
//   - Memory ops run through execute too; the moment one goes external,
//     access (under inSession) performs the exact §3.6.1 wait-state
//     entry through blockBusEnter and the session ends ("bail"),
//     committing partial accounting including the flush of the one
//     younger in-flight slot.
//   - Stack-window faults cannot fire mid-session: each region carries
//     suffix extrema of its cumulative AWP deltas; the entry check
//     proves the straight-line excursion and every branch resolution
//     re-proves the continuation's excursion from the live AWP (loops
//     revisit ops, so a one-pass bound would not cover them).
//   - On exit the at-rest pipeline is materialized exactly: each stage
//     holds what the per-cycle machine would have put there (an issued
//     slot, a shadow-cycle bubble, or a pre-session prefix slot), or
//     the precise post-flush shape after a bail.
//
// An adaptive per-region gate keeps the engine never-lose: regions
// whose sessions chronically end early (bails, failed entries) are
// demoted to the interpreter on an EWMA quality score and re-probed
// with exponential backoff, so a phase change re-promotes them. The
// gate is pure counter arithmetic — deterministic and replay-safe.
//
// BuildBlockTable re-qualifies every instruction through fusible
// regardless of what the planner (internal/blockc) claimed,
// so a bogus region spec can cost performance but never correctness.
// The table records the program-store version it was built against;
// any Load/Set afterwards invalidates it at the next session attempt.

import (
	"math/bits"

	"disc/internal/bus"
	"disc/internal/isa"
	"disc/internal/mem"
	"disc/internal/obs"
)

// MinFuseLen is the shortest straight-line run worth fusing: a session
// should be able to issue at least PipeDepth instructions before
// leaving the region. Planners (internal/blockc) use it as the minimum
// span length worth proposing.
const MinFuseLen = isa.PipeDepth

// MaxRegionGap bounds the statically-dead instructions a region may
// carry between live ops (the fall-through of a proven-taken branch,
// per analysis.MaxBridgeGap). Longer dead stretches split the region.
const MaxRegionGap = 8

// RegionSpec names a candidate address range [Start, End] for block
// compilation. Specs come from the analysis-driven planner in
// internal/blockc (chained event-free blocks, bridged across
// proven-dead gaps) or, in tests, from whole-image ranges;
// BuildBlockTable re-checks every instruction either way.
type RegionSpec struct {
	Start, End uint16
}

// brSpec describes a fused control transfer at the same index of the
// region's slots. The slot itself is a NOP carrying the branch's
// stack-window adjust; the session loop owns the control decision.
type brSpec struct {
	valid  bool     // this index is a fused JMP/Bcc
	uncond bool     // JMP, or Bcc with CondAL: taken unconditionally
	cond   isa.Cond // condition, when not uncond
	taken  uint16   // target when taken
	fall   uint16   // fall-through address (pc+1)
}

// region is one compiled run of fusible instructions, held as the
// decoded slots execute runs. slots[i] may be invalid: a statically-dead
// gap the planner bridged. Gap addresses are not indexed (no session
// enters or continues at one) and a running session exits before
// issuing one, so gaps never execute.
type region struct {
	start, end uint16
	slots      []slot
	brs        []brSpec
	// cum[i] is the net AWP delta of slots[0..i]; sufMax/sufMin[i] bound
	// cum[j] over j >= i. Entry and branch-resolution checks use them
	// to prove no stack-window fault can fire before the next check.
	cum, sufMax, sufMin []int
	// run[i] counts the consecutive straight-line slots from i: non-gap,
	// non-branch. The session loop batches such stretches through a
	// tight execute-only path with no per-cycle control bookkeeping.
	run []int32
	// flatWin: no slot in the region moves the stack window (all cum
	// zero). Branch resolutions between flat regions skip the live
	// headroom re-proof — the entry-time bound still covers them.
	flatWin bool
}

// BlockTable is a compiled-region table for one program image. Build
// one with BuildBlockTable (or blockc.Compile) and attach it with
// Machine.SetBlockTable. The counter fields are populated at build
// time; session statistics live on the machine (Machine.BlockStats).
type BlockTable struct {
	index   []int32 // program address -> region index+1; 0 = none
	regions []region
	version uint32 // prog.Version() at build time

	// Compiled counts the instructions that qualified; Regions the
	// fused runs they formed. Skipped counts spec-covered instructions
	// that did not qualify (region breakers and short runs); bridged
	// gaps count as Skipped too — they are carried, not compiled.
	Compiled int
	Regions  int
	Skipped  int
}

// Version returns the program-store version the table was built
// against (mem.Program.Version).
func (t *BlockTable) Version() uint32 { return t.version }

// RegionAt returns the compiled region covering pc as an address
// range, or ok=false when pc is not inside any fused region (gap
// addresses inside a region report false: nothing dispatches there).
func (t *BlockTable) RegionAt(pc uint16) (start, end uint16, ok bool) {
	if int(pc) >= len(t.index) || t.index[pc] == 0 {
		return 0, 0, false
	}
	r := &t.regions[t.index[pc]-1]
	return r.start, r.end, true
}

// BlockStats counts fused-session activity. They are deliberately NOT
// part of Stats: the equivalence suite compares Stats across engines,
// and session counts are an engine property, not architectural state.
type BlockStats struct {
	Sessions    uint64 // fused sessions entered
	FusedCycles uint64 // cycles covered by sessions
	FusedInstrs uint64 // instructions issued inside sessions
	Bails       uint64 // sessions ended early by an external access
	Stale       uint64 // table drops due to program-store mutation

	// Session-form breakdown: a session that crossed into another
	// region is a chain session; one that resolved a fused branch but
	// stayed in its region is a branch session; otherwise straight.
	StraightSessions uint64
	BranchSessions   uint64
	ChainSessions    uint64
	StraightCycles   uint64
	BranchCycles     uint64
	ChainCycles      uint64
	BranchFuses      uint64 // fused branches resolved in-session
	Chains           uint64 // cross-region continuations taken

	// Adaptive-gate activity.
	Demotes  uint64 // regions demoted to the interpreter
	Promotes uint64 // demoted regions re-qualified by a probe
}

// BlockStats returns the machine's fused-session counters.
func (m *Machine) BlockStats() BlockStats { return m.blockStats }

// Adaptive per-region gate. Quality is the cycles a session (or failed
// entry attempt, which scores zero) covered, EWMA-smoothed in Q4 fixed
// point. A region whose smoothed quality sinks below gateDemoteQ4 is
// demoted: attempts fall through to the interpreter until an
// exponentially backed-off probe session re-measures it. All state is
// counter-driven — no clocks, no randomness — so runs replay exactly.
type regionGate struct {
	score   uint32 // EWMA of session quality, Q4 fixed point
	demoted bool
	probeIn uint32 // demoted: attempts to skip before the next probe
	backoff uint32 // current probe backoff, in attempts
}

const (
	gateAlpha      = 3        // EWMA shift: score moves 1/8 per sample
	gateScoreInit  = 256 << 4 // optimistic prior: regions start trusted
	gateSampleCap  = 256      // one sample's maximum quality
	gateDemoteQ4   = 24 << 4  // demote below 24 covered cycles/attempt
	gatePromoteLen = 48       // a probe covering >= this re-promotes
	gateBackoff0   = 16       // first re-probe distance
	gateBackoffMax = 4096     // backoff ceiling
	gateSkipBatch  = 64       // first probe-countdown batch per fast-out
	gateSkipMax    = 512      // fast-out batch ceiling after escalation

	// notSoleSkip0/Max bound how long the entry predicate stays quiet
	// after a reject that no session could have survived: no stream
	// ready, more than one ready (interleaving possible), or a sole
	// ready stream whose PC sits in code no compiled region covers.
	// Those states only change through bus completions, scheduler
	// activity, or the PC leaving the uncovered stretch — and on loads
	// that never fuse, such cycles would otherwise pay the full
	// dispatch detour every cycle for a predicate that cannot succeed:
	// measurably several percent of plain throughput. Consecutive
	// rejects escalate the skip from notSoleSkip0 toward
	// notSoleSkipMax, and any sole-ready observation inside a covered
	// region resets it, so a three-cycle bus wait costs one predicate
	// run and near-zero blindness while a chronically unfusible phase
	// converges to one run per notSoleSkipMax cycles — the same
	// steady-state cost the demoted fast-out pays (gateSkipMax).
	// Blindness stays bounded: a session entry is missed by at most
	// the current skip, a delay, never a wrong outcome.
	notSoleSkip0   = 4
	notSoleSkipMax = 256
)

// gateUpdate feeds one sample (q cycles covered; 0 for a failed entry
// attempt) into a region's gate and applies demote/promote decisions.
func (m *Machine) gateUpdate(g *regionGate, id int, regionPC uint16, q int, probe bool) {
	if q > gateSampleCap {
		q = gateSampleCap
	}
	g.score = uint32(int32(g.score) + ((int32(q)<<4 - int32(g.score)) >> gateAlpha))
	if probe {
		if q >= gatePromoteLen {
			g.demoted = false
			g.backoff = 0
			g.score = uint32(q) << 4
			m.blockStats.Promotes++
			if m.rec != nil {
				m.rec.Emit(obs.Event{Cycle: m.cycle, Kind: obs.KindBlockPromote,
					Stream: int8(id), PC: regionPC})
			}
		} else {
			g.backoff = g.backoff*2 + gateBackoff0
			if g.backoff > gateBackoffMax {
				g.backoff = gateBackoffMax
			}
			g.probeIn = g.backoff
		}
		return
	}
	if !g.demoted && g.score < gateDemoteQ4 {
		g.demoted = true
		g.backoff = g.backoff*2 + gateBackoff0
		if g.backoff > gateBackoffMax {
			g.backoff = gateBackoffMax
		}
		g.probeIn = g.backoff
		m.blockStats.Demotes++
		if m.rec != nil {
			m.rec.Emit(obs.Event{Cycle: m.cycle, Kind: obs.KindBlockDemote,
				Stream: int8(id), PC: regionPC, Aux: uint64(g.backoff)})
		}
	}
}

// SetBlockGate enables or disables the adaptive per-region gate
// (enabled by default when a table is attached). Disabling it makes
// every qualifying dispatch attempt a session — useful for measuring
// the gate's own contribution (cmd/experiments E26).
func (m *Machine) SetBlockGate(on bool) { m.blockGateOff = !on }

// SetBlockTable attaches a compiled block table (nil detaches) and
// resets the per-region adaptive gates. The per-cycle engines are
// unaffected; Run, RunUntilIdle and the Guard consult the
// table. Reset keeps the table attached — program memory survives
// Reset, so the compiled regions stay valid — but re-arms the gates.
func (m *Machine) SetBlockTable(t *BlockTable) {
	m.blocks = t
	m.blockSkip = 0
	m.blockIdleSkip = 0
	m.blockDemoteSkip = 0
	if t == nil {
		m.gates = nil
		return
	}
	m.gates = make([]regionGate, len(t.regions))
	for i := range m.gates {
		m.gates[i] = regionGate{score: gateScoreInit}
	}
}

// AttachedBlockTable returns the attached table, or nil. (A stale
// table — program store mutated after build — detaches itself at the
// next session attempt.)
func (m *Machine) AttachedBlockTable() *BlockTable { return m.blocks }

// BuildBlockTable compiles the qualifying instructions inside specs
// into fused regions. Every instruction is qualified individually
// (fusible) — the specs only bound the search — so callers may pass
// coarse or even bogus ranges without risking correctness. JMP and Bcc
// compile as fused branches; other breakers
// (calls, returns, computed jumps, stream control, illegal words)
// become in-region gaps when a live op precedes them within
// MaxRegionGap addresses, and split the region otherwise. Runs with
// fewer than MinFuseLen live instructions are not worth a session and
// are skipped.
func BuildBlockTable(prog *mem.Program, specs []RegionSpec) *BlockTable {
	limit := prog.Limit()
	t := &BlockTable{version: prog.Version(), index: make([]int32, limit)}
	for _, sp := range specs {
		if uint32(sp.Start) >= limit || sp.End < sp.Start {
			continue
		}
		end := uint32(sp.End)
		if end >= limit {
			end = limit - 1
		}
		for a := uint32(sp.Start); a <= end; {
			if t.index[a] != 0 {
				a++ // already inside a region from an earlier spec
				continue
			}
			runStart := a
			var slots []slot
			var brs []brSpec
			var deltas []int
			live := 0   // non-gap slots collected
			gapRun := 0 // consecutive gaps at the current tail
			for a <= end && t.index[a] == 0 {
				in, meta := prog.Decoded(uint16(a))
				if d, known := in.AWPDelta(); known && fusible(in, meta) {
					sl, br := compileSlot(in, uint16(a))
					slots = append(slots, sl)
					brs = append(brs, br)
					deltas = append(deltas, d)
					live++
					gapRun = 0
					a++
					continue
				}
				// Region breaker: carry it as a dead gap if a live slot
				// precedes it and the gap stays short, else split here.
				if live == 0 || gapRun == MaxRegionGap {
					break
				}
				slots = append(slots, slot{})
				brs = append(brs, brSpec{})
				deltas = append(deltas, 0)
				gapRun++
				a++
			}
			// Trailing gaps carry nothing: trim them off the region.
			for len(slots) > 0 && !slots[len(slots)-1].valid {
				slots = slots[:len(slots)-1]
				brs = brs[:len(brs)-1]
				deltas = deltas[:len(deltas)-1]
			}
			if live < MinFuseLen {
				t.Skipped += live
				if a == runStart {
					t.Skipped++
					a++ // step over the region breaker
				}
				continue
			}
			t.Skipped += len(slots) - live // carried gaps
			r := region{start: uint16(runStart), end: uint16(int(runStart) + len(slots) - 1),
				slots: slots, brs: brs}
			r.cum = make([]int, len(slots))
			r.sufMax = make([]int, len(slots))
			r.sufMin = make([]int, len(slots))
			sum := 0
			r.flatWin = true
			for i, d := range deltas {
				sum += d
				r.cum[i] = sum
				if d != 0 {
					r.flatWin = false
				}
			}
			mx, mn := r.cum[len(slots)-1], r.cum[len(slots)-1]
			for i := len(slots) - 1; i >= 0; i-- {
				if r.cum[i] > mx {
					mx = r.cum[i]
				}
				if r.cum[i] < mn {
					mn = r.cum[i]
				}
				r.sufMax[i] = mx
				r.sufMin[i] = mn
			}
			r.run = make([]int32, len(slots))
			for i := len(slots) - 1; i >= 0; i-- {
				if !slots[i].valid || brs[i].valid {
					continue // run stays 0: a gap or a fused branch
				}
				r.run[i] = 1
				if i+1 < len(slots) {
					r.run[i] += r.run[i+1]
				}
			}
			t.regions = append(t.regions, r)
			t.Compiled += live
			t.Regions++
			ri := int32(len(t.regions)) // index+1
			for i := range slots {
				if slots[i].valid {
					t.index[runStart+uint32(i)] = ri
				}
			}
		}
	}
	return t
}

// fusible reports whether a session may execute the instruction: its EX
// semantics can produce no interleave-visible event — no stream or
// interrupt control, no write to a scheduling-visible special register,
// no computed or window-moving control transfer. Memory ops qualify
// because a session ends at their first external access (access, under
// inSession); LDM and STM at a static external address never qualify.
// JMP and Bcc qualify in a shadow position, as fused branches the
// session resolves. Stack-window adjust fields qualify freely — the
// session headroom checks prove they cannot fault.
func fusible(in isa.Instruction, meta uint8) bool {
	if meta&mem.MetaIllegal != 0 {
		return false
	}
	if meta&mem.MetaShadow != 0 {
		return in.Op == isa.OpJMP || in.Op == isa.OpBcc
	}
	switch in.Op {
	case isa.OpLD, isa.OpST, isa.OpTAS, isa.OpMFS:
		return true
	case isa.OpLDM, isa.OpSTM:
		return uint16(in.Imm) < isa.InternalSize
	case isa.OpMTS:
		// PC is a computed jump; AWP/BOS relocate the window beyond the
		// static headroom proof; IR/MR change dispatchability.
		return in.Spec == isa.SpecSR || in.Spec == isa.SpecH || in.Spec == isa.SpecVB
	}
	return in.Op <= isa.OpLDHI
}

// compileSlot builds the slot a session executes for a fusible
// instruction at pc, and its branch spec. A fused JMP or Bcc executes
// as a NOP carrying the branch's stack-window adjust: the session loop
// makes the control decision itself, at the branch's EX cycle.
func compileSlot(in isa.Instruction, pc uint16) (slot, brSpec) {
	sl := slot{instr: in, valid: true, pc: pc}
	var br brSpec
	switch in.Op {
	case isa.OpJMP:
		br = brSpec{valid: true, uncond: true, taken: uint16(in.Imm), fall: pc + 1}
	case isa.OpBcc:
		br = brSpec{valid: true, uncond: in.Cond == isa.CondAL, cond: in.Cond,
			taken: pc + 1 + uint16(in.Imm), fall: pc + 1}
	default:
		return sl, br
	}
	sl.instr = isa.Instruction{Op: isa.OpNOP, SW: in.SW}
	return sl, br
}

// stepBlock advances the machine by one dispatch of at most max cycles
// and returns the cycles advanced (always >= 1 for max >= 1). It is
// the one dispatch rule every driver loop shares — Run, RunUntilIdle
// and Guard.StepN: with a block table attached and more than one cycle
// of budget left, a demoted region's parked skip batch is consumed one
// plain cycle at a time without re-running the entry predicate, or a
// fused session runs when the machine qualifies; every other dispatch
// is one ordinary Step. A one-cycle budget never touches block state,
// so Guard.Step drives the per-cycle machine exactly. Callers that must
// observe the machine at a specific future cycle — stimulus schedules,
// lockstep comparisons — bound max accordingly; a session never
// advances past it (a fused branch only issues when its resolution
// also fits the budget), and neither does an idle gap.
//
// Ahead of both, with or without a table, a provably idle bus wait is
// jumped in one dispatch (skipIdleGap): the cycles in which nothing but
// the ABI handshake moves cost one arithmetic advance instead of one
// Step each.
func (m *Machine) stepBlock(max int) int {
	if max > 1 {
		if k := m.skipIdleGap(max); k > 0 {
			return k
		}
		if m.blocks != nil {
			if m.blockSkip > 0 {
				// The batch is capped (gateSkipBatch) so a move into a
				// different, promoted region is blind for a bounded
				// stretch only.
				m.blockSkip--
			} else if n := m.blockSession(max); n > 0 {
				return n
			}
		}
	}
	m.Step()
	return 1
}

// pendEX is one in-flight compiled op awaiting its EX cycle. Two slots
// suffice: an op issued at cycle c executes at c+2, and the session's
// EX-before-issue ordering drains slot c&1 before reusing it.
type pendEX struct {
	j     int32 // region-relative op index
	valid bool
}

// ringSlot records whether cycle c issued, and what. The last four
// entries materialize the exit pipe and count the still-in-flight tail.
type ringSlot struct {
	pc    uint16
	valid bool
}

// idleSkipBatch escalates the no-session-possible skip (readiness or
// region-coverage reject) and arms stepBlock's fast path for the batch.
// Batches at the ceiling are jittered by the cycle counter —
// deterministic, so replay and lockstep equivalence are unaffected — to
// keep the probe stride from phase-locking with a workload's loop
// period: a fixed stride that divides the loop length would land every
// probe at the same loop offset and could miss a fusible region
// forever (observed: a power-of-two ceiling collapsed session counts
// three orders of magnitude on the periodic Table 4.1 mixes).
// cycle is the dispatch's m.cycle (before its Step advances it).
func (m *Machine) idleSkipBatch(cycle uint64) {
	k := m.blockIdleSkip*2 + notSoleSkip0
	if k >= notSoleSkipMax {
		k = notSoleSkipMax - uint32(cycle)&63
	}
	m.blockIdleSkip = k
	m.blockSkip = k - 1
}

// sessionsOff reports the configurations in which no fused session
// may run at all; blockSession rejects them before any bookkeeping.
func (m *Machine) sessionsOff() bool {
	return m.cfg.Reference || m.cfg.CheckReadiness || m.dbg != nil || m.profile != nil
}

// replayIdleDispatches applies the block-table bookkeeping that k
// per-cycle dispatches over an idle gap would have made, so a jumped
// gap leaves the skip batches — and with them every later session
// probe — exactly where stepping would have. Dispatch i of the gap has
// budget max-i and runs at cycle m.cycle+i: with more than one cycle
// of budget it either drains one cycle of a parked skip batch or, no
// stream being ready, takes blockSession's first reject and arms the
// next escalating batch. Call it before m.cycle advances.
func (m *Machine) replayIdleDispatches(max, k int) {
	n := min(k, max-1) // a one-cycle budget never touches block state
	for i := 0; i < n; {
		if m.blockSkip > 0 {
			d := min(int(m.blockSkip), n-i)
			m.blockSkip -= uint32(d)
			i += d
			continue
		}
		if max-i < MinFuseLen || m.sessionsOff() {
			return // blockSession rejects untouched; budgets only shrink
		}
		m.idleSkipBatch(m.cycle + uint64(i))
		i++
	}
}

// blockSession attempts one fused session of at most max cycles.
// It returns 0 when the machine does not qualify (caller falls back to
// Step) and the cycles advanced otherwise.
func (m *Machine) blockSession(max int) int {
	t := m.blocks
	if max < MinFuseLen || m.sessionsOff() {
		return 0
	}
	// Fast reject on the cached ready mask and the region index before
	// touching any other state: on workloads that rarely fuse this path
	// is taken almost every cycle, and the full predicate below costs
	// real throughput. Both reads are heuristic here — the mask may be
	// stale and the table unvalidated — which is sound because this
	// filter can only *reject*: everything it trusts is re-derived
	// authoritatively below before a session runs. A stale reject costs
	// a missed session, never a wrong outcome.
	r0 := uint32(m.ready)
	if r0 == 0 || r0&(r0-1) != 0 {
		m.idleSkipBatch(m.cycle)
		return 0
	}
	p0 := m.streams[bits.TrailingZeros32(r0)].pc
	if int(p0) >= len(t.index) || t.index[p0] == 0 ||
		int(t.regions[t.index[p0]-1].end)-int(p0)+1 < MinFuseLen {
		// Sole-ready but executing code no compiled region covers: the
		// same escalating batch as the not-sole-ready case, because a PC
		// sweeping an uncovered stretch fails this lookup every cycle
		// and the lookup itself is the dominant cost on loads that never
		// fuse. Worst case a region entry is noticed one batch late — a
		// missed session, never a wrong outcome.
		m.idleSkipBatch(m.cycle)
		return 0
	}
	m.blockIdleSkip = 0
	// Demoted-region fast-out on the same cached lookups: a region the
	// gate has benched must not pay the full entry predicate every
	// dispatch — counting down to the next probe is the whole point of
	// the backoff. (If the cached mask was stale the authoritative
	// consult below repeats this check; pacing is heuristic either way.)
	if !m.blockGateOff && m.gates != nil {
		if g0 := &m.gates[t.index[p0]-1]; g0.demoted && g0.probeIn > 0 {
			// Consume a bounded batch of the countdown and let stepBlock
			// skip the predicate for the remainder: same attempts-per-
			// probe pacing, a fraction of the per-dispatch cost. The
			// batch escalates across consecutive fast-outs (reset by any
			// session actually running) so a stable demoted phase pays
			// one predicate run per gateSkipMax cycles while a phase
			// change is still noticed within the current batch.
			k := m.blockDemoteSkip*2 + gateSkipBatch
			if k > gateSkipMax {
				k = gateSkipMax
			}
			m.blockDemoteSkip = k
			if k > g0.probeIn {
				k = g0.probeIn
			}
			g0.probeIn -= k
			m.blockSkip = k - 1
			return 0
		}
	}
	if t.version != m.prog.Version() {
		// Image reloaded or patched: the compiled slots may describe
		// instructions that no longer exist. Drop the table.
		m.blocks = nil
		m.gates = nil
		m.blockStats.Stale++
		return 0
	}
	// Time-keeping devices are fine as long as every one is provably
	// inert: a fused session contains no bus access, and only a bus
	// access can wake a Quiet ticker, so the skipped TickDevices calls
	// are pure counter advances — replayed in bulk via the CatchUp
	// watermark below (bus.Quieter, bus.CatchUpTicker).
	if m.stallMask != 0 || m.bus.Busy() || (m.bus.NeedsTick() && !m.bus.Quiescent()) {
		return 0
	}
	// Run Step's interrupt sweep when the epoch moved so the ready mask
	// is exact before the session trusts it (raw *interrupt.Unit
	// handles can be mutated between dispatches without a machine-side
	// hook).
	if m.intrEpoch != m.intrSeen {
		m.sweepIntr()
	}
	r := uint32(m.ready)
	if r == 0 || r&(r-1) != 0 {
		return 0 // zero or multiple ready streams: interleaving possible
	}
	id := bits.TrailingZeros32(r)
	s := m.streams[id]
	if s.state != StateRun || s.branchShadow != 0 || s.entryInFlight {
		return 0
	}
	// The issue stage would vector a pending interrupt before fetching.
	if m.dispatch(s); s.dispOK {
		return 0
	}
	p := s.pc
	if int(p) >= len(t.index) || t.index[p] == 0 {
		return 0
	}
	gi := int(t.index[p]) - 1
	ri := &t.regions[gi]
	k := int(ri.end) - int(p) + 1 // in-region addresses ahead of p
	if k > max {
		k = max
	}
	if k < MinFuseLen {
		return 0
	}
	// Adaptive gate: a demoted region falls through to the interpreter
	// until its backoff expires, then runs one probe session. Entry
	// failures past this point score zero — a region that cannot even
	// be entered is not worth attempting every dispatch.
	var g *regionGate
	probe := false
	if !m.blockGateOff && m.gates != nil {
		g = &m.gates[gi]
		if g.demoted {
			if g.probeIn > 0 {
				g.probeIn--
				return 0
			}
			probe = true
		}
	}
	// The IF/RD slots must hold this stream's own immediately-preceding
	// in-region instructions (the usual back-to-back shape) or nothing.
	// Any other content — another stream's instruction, an interrupt
	// entry micro-op, an out-of-region fetch — executes per-cycle.
	// Index equality (not an address-range check) keeps gap slots out:
	// a gap address indexes 0 and can never match p's region.
	u1S, u2S := *m.stage(0), *m.stage(1)
	if u1S.valid && (u1S.kind != kindInstr || int(u1S.stream) != id ||
		u1S.pc != p-1 || int(u1S.pc) >= len(t.index) || t.index[u1S.pc] != t.index[p]) {
		if g != nil {
			m.gateUpdate(g, id, ri.start, 0, probe)
		}
		return 0
	}
	if u2S.valid && (!u1S.valid || u2S.kind != kindInstr || int(u2S.stream) != id ||
		u2S.pc != p-2 || int(u2S.pc) >= len(t.index) || t.index[u2S.pc] != t.index[p]) {
		if g != nil {
			m.gateUpdate(g, id, ri.start, 0, probe)
		}
		return 0
	}
	// Stack-window headroom: prove the straight-line AWP excursion from
	// here to the region end stays strictly inside the guard band, so
	// no overflow/underflow interrupt can fire before the next check
	// (every branch resolution re-proves its continuation).
	j0 := int(p) - int(ri.start)
	if u1S.valid {
		j0--
	}
	if u2S.valid {
		j0--
	}
	base := 0
	if j0 > 0 {
		base = ri.cum[j0-1]
	}
	live := s.win.Live()
	if live+ri.sufMax[j0]-base > s.win.Depth()-isa.WindowSize ||
		live+ri.sufMin[j0]-base < isa.WindowSize {
		if g != nil {
			m.gateUpdate(g, id, ri.start, 0, probe)
		}
		return 0
	}

	// --- Qualified: run the fused session. ---
	m.blockDemoteSkip = 0
	m.inSession = true
	exS, wrS := *m.stage(2), *m.stage(3)
	entry := m.cycle
	budget := entry + uint64(max)
	m.blockTickBase = entry
	entryStart := ri.start
	if m.rec != nil {
		m.rec.Emit(obs.Event{Cycle: entry + 1, Kind: obs.KindBlockEnter,
			Stream: int8(id), PC: p})
	}

	// The chronological loop replays the per-cycle machine's order —
	// top-of-cycle exit decisions, then EX, then issue — one cycle per
	// iteration, touching only session-local state plus the ops' own
	// architectural effects. pend carries issued ops to their EX cycle
	// (+2); ring remembers the last four cycles' issues for the exit
	// pipe; nextIssue pauses the cursor across a fused branch's two
	// shadow cycles; scheduler advances batch into maximal sole/idle
	// runs (the cursor census is order-dependent, so runs must be
	// applied chronologically).
	reg := ri
	flatSession := ri.flatWin
	issueJ := int(p) - int(reg.start)
	nextIssue := entry + 1
	var pend [2]pendEX
	var ring [4]ringSlot
	var issues, idleStat int
	var soleRun, idleRun int
	var brFusesN, chainsN uint64
	bail := false
	exitPC := p
	X := entry

	flushSole := func() {
		if soleRun > 0 {
			m.sch.AdvanceSole(id, soleRun)
			soleRun = 0
		}
	}
	flushIdle := func() {
		if idleRun > 0 {
			m.sch.AdvanceIdle(idleRun)
			idleRun = 0
		}
	}

	// Pending RD/IF prefix ops issued before the session execute at
	// entry+1 and entry+2 — seeded into pend like in-session issues.
	if u2S.valid {
		pend[(entry+1)&1] = pendEX{j: int32(u2S.pc) - int32(reg.start), valid: true}
	}
	if u1S.valid {
		pend[(entry+2)&1] = pendEX{j: int32(u1S.pc) - int32(reg.start), valid: true}
	}

	for c := entry + 1; ; c++ {
		// Top-of-cycle exit decisions, before any state moves for c.
		if c > budget {
			X = c - 1
			exitPC = reg.start + uint16(issueJ)
			break
		}
		if c >= nextIssue {
			if issueJ >= len(reg.slots) || !reg.slots[issueJ].valid {
				// Cursor ran off the region or onto a dead gap: exit
				// cleanly with the pipe full of issued work.
				X = c - 1
				exitPC = reg.start + uint16(issueJ)
				break
			}
			if reg.brs[issueJ].valid && c+2 > budget {
				// The branch could not resolve inside the budget; the
				// interpreter issues it instead.
				X = c - 1
				exitPC = reg.start + uint16(issueJ)
				break
			}
			// Straight-stretch fast path: a run of L gap-free, branch-free
			// ops issues one per cycle with nothing to decide until the
			// stretch ends, so the per-cycle bookkeeping above collapses
			// to the ops' own EX calls. Whenever c >= nextIssue, pend
			// cannot hold an unresolved branch (a fused branch is always
			// consumed during its own shadow, when c < nextIssue), so EX
			// here never needs the resolution logic.
			if L := int(reg.run[issueJ]); L >= 4 {
				if rem := int(budget - c + 1); L > rem {
					L = rem
				}
				if L >= 4 {
					j0 := issueJ
					cEnd := c + uint64(L) - 1
					bailAt := uint64(0)
					// Header cycles c and c+1 drain whatever was in
					// flight at stretch entry (prefix ops, or the tail of
					// an earlier stretch).
					for q := uint64(0); q < 2; q++ {
						if e := pend[(c+q)&1]; e.valid {
							pend[(c+q)&1].valid = false
							if sl := &reg.slots[e.j]; sl.aluOnly() {
								m.alu(s, &sl.instr)
							} else if !m.exSlot(id, s, sl, c+q) {
								bailAt = c + q
								break
							}
						}
					}
					// Body: cycle c+i executes the op issued at c+i-2. The
					// subslice drops the per-op bounds check from the
					// hottest loop in the engine.
					if bailAt == 0 {
						body := reg.slots[j0 : j0+L-2]
						for i := range body {
							if sl := &body[i]; sl.aluOnly() {
								m.alu(s, &sl.instr)
							} else if !m.exSlot(id, s, sl, c+uint64(i)+2) {
								bailAt = c + uint64(i) + 2
								break
							}
						}
					}
					if bailAt != 0 {
						// Reconstruct exactly the generic loop's state at
						// an EX bail in cycle bailAt: cycles c..bailAt-1
						// issued ops j0.. in order; bailAt's issue never
						// ran. Ring entries older than c are still valid
						// from the generic path.
						did := int(bailAt - c)
						issues += did
						soleRun += did
						for d := uint64(0); d < 4; d++ {
							cc := int64(bailAt) - 1 - int64(d)
							if cc < int64(c) {
								break
							}
							ring[cc&3] = ringSlot{
								pc:    reg.start + uint16(j0+int(cc-int64(c))),
								valid: true,
							}
						}
						issueJ = j0 + did
						bail = true
						X = bailAt
						break
					}
					// Stretch complete: cycles c..cEnd all issued; the two
					// youngest ops are still in flight toward EX.
					issues += L
					flushIdle()
					soleRun += L
					for d := uint64(0); d < 4 && d < uint64(L); d++ {
						cc := cEnd - d
						ring[cc&3] = ringSlot{
							pc:    reg.start + uint16(j0+int(cc-c)),
							valid: true,
						}
					}
					pend[(cEnd+1)&1] = pendEX{j: int32(j0 + L - 2), valid: true}
					pend[(cEnd+2)&1] = pendEX{j: int32(j0 + L - 1), valid: true}
					issueJ = j0 + L
					c = cEnd
					continue
				}
			}
		}
		// EX: the op issued at c-2, if any. Clearing the slot matters —
		// an idle issue phase below must not leave it to re-fire at c+2.
		if e := pend[c&1]; e.valid {
			pend[c&1].valid = false
			j := int(e.j)
			if sl := &reg.slots[j]; sl.aluOnly() {
				m.alu(s, &sl.instr)
			} else if !m.exSlot(id, s, sl, c) {
				bail = true
				X = c
				break
			}
			if br := &reg.brs[j]; br.valid {
				brFusesN++
				contPC := br.fall
				if br.uncond || condTrue(br.cond, s.flags) {
					contPC = br.taken
				}
				// Continue (or chain) only when the target is a live
				// compiled address, quiescence still holds, and the
				// continuation's stack-window excursion re-proves from
				// the live AWP (a loop may revisit adjusting ops, so
				// the entry-time bound does not cover it).
				ok := int(contPC) < len(t.index) && t.index[contPC] != 0 &&
					uint32(m.ready) == r
				var nr *region
				jT := 0
				if ok {
					nr = &t.regions[t.index[contPC]-1]
					jT = int(contPC) - int(nr.start)
					// A session that has only ever run flat regions holds
					// the live count the entry check proved in-band; a
					// flat continuation cannot move it, so the re-proof is
					// the entry proof. Anything else re-proves live.
					if !(flatSession && nr.flatWin) {
						flatSession = false
						baseT := 0
						if jT > 0 {
							baseT = nr.cum[jT-1]
						}
						lv := s.win.Live()
						if lv+nr.sufMax[jT]-baseT > s.win.Depth()-isa.WindowSize ||
							lv+nr.sufMin[jT]-baseT < isa.WindowSize {
							ok = false
						}
					}
				}
				if !ok {
					// Control leaves the compiled space: exit. Cycle c
					// is one of the branch's shadow cycles — idle.
					ring[c&3].valid = false
					flushSole()
					idleRun++
					idleStat++
					X = c
					exitPC = contPC
					break
				}
				if nr != reg {
					chainsN++
					if m.rec != nil {
						m.rec.Emit(obs.Event{Cycle: c, Kind: obs.KindBlockChain,
							Stream: int8(id), PC: contPC, Aux: c - entry})
					}
					reg = nr
				}
				issueJ = jT
			}
		}
		// Issue: a sole-ready pick, or a branch-shadow idle cycle.
		if c < nextIssue {
			ring[c&3].valid = false
			flushSole()
			idleRun++
			idleStat++
			continue
		}
		ring[c&3] = ringSlot{pc: reg.start + uint16(issueJ), valid: true}
		pend[c&1] = pendEX{j: int32(issueJ), valid: true}
		issues++
		flushIdle()
		soleRun++
		if reg.brs[issueJ].valid {
			// The §3.3 shadow: the two cycles behind a control transfer
			// cannot issue; the continuation issues at c+3 with the
			// cursor parked until the EX above resolves it.
			nextIssue = c + 3
		} else {
			issueJ++
		}
	}
	m.inSession = false
	n := int(X - entry)

	// --- Bulk accounting: exactly what n per-cycle Steps would do. ---
	if bail {
		// The bail cycle X never reached its issue phase. Its scheduler
		// view depends on the latched mask: a shadow cycle latched zero
		// (idle pick), any other latched the sole stream — the pick
		// lands but the issue fails against the just-cleared ready bit,
		// exactly the per-cycle wait-entry shape.
		ring[X&3].valid = false
		if X < nextIssue {
			flushSole()
			idleRun++
		} else {
			flushIdle()
			soleRun++
		}
		idleStat++
	}
	flushSole()
	flushIdle()
	m.cycle = X
	s.issued += uint64(issues)
	m.stats.Issued += uint64(issues)
	m.seq += uint64(issues)
	m.stats.IdleCycles += uint64(idleStat)
	m.blockStats.Sessions++
	m.blockStats.FusedCycles += uint64(n)
	m.blockStats.FusedInstrs += uint64(issues)
	m.blockStats.BranchFuses += brFusesN
	m.blockStats.Chains += chainsN
	switch {
	case chainsN > 0:
		m.blockStats.ChainSessions++
		m.blockStats.ChainCycles += uint64(n)
	case brFusesN > 0:
		m.blockStats.BranchSessions++
		m.blockStats.BranchCycles += uint64(n)
	default:
		m.blockStats.StraightSessions++
		m.blockStats.StraightCycles += uint64(n)
	}

	// Retires: cycle entry+j retires what sat j stages from WR at
	// entry — the initial WR and EX slots (any stream), the prefix
	// slots, then the session's own issues. An in-session issue retires
	// unless it is still in flight at X (the last <= 4 cycles' issues;
	// a bail's flushed slot sits there too and equally did not retire).
	if wrS.valid {
		m.streams[wrS.stream].retired++
		m.stats.Retired++
	}
	if n >= 2 && exS.valid {
		m.streams[exS.stream].retired++
		m.stats.Retired++
	}
	if n >= 3 && u2S.valid {
		s.retired++
		m.stats.Retired++
	}
	if n >= 4 && u1S.valid {
		s.retired++
		m.stats.Retired++
	}
	notRet := 0
	for d := 0; d < 4; d++ {
		cc := int64(X) - int64(d)
		if cc <= int64(entry) {
			break
		}
		if ring[cc&3].valid {
			notRet++
		}
	}
	sret := issues - notRet
	s.retired += uint64(sret)
	m.stats.Retired += uint64(sret)

	// Materialize the at-rest pipe after n shifts: stage j holds what
	// cycle X-j put there — an in-session issue (or a shadow/idle
	// bubble), or one of the pre-session prefix slots.
	m.pipeBase = uint8((int(m.pipeBase) + (isa.PipeDepth-1)*n) & (isa.PipeDepth - 1))
	slotAt := func(cc int64) slot {
		switch {
		case cc > int64(entry):
			if re := ring[cc&3]; re.valid {
				return m.freshSlot(id, re.pc)
			}
			return slot{}
		case cc == int64(entry):
			return u1S
		case cc == int64(entry)-1:
			return u2S
		case cc == int64(entry)-2:
			return exS
		default:
			return wrS
		}
	}
	if !bail {
		s.pc = exitPC
		*m.stage(0) = slotAt(int64(X))
		*m.stage(1) = slotAt(int64(X) - 1)
		*m.stage(2) = slotAt(int64(X) - 2)
		*m.stage(3) = slotAt(int64(X) - 3)
	} else {
		// The bailing access executed at X from EX; WR holds its
		// predecessor; the §4.1 flush rule squashed the one younger
		// in-flight slot (when a slot was in flight — the cycle before
		// a bail can also be a shadow bubble); the wait entry already
		// advanced the stream PC past the access.
		*m.stage(0) = slot{}
		*m.stage(1) = slot{}
		*m.stage(2) = slotAt(int64(X) - 2)
		*m.stage(3) = slotAt(int64(X) - 3)
		if young := slotAt(int64(X) - 1); young.valid {
			s.flushed++
			m.stats.Flushed++
		}
		m.blockStats.Bails++
	}

	// Rest-state devices: replay the elided per-cycle ticks so device
	// counters match a stepped run (a bail already caught up through X
	// inside blockBusEnter and moved the watermark).
	if m.bus.NeedsTick() {
		if d := X - m.blockTickBase; d > 0 {
			m.bus.CatchUp(d)
		}
	}

	if m.rec != nil {
		// The session's own issues/retires are summarized by the
		// enter/exit pair; instructions issued *before* the session
		// have open issue events, so their retires (and a first-cycle
		// bail's flush of the IF prefix slot) are emitted at their
		// exact cycles to keep lifetime matching consistent.
		if wrS.valid {
			m.rec.Emit(obs.Event{Cycle: entry + 1, Kind: obs.KindRetire,
				Stream: int8(wrS.stream), PC: wrS.pc})
		}
		if n >= 2 && exS.valid {
			m.rec.Emit(obs.Event{Cycle: entry + 2, Kind: obs.KindRetire,
				Stream: int8(exS.stream), PC: exS.pc})
		}
		if n >= 3 && u2S.valid {
			m.rec.Emit(obs.Event{Cycle: entry + 3, Kind: obs.KindRetire,
				Stream: int8(id), PC: u2S.pc})
		}
		if n >= 4 && u1S.valid {
			m.rec.Emit(obs.Event{Cycle: entry + 4, Kind: obs.KindRetire,
				Stream: int8(id), PC: u1S.pc})
		}
		if bail && X == entry+1 && u1S.valid {
			m.rec.Emit(obs.Event{Cycle: X, Kind: obs.KindFlush,
				Stream: int8(id), PC: u1S.pc})
		}
		// Session-issued instructions still in the pipe at exit retire
		// (or flush) later under per-cycle stepping, so they need open
		// issue events at their true issue cycles — ascending — or the
		// trace reconstruction would mismatch them against younger
		// instructions. A bail's flushed slot (X-1) and the bail cycle
		// itself issued nothing that survives.
		lo := int64(entry) + 1
		if v := int64(X) - 3; v > lo {
			lo = v
		}
		hi := int64(X)
		if bail {
			hi = int64(X) - 2
		}
		for cc := lo; cc <= hi; cc++ {
			if re := ring[cc&3]; re.valid {
				m.rec.Emit(obs.Event{Cycle: uint64(cc), Kind: obs.KindIssue,
					Stream: int8(id), PC: re.pc})
			}
		}
		bailFlag := uint8(0)
		if bail {
			bailFlag = 1
		}
		m.rec.Emit(obs.Event{Cycle: X, Kind: obs.KindBlockExit,
			Stream: int8(id), PC: s.pc, Aux: uint64(n), Data: uint16(issues), B: bailFlag})
	}
	if g != nil {
		m.gateUpdate(g, id, entryStart, n, probe)
	}
	return n
}

// freshSlot builds the pipe slot an in-session issue of pc produced: a
// predecoded instruction of stream id. A fused branch materialized in
// the exit pipe carries its shadow mark, but only ever at EX/WR —
// already resolved, so the stream's branchShadow stays net zero.
func (m *Machine) freshSlot(id int, pc uint16) slot {
	in, meta := m.prog.Decoded(pc)
	return slot{instr: in, valid: true, stream: uint8(id), pc: pc,
		shadow: meta&mem.MetaShadow != 0}
}

// aluOnly reports whether all execute would run for a compiled slot is
// alu: a register-only op with no stack-window adjust (a compiled slot
// is never an interrupt entry and never carries a branch shadow). The
// session loop calls alu directly for such slots — the common case —
// and exSlot for the rest.
func (sl *slot) aluOnly() bool {
	return sl.instr.Op <= isa.OpLDHI && sl.instr.SW == isa.SWNone
}

// exSlot executes one compiled slot at EX cycle c for the session's
// stream and reports whether the session continues: false when the
// op's external access ended it (blockBusEnter). The session headroom
// checks prove no stack-window event can fire; the assertion turns an
// engine bug into a loud panic instead of a silent divergence.
func (m *Machine) exSlot(id int, s *stream, sl *slot, c uint64) bool {
	m.cycle = c
	faults := s.stackFault
	m.execute(id, s, sl)
	if s.stackFault != faults {
		panic("core: stack-window fault inside a fused block session (headroom check bug)")
	}
	return s.state == StateRun
}

// blockBusEnter performs the §3.6.1 wait-state entry for a memory op
// that a session executed at an external address (access calls it
// under inSession): catch the rest-state devices up to now, post the
// access, block the stream, and advance its PC past the instruction
// (the access completes asynchronously; flushed successors re-fetch
// from there). The bus is never busy mid-session — the session's first
// external access is also its last — so the busy-retry path cannot
// occur. The session commits flush and idle-slot accounting.
func (m *Machine) blockBusEnter(id int, s *stream, pc, ea uint16, write bool, data uint16, dest isa.Reg) {
	if m.bus.NeedsTick() {
		// The per-cycle path ticks devices at the top of every cycle,
		// before EX posts the request; replay the session's elided
		// ticks so the device sees the same age it would have.
		if d := m.cycle - m.blockTickBase; d > 0 {
			m.bus.CatchUp(d)
			m.blockTickBase = m.cycle
		}
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
	s.pc = pc + 1
	if m.rec != nil {
		w := uint8(0)
		if write {
			w = 1
		}
		m.rec.Emit(obs.Event{Cycle: m.cycle, Kind: obs.KindBusWait,
			Stream: int8(id), PC: pc, Addr: ea, A: w})
		m.emitState(id, obs.StreamRun, obs.StreamBusWait)
	}
	m.refreshReady(id)
}
