// Package core implements the DISC1 machine — the paper's primary
// contribution (§3): a dynamically interleaved multistream pipeline
// with single-cycle task switching.
//
// Up to isa.NumStreams instruction streams are live at once. Every
// stream owns a full context — PC, stack-window register file,
// interrupt register pair, status and multiply-high registers — stored
// inside the processor, so switching streams costs nothing: the
// hardware scheduler (package sched) simply picks which stream's PC the
// next fetch uses. The four-stage pipeline (IF, RD, EX, WR) carries
// instructions from any mix of streams; when a stream stalls — a branch
// in flight, an external access on the asynchronous bus, a WAITI join,
// or simply no pending interrupt bits — its slots are dynamically
// reallocated to the streams that can run (§3.4).
//
// Timing model. Instructions advance one stage per cycle and their
// semantics execute atomically when they reach EX; since same-stream
// instructions always reach EX in program order, the machine behaves as
// if it had a perfect bypass network (the paper's "all the instructions
// are effectively single cycle"). Control transfers resolve at EX; a
// stream with an unresolved control transfer does not fetch (the
// "branch shadow"), which reproduces Figure 3.2 — no wrong-path fetch
// ever occurs, only lost slots that other streams soak up. External
// loads and stores post to the ABI and put the stream in a wait state,
// flushing its younger in-flight instructions, exactly as §3.6.1 and
// the §4.1 model describe.
package core

import (
	"fmt"

	"disc/internal/bus"
	"disc/internal/interrupt"
	"disc/internal/isa"
	"disc/internal/mem"
	"disc/internal/obs"
	"disc/internal/sched"
	"disc/internal/stackwin"
)

// Config selects the machine geometry.
type Config struct {
	// Streams is the number of instruction streams to support (1..4).
	Streams int
	// WindowDepth is the physical register count of each stream's
	// stack-window file. Zero selects stackwin.DefaultDepth.
	WindowDepth int
	// VectorBase is the reset value of every stream's VB register.
	VectorBase uint16
	// Shares, when non-nil, builds the scheduler partition table from
	// per-stream weights (§3.4). Nil shares the machine evenly.
	Shares []int
	// Slots, when non-nil, is an explicit scheduler slot table and
	// takes precedence over Shares.
	Slots []int
	// Priority selects strict-priority scheduling (§3.1's preemptive
	// model): stream 0 always wins when ready, stream 1 runs in its
	// gaps, and so on. Takes precedence over Slots and Shares.
	Priority bool
	// TrapBusFaults raises interrupt.BusFault on the issuing stream
	// when its external access completes with an error, so a handler
	// can observe LastBusError and retry. Off (the default) preserves
	// the silent policy: the load destination gets the 0xFFFF open-bus
	// value and execution continues.
	TrapBusFaults bool
	// Reference selects the slow reference pipeline: readiness is
	// recomputed for every stream every cycle and every issue decodes
	// its word live through isa.Decode instead of the predecode cache.
	// It exists as the oracle for the differential equivalence tests
	// (the optimized path must match it byte for byte) and as the
	// honest "before" in the throughput benchmarks.
	Reference bool
	// CheckReadiness cross-checks the incrementally maintained ready
	// mask against a full recompute at the top of every cycle and
	// panics on divergence. Debug aid for the fast path; ignored when
	// Reference is set.
	CheckReadiness bool
}

// StreamState describes why a stream is or is not fetchable.
type StreamState uint8

// Stream states.
const (
	StateRun     StreamState = iota // fetching normally (if IR bits pending)
	StateBusWait                    // §3.6.1 wait state: blocked on the ABI
	StateIRQWait                    // WAITI: blocked until an IR bit arrives
)

func (s StreamState) String() string {
	switch s {
	case StateRun:
		return "run"
	case StateBusWait:
		return "buswait"
	case StateIRQWait:
		return "irqwait"
	}
	return fmt.Sprintf("StreamState(%d)", uint8(s))
}

// stream is one instruction stream's stored context.
type stream struct {
	pc    uint16
	win   *stackwin.File
	intr  *interrupt.Unit
	flags uint8  // Z,N,C,V
	h     uint16 // multiply high half
	vb    uint16 // vector base

	state   StreamState
	waitBit uint8 // IRQWait: the bit WAITI blocks on

	// stallUntil freezes the stream (no issue) until this machine
	// cycle — the fault injector's stuck-stream mechanism.
	stallUntil uint64
	// lastBusErr records the stream's most recent failed external
	// access, for handlers and deadlock diagnoses.
	lastBusErr *bus.BusError

	// branchShadow counts unresolved control transfers in the pipe;
	// while non-zero the stream does not fetch.
	branchShadow int

	// entryInFlight is true while an interrupt-entry micro-op is in
	// the pipe but has not yet raised the level at EX; it prevents the
	// dispatcher from injecting the same entry twice.
	entryInFlight bool

	// Cached interrupt-dispatch decision (Machine.dispatch). Dispatch()
	// is a pure function of the interrupt unit's state, and every
	// mutation of any stream's unit advances the machine's intrEpoch, so
	// the fast pipeline only recomputes the decision when dispEpoch falls
	// behind (the reference pipeline recomputes it every time) — the common
	// issue compares one machine word instead of loading the unit or
	// re-deriving the highest pending level. Another stream's mutation
	// also forces a recompute, which finds the same decision.
	dispEpoch uint32
	dispBit   uint8
	dispOK    bool

	// stats
	issued     uint64
	retired    uint64
	flushed    uint64
	busWaits   uint64
	busRetries uint64
	dispatches uint64
	stackFault uint64
	busFaults  uint64
}

// sr composes the architectural SR value: flags plus the current
// interrupt level.
func (s *stream) sr() uint16 {
	return uint16(s.flags) | uint16(s.intr.Level())<<isa.SRLevelShift
}

// slotKind distinguishes fetched instructions from the hardware
// interrupt-entry micro-operation that the dispatcher injects.
type slotKind uint8

const (
	kindInstr slotKind = iota
	kindIntEntry
)

// slot is one pipeline stage's content. Field order and widths keep it
// at 24 bytes — the pipe is copied on every flush and written on every
// issue, so its footprint is hot-loop cost, not just memory.
type slot struct {
	instr  isa.Instruction
	valid  bool
	stream uint8
	kind   slotKind
	bit    uint8 // interrupt bit for kindIntEntry
	shadow bool  // this slot holds an unresolved control transfer
	pc     uint16
	retPC  uint16 // return address for kindIntEntry
}

// Machine is a configured DISC1 processor.
type Machine struct {
	cfg     Config
	prog    *mem.Program
	imem    *mem.Internal
	bus     *bus.Bus
	sch     *sched.Scheduler
	globals [isa.NumGlobals]uint16
	streams []*stream
	// pipe is a ring: stage k lives at pipe[(pipeBase+k) % PipeDepth],
	// so the per-cycle "shift" is one index decrement instead of three
	// slot copies. Use stage() to address it.
	pipe     [isa.PipeDepth]slot
	pipeBase uint8
	cycle    uint64
	seq      uint64
	dbg      *debugState
	profile  map[uint32]uint64 // per-(stream,pc) retirement counts

	// ready is the incrementally maintained scheduler input: bit i is
	// set exactly when streamReady(i) holds. Streams flip their bit on
	// state transitions (refreshReady) instead of Step recomputing all
	// streams every cycle; two cheap per-cycle checks cover the inputs
	// that change without a machine-side hook (stall timers expiring
	// with the clock, interrupt units mutated through raw handles).
	// intrEpoch is shared by every stream's interrupt unit and advances
	// on each of their mutations; intrSeen is its value at the last
	// full sweep, so intrEpoch == intrSeen proves every intrVer current.
	ready     sched.ReadyMask
	stallMask uint32                 // streams with a live stall timer
	intrVer   [isa.NumStreams]uint32 // last swept interrupt.Unit versions
	intrEpoch uint32                 // mutations of any stream's unit
	intrSeen  uint32                 // intrEpoch at the last sweepIntr
	statsBase uint64                 // cycle count at the last ResetStats

	// rec is the flight recorder; nil when tracing is off. Every emit
	// site in the pipeline is guarded by that single nil check, so a
	// machine without a recorder pays nothing but predictable branches.
	rec *obs.Recorder

	// blocks is the attached compiled block table; nil runs the
	// per-cycle engines only. blockStats counts fused sessions — kept
	// out of Stats so the equivalence suite's Stats comparison stays an
	// engine-independent architectural check. See block.go.
	blocks     *BlockTable
	blockStats BlockStats

	// gates are the per-region adaptive dispatch gates (parallel to
	// blocks.regions; nil without a table). blockGateOff disables them
	// (SetBlockGate). blockTickBase is the fused-session device-tick
	// watermark: the cycle up to which rest-state tickers have been
	// caught up (bus.CatchUp) during the current session. blockSkip
	// batches a demoted region's probe countdown: stepBlock steps plainly
	// for that many dispatches without re-running the entry predicate.
	// blockIdleSkip is the escalating skip for not-sole-ready rejects
	// (see notSoleSkip0 in block.go). inSession is set while a fused
	// session executes: access then ends the session at an external
	// address instead of taking the per-cycle wait-state entry.
	gates           []regionGate
	blockGateOff    bool
	inSession       bool
	blockTickBase   uint64
	blockSkip       uint32
	blockIdleSkip   uint32
	blockDemoteSkip uint32

	stats Stats
}

// New builds a machine. The program and data memories start empty; use
// LoadProgram and StartStream (or the asm/facade helpers) to arrange
// execution.
func New(cfg Config) (*Machine, error) {
	if cfg.Streams < 1 || cfg.Streams > isa.NumStreams {
		return nil, fmt.Errorf("core: %d streams outside 1..%d", cfg.Streams, isa.NumStreams)
	}
	depth := cfg.WindowDepth
	if depth == 0 {
		depth = stackwin.DefaultDepth
	}
	var sc *sched.Scheduler
	var err error
	switch {
	case cfg.Priority:
		sc, err = sched.NewPriority(cfg.Streams)
	case cfg.Slots != nil:
		sc, err = sched.NewTable(cfg.Slots, cfg.Streams)
	case cfg.Shares != nil:
		sc, err = sched.NewShares(cfg.Shares)
		if err == nil && sc.NumStreams() != cfg.Streams {
			err = fmt.Errorf("core: %d shares for %d streams", len(cfg.Shares), cfg.Streams)
		}
	default:
		sc = sched.NewEven(cfg.Streams)
	}
	if err != nil {
		return nil, err
	}
	m := &Machine{
		cfg:  cfg,
		prog: mem.NewProgram(),
		imem: mem.NewInternal(),
		bus:  bus.New(),
		sch:  sc,
	}
	for i := 0; i < cfg.Streams; i++ {
		w, err := stackwin.New(depth)
		if err != nil {
			return nil, err
		}
		st := &stream{win: w, intr: interrupt.NewShared(&m.intrEpoch), vb: cfg.VectorBase}
		st.dispEpoch = m.intrEpoch - 1 // force the first issue to compute
		m.streams = append(m.streams, st)
	}
	m.stats.PerStream = make([]StreamStats, cfg.Streams)
	return m, nil
}

// stage returns pipeline stage k (0=IF ... PipeDepth-1=WR). PipeDepth
// is a power of two, so the ring wrap is a mask.
func (m *Machine) stage(k int) *slot {
	return &m.pipe[(int(m.pipeBase)+k)&(isa.PipeDepth-1)]
}

// MustNew is New for configurations known to be valid.
func MustNew(cfg Config) *Machine {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Program returns the instruction memory for loading.
func (m *Machine) Program() *mem.Program { return m.prog }

// Internal returns the shared on-chip data memory.
func (m *Machine) Internal() *mem.Internal { return m.imem }

// Bus returns the asynchronous bus for attaching devices.
func (m *Machine) Bus() *bus.Bus { return m.bus }

// Scheduler returns the hardware scheduler (to inspect slot tables).
func (m *Machine) Scheduler() *sched.Scheduler { return m.sch }

// SetRecorder attaches (or, with nil, detaches) a flight recorder to
// the whole machine: the pipeline's own emit sites, the scheduler's
// donation hook, every stream's interrupt unit, and the ABI are wired
// to it in one call. Recording is observation only — a run with a
// recorder attached is byte-identical to one without (the root
// obs_equiv_test.go differential proof).
func (m *Machine) SetRecorder(rec *obs.Recorder) {
	m.rec = rec
	if rec == nil {
		m.bus.SetRecorder(nil, nil)
		m.sch.SetObserver(nil)
		for _, s := range m.streams {
			s.intr.SetObserver(nil, nil)
		}
		return
	}
	m.bus.SetRecorder(rec, func() uint64 { return m.cycle })
	m.sch.SetObserver(func(pick, owner int) {
		rec.Emit(obs.Event{Cycle: m.cycle, Kind: obs.KindSlotDonated,
			Stream: int8(pick), A: uint8(owner)})
	})
	for i, s := range m.streams {
		id, st := i, s
		st.intr.SetObserver(
			func(bit uint8, wasInactive bool) {
				rec.Emit(obs.Event{Cycle: m.cycle, Kind: obs.KindIRQRaise,
					Stream: int8(id), A: bit})
				// Waking an inactive stream whose scheduling state is
				// otherwise run is the Figure 3.3 halted -> run edge.
				if wasInactive && st.state == StateRun {
					m.emitState(id, obs.StreamHalted, obs.StreamRun)
				}
			},
			func(bit uint8) {
				rec.Emit(obs.Event{Cycle: m.cycle, Kind: obs.KindIRQAck,
					Stream: int8(id), A: bit})
			},
		)
	}
}

// Recorder returns the attached flight recorder, or nil.
func (m *Machine) Recorder() *obs.Recorder { return m.rec }

// PostMortem formats the recorder's last n events per stream, or ""
// when no recorder is attached. The liveness guard and the fault
// harness attach it to their DeadlockError/CycleLimitError reports.
func (m *Machine) PostMortem(n int) string {
	if m.rec == nil {
		return ""
	}
	return m.rec.PostMortem(n)
}

// emitState records a stream scheduling-state transition; callers
// guard with m.rec != nil.
func (m *Machine) emitState(id int, from, to obs.StreamCode) {
	m.rec.Emit(obs.Event{Cycle: m.cycle, Kind: obs.KindStreamState,
		Stream: int8(id), A: uint8(from), B: uint8(to)})
}

// Cycle returns the number of cycles executed.
func (m *Machine) Cycle() uint64 { return m.cycle }

// Streams returns the number of configured streams.
func (m *Machine) Streams() int { return len(m.streams) }

// LoadProgram copies an assembled image at base.
func (m *Machine) LoadProgram(base uint16, image []isa.Word) error {
	return m.prog.Load(base, image)
}

// StartStream points stream i at pc and raises its background bit, the
// software-visible SSTART operation performed from outside.
func (m *Machine) StartStream(i int, pc uint16) error {
	if i < 0 || i >= len(m.streams) {
		return fmt.Errorf("core: stream %d out of range", i)
	}
	s := m.streams[i]
	s.pc = pc
	s.state = StateRun
	s.intr.Request(interrupt.Background)
	m.refreshReady(i)
	return nil
}

// RaiseIRQ sets interrupt bit on a stream's IR; it satisfies
// bus.IRQFunc so devices can be wired straight to streams. Out-of-range
// values are ignored (a device cannot crash the machine).
func (m *Machine) RaiseIRQ(streamID, bit uint8) {
	if int(streamID) >= len(m.streams) {
		return
	}
	m.streams[streamID].intr.Request(bit)
	m.refreshReady(int(streamID))
}

// StallStream freezes stream i for the next n cycles: it cannot issue
// instructions until the period elapses, modelling a stuck stream (a
// hung co-processor handshake, an injected hardware fault). In-flight
// instructions and pending bus accesses are unaffected. Out-of-range
// streams are ignored.
func (m *Machine) StallStream(i int, n uint64) {
	if i < 0 || i >= len(m.streams) {
		return
	}
	until := m.cycle + n
	if until > m.streams[i].stallUntil {
		m.streams[i].stallUntil = until
	}
	if m.streams[i].stallUntil > m.cycle {
		m.stallMask |= 1 << uint(i)
	}
	m.refreshReady(i)
}

// LastBusError returns stream i's most recent failed external access,
// or nil if every access so far succeeded.
func (m *Machine) LastBusError(i int) *bus.BusError {
	if i < 0 || i >= len(m.streams) {
		return nil
	}
	return m.streams[i].lastBusErr
}

// StreamActive reports whether stream i has any unmasked IR bit.
func (m *Machine) StreamActive(i int) bool { return m.streams[i].intr.Active() }

// StreamState returns the stream's wait state.
func (m *Machine) StreamState(i int) StreamState { return m.streams[i].state }

// StreamPC returns stream i's fetch PC.
func (m *Machine) StreamPC(i int) uint16 { return m.streams[i].pc }

// StreamFlags returns stream i's condition flags (Z,N,C,V).
func (m *Machine) StreamFlags(i int) uint8 { return m.streams[i].flags }

// StreamH returns stream i's multiply high-half register.
func (m *Machine) StreamH(i int) uint16 { return m.streams[i].h }

// Window returns a copy of stream i's visible register window.
func (m *Machine) Window(i int) [isa.WindowSize]uint16 { return m.streams[i].win.Window() }

// WindowFile exposes stream i's stack-window file (tests, spill code).
func (m *Machine) WindowFile(i int) *stackwin.File { return m.streams[i].win }

// Interrupts exposes stream i's interrupt unit.
func (m *Machine) Interrupts(i int) *interrupt.Unit { return m.streams[i].intr }

// Global returns shared global register g.
func (m *Machine) Global(g int) uint16 { return m.globals[g] }

// SetGlobal writes shared global register g.
func (m *Machine) SetGlobal(g int, v uint16) { m.globals[g] = v }

// Idle reports whether nothing can make progress any more: every
// stream inactive (or wait-blocked with nothing to wake it), the pipe
// drained and the bus quiet.
func (m *Machine) Idle() bool {
	for _, sl := range m.pipe {
		if sl.valid {
			return false
		}
	}
	if m.bus.Busy() {
		return false
	}
	for _, s := range m.streams {
		if s.intr.Active() && s.state == StateRun {
			return false
		}
		if s.state == StateIRQWait && s.intr.Test(s.waitBit) {
			return false
		}
	}
	return true
}

// Reset returns the machine to power-on state: streams halted with
// cleared contexts, pipe empty, cycle counter and statistics zeroed,
// bus aborted. Program memory and internal data memory are preserved,
// so a loaded image can be re-run without rebuilding the machine.
func (m *Machine) Reset() {
	for _, s := range m.streams {
		s.pc = 0
		s.win.Reset()
		s.intr.Reset()
		s.flags, s.h = 0, 0
		s.vb = m.cfg.VectorBase
		s.state = StateRun
		s.waitBit = 0
		s.stallUntil = 0
		s.lastBusErr = nil
		s.branchShadow = 0
		s.entryInFlight = false
		s.dispEpoch = m.intrEpoch - 1 // invalidate the dispatch cache
	}
	m.pipe = [isa.PipeDepth]slot{}
	m.pipeBase = 0
	m.globals = [isa.NumGlobals]uint16{}
	m.sch.Reset() // power-on rotation, not wherever the last run parked it
	m.bus.Reset()
	m.cycle, m.seq = 0, 0
	m.statsBase = 0
	m.dbg = nil
	// Power-on state means no residue from the previous run's harness
	// attachments either: profiling counts and block-engine session
	// statistics restart from zero exactly as on a freshly built machine
	// (the reset-vs-fresh differential test pins this). The block table
	// itself survives — like program memory, it is loaded configuration.
	m.profile = nil
	m.blockStats = BlockStats{}
	m.blockTickBase = 0
	m.blockSkip = 0
	m.blockIdleSkip = 0
	m.blockDemoteSkip = 0
	for i := range m.gates {
		m.gates[i] = regionGate{score: gateScoreInit}
	}
	m.ready, m.stallMask = 0, 0
	for i := range m.streams {
		m.intrVer[i] = m.streams[i].intr.Version()
		m.refreshReady(i)
	}
	m.intrSeen = m.intrEpoch
	m.ResetStats()
}
