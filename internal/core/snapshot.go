package core

import (
	"errors"
	"fmt"

	"disc/internal/bus"
	"disc/internal/interrupt"
	"disc/internal/isa"
	"disc/internal/mem"
	"disc/internal/sched"
	"disc/internal/stackwin"
)

// Snapshot is the complete serializable state of a Machine: everything
// continued execution depends on, and nothing else. The struct tree is
// plain data (no pointers into the live machine), so a Snapshot can be
// held, compared with reflect.DeepEqual, or handed to internal/snap for
// the versioned on-disk encoding.
//
// What is deliberately NOT captured, and why:
//
//   - Derived caches (predecode, ready mask, dispatch cache, stall
//     mask, interrupt version counters): recomputed on Restore from the
//     architectural state, the same way New and Reset derive them.
//   - The pipe's ring rotation: slots are serialized in stage order
//     (index 0 = IF ... PipeDepth-1 = WR) and restored at pipeBase 0 —
//     architecturally identical, and it makes Snapshot a canonical
//     form: two machines in the same architectural state produce equal
//     Snapshots regardless of ring phase. Fetched slots also drop their
//     decoded instruction — it is a pure function of (kind, pc) and the
//     program store, rebuilt through mem.Program.Decoded on Restore.
//   - The compiled block table and its BlockStats: the table indexes a
//     program-store version that Restore invalidates by construction
//     (mem.Program.SetState bumps the version), so the restoring host
//     re-attaches if it wants fused execution (blockc.Attach reuses
//     the image's plan and rebuilds only the table). Session
//     statistics are engine observations, not machine state.
//   - Observability (recorder, debugger, profiler) attachments: they
//     belong to the host process, not the machine.
type Snapshot struct {
	Cfg Config

	Cycle     uint64
	Seq       uint64
	StatsBase uint64

	Globals [isa.NumGlobals]uint16
	Pipe    [isa.PipeDepth]SlotSnap // stage order: 0 = IF
	Streams []StreamSnap

	Sched      sched.State
	Bus        bus.State
	BusTimeout int
	Devices    []DeviceSnap

	Prog mem.ProgramState
	Imem []uint16

	Machine Stats // machine-wide counters only; PerStream is nil
}

// SlotSnap is one pipeline stage in serializable form.
type SlotSnap struct {
	Valid  bool
	Stream uint8
	Kind   uint8 // 0 = fetched instruction, 1 = interrupt-entry micro-op
	Bit    uint8
	Shadow bool
	PC     uint16
	RetPC  uint16
}

// StreamSnap is one stream's stored context in serializable form.
type StreamSnap struct {
	PC    uint16
	Win   stackwin.State
	Intr  interrupt.State
	Flags uint8
	H     uint16
	VB    uint16

	State         uint8
	WaitBit       uint8
	StallUntil    uint64
	BranchShadow  int
	EntryInFlight bool

	BusErr *BusErrSnap

	Issued     uint64
	Retired    uint64
	Flushed    uint64
	BusWaits   uint64
	BusRetries uint64
	Dispatches uint64
	StackFault uint64
	BusFaults  uint64
}

// Bus-error cause codes for BusErrSnap, mirroring the sentinel taxonomy
// of internal/bus.
const (
	BusErrUnmapped uint8 = iota
	BusErrTimeout
	BusErrDeviceFault
)

// BusErrSnap serializes a stream's LastBusError: the cause collapsed to
// its taxonomy code plus the failed request.
type BusErrSnap struct {
	Cause   uint8
	Req     bus.Request
	Elapsed int
}

// DeviceSnap pairs a bus device's identity with its marshaled state.
// Restore matches devices by (Base, Name): the restoring host attaches
// the same board before restoring, and any disagreement — missing
// device, renamed device, a stateful blob for a stateless device — is a
// configuration mismatch, reported, never guessed around.
type DeviceSnap struct {
	Base     uint16
	Name     string
	HasState bool
	State    []byte
}

// stater is the structural device-state contract shared with
// internal/snap (snap.Stater) and internal/fault: declared locally so
// core does not import the codec package.
type stater interface {
	MarshalState() ([]byte, error)
	UnmarshalState([]byte) error
}

// Snapshot captures the machine's complete architectural state. The
// machine is not perturbed; a Snapshot taken mid-ABI-handshake or
// mid-interrupt-entry restores to exactly that point.
func (m *Machine) Snapshot() (*Snapshot, error) {
	cfg := m.cfg
	if cfg.Shares != nil {
		cfg.Shares = append([]int(nil), cfg.Shares...)
	}
	if cfg.Slots != nil {
		cfg.Slots = append([]int(nil), cfg.Slots...)
	}
	s := &Snapshot{
		Cfg:        cfg,
		Cycle:      m.cycle,
		Seq:        m.seq,
		StatsBase:  m.statsBase,
		Globals:    m.globals,
		Sched:      m.sch.State(),
		Bus:        m.bus.State(),
		BusTimeout: m.bus.Timeout(),
		Prog:       m.prog.State(),
		Imem:       m.imem.Snapshot(),
		Machine:    m.stats,
	}
	s.Machine.PerStream = nil
	for k := 0; k < isa.PipeDepth; k++ {
		sl := m.stage(k)
		s.Pipe[k] = SlotSnap{
			Valid:  sl.valid,
			Stream: sl.stream,
			Kind:   uint8(sl.kind),
			Bit:    sl.bit,
			Shadow: sl.shadow,
			PC:     sl.pc,
			RetPC:  sl.retPC,
		}
	}
	s.Streams = make([]StreamSnap, len(m.streams))
	for i, st := range m.streams {
		ss := StreamSnap{
			PC:            st.pc,
			Win:           st.win.State(),
			Intr:          st.intr.State(),
			Flags:         st.flags,
			H:             st.h,
			VB:            st.vb,
			State:         uint8(st.state),
			WaitBit:       st.waitBit,
			StallUntil:    st.stallUntil,
			BranchShadow:  st.branchShadow,
			EntryInFlight: st.entryInFlight,
			Issued:        st.issued,
			Retired:       st.retired,
			Flushed:       st.flushed,
			BusWaits:      st.busWaits,
			BusRetries:    st.busRetries,
			Dispatches:    st.dispatches,
			StackFault:    st.stackFault,
			BusFaults:     st.busFaults,
		}
		if be := st.lastBusErr; be != nil {
			cause := BusErrUnmapped
			switch {
			case errors.Is(be, bus.ErrTimeout):
				cause = BusErrTimeout
			case errors.Is(be, bus.ErrDeviceFault):
				cause = BusErrDeviceFault
			}
			ss.BusErr = &BusErrSnap{Cause: cause, Req: be.Req, Elapsed: be.Elapsed}
		}
		s.Streams[i] = ss
	}
	for _, mp := range m.bus.Mappings() {
		ds := DeviceSnap{Base: mp.Base, Name: mp.Dev.Name()}
		if st, ok := mp.Dev.(stater); ok {
			blob, err := st.MarshalState()
			if err != nil {
				return nil, fmt.Errorf("core: snapshot device %s: %w", ds.Name, err)
			}
			ds.HasState = true
			ds.State = blob
		}
		s.Devices = append(s.Devices, ds)
	}
	return s, nil
}

// Restore overwrites the machine's complete state from a Snapshot, such
// that subsequent execution is byte-identical to the machine the
// snapshot was taken from. The machine must have been built with a
// compatible configuration (same stream count, window depth and
// scheduler geometry) and the same bus devices attached at the same
// bases — Restore validates and reports mismatches; it never guesses.
//
// Restore is a restore-side trust boundary: a malformed Snapshot (as
// decoded from untrusted bytes by internal/snap) produces an error, not
// a panic, though the machine may be left partially overwritten — on
// error, discard it.
//
// Host attachments are intentionally reset: the debugger, profiler and
// compiled block table detach (the program-store version advances, so a
// stale table could not be trusted anyway — re-attach), and
// the flight recorder stays whatever the host set it to, since
// recording is observation, not state.
func (m *Machine) Restore(s *Snapshot) error {
	if len(s.Streams) != len(m.streams) {
		return fmt.Errorf("core: snapshot has %d streams, machine has %d", len(s.Streams), len(m.streams))
	}
	if err := m.restoreDevices(s.Devices); err != nil {
		return err
	}
	if err := m.prog.SetState(s.Prog); err != nil {
		return err
	}
	if err := m.imem.SetState(s.Imem); err != nil {
		return err
	}
	if err := m.sch.SetState(s.Sched); err != nil {
		return err
	}
	for i, ss := range s.Streams {
		st := m.streams[i]
		if ss.State > uint8(StateIRQWait) {
			return fmt.Errorf("core: snapshot stream %d has unknown state %d", i, ss.State)
		}
		if err := st.win.SetState(ss.Win); err != nil {
			return fmt.Errorf("core: snapshot stream %d: %w", i, err)
		}
		st.intr.SetState(ss.Intr)
		st.pc = ss.PC
		st.flags = ss.Flags
		st.h = ss.H
		st.vb = ss.VB
		st.state = StreamState(ss.State)
		st.waitBit = ss.WaitBit & (isa.NumIRBits - 1)
		st.stallUntil = ss.StallUntil
		st.branchShadow = ss.BranchShadow
		st.entryInFlight = ss.EntryInFlight
		st.lastBusErr = nil
		if be := ss.BusErr; be != nil {
			cause := bus.ErrUnmapped
			switch be.Cause {
			case BusErrTimeout:
				cause = bus.ErrTimeout
			case BusErrDeviceFault:
				cause = bus.ErrDeviceFault
			}
			st.lastBusErr = &bus.BusError{Cause: cause, Req: be.Req, Elapsed: be.Elapsed}
		}
		st.issued = ss.Issued
		st.retired = ss.Retired
		st.flushed = ss.Flushed
		st.busWaits = ss.BusWaits
		st.busRetries = ss.BusRetries
		st.dispatches = ss.Dispatches
		st.stackFault = ss.StackFault
		st.busFaults = ss.BusFaults
	}
	m.globals = s.Globals
	m.bus.SetTimeout(s.BusTimeout)
	m.bus.SetState(s.Bus)
	m.cycle = s.Cycle
	m.seq = s.Seq
	m.statsBase = s.StatsBase
	m.stats = s.Machine
	m.stats.PerStream = make([]StreamStats, len(m.streams))

	// Reconstruct the pipe at ring phase 0. Fetched slots get their
	// decoded instruction back from the (just restored) program store —
	// issue stored exactly Decoded(pc) there, wild-PC NOP rule included,
	// so the rebuild is bit-exact for both pipeline engines.
	m.pipeBase = 0
	for k := 0; k < isa.PipeDepth; k++ {
		ps := s.Pipe[k]
		if !ps.Valid {
			m.pipe[k] = slot{}
			continue
		}
		if ps.Kind > uint8(kindIntEntry) {
			return fmt.Errorf("core: snapshot pipe stage %d has unknown slot kind %d", k, ps.Kind)
		}
		if int(ps.Stream) >= len(m.streams) {
			return fmt.Errorf("core: snapshot pipe stage %d names stream %d of %d", k, ps.Stream, len(m.streams))
		}
		sl := slot{
			valid:  true,
			stream: ps.Stream,
			kind:   slotKind(ps.Kind),
			bit:    ps.Bit & (isa.NumIRBits - 1),
			shadow: ps.Shadow,
			pc:     ps.PC,
			retPC:  ps.RetPC,
		}
		if sl.kind == kindInstr {
			sl.instr, _ = m.prog.Decoded(ps.PC)
		}
		m.pipe[k] = sl
	}

	// Host attachments detach; derived state recomputes, the same way
	// New and Reset derive it.
	m.blocks = nil
	m.blockStats = BlockStats{}
	m.dbg = nil
	m.profile = nil
	m.ready, m.stallMask = 0, 0
	for i, st := range m.streams {
		if st.stallUntil > m.cycle {
			m.stallMask |= 1 << uint(i)
		}
		st.dispEpoch = m.intrEpoch - 1 // force the next issue to recompute
		m.intrVer[i] = st.intr.Version()
		m.refreshReady(i)
	}
	m.intrSeen = m.intrEpoch
	return nil
}

// restoreDevices validates the snapshot's device list against the
// attached board and applies the per-device state blobs. The two sets
// must agree exactly — same bases, same names, state exactly where
// state was captured.
func (m *Machine) restoreDevices(devs []DeviceSnap) error {
	maps := m.bus.Mappings()
	if len(devs) != len(maps) {
		return fmt.Errorf("core: snapshot lists %d bus devices, machine has %d", len(devs), len(maps))
	}
	for i, ds := range devs {
		mp := maps[i]
		if ds.Base != mp.Base || ds.Name != mp.Dev.Name() {
			return fmt.Errorf("core: snapshot device %d is %q@%#04x, machine has %q@%#04x",
				i, ds.Name, ds.Base, mp.Dev.Name(), mp.Base)
		}
		st, ok := mp.Dev.(stater)
		if ds.HasState != ok {
			return fmt.Errorf("core: snapshot device %q@%#04x state presence mismatch (snapshot %v, device %v)",
				ds.Name, ds.Base, ds.HasState, ok)
		}
		if !ds.HasState {
			continue
		}
		if err := st.UnmarshalState(ds.State); err != nil {
			return fmt.Errorf("core: restore device %q@%#04x: %w", ds.Name, ds.Base, err)
		}
	}
	return nil
}
