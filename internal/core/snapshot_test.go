package core_test

// Snapshot/restore round-trip proofs. The contract under test: for any
// machine state, Snapshot captures everything continued execution
// depends on, and a freshly built twin restored from that snapshot
// continues byte-identically — same snapshots, same statistics, same
// device state — to the machine that never stopped. Because Snapshot
// is a canonical form (stage-ordered pipe, ring phase dropped),
// reflect.DeepEqual over snapshots IS the equality proof.

import (
	"fmt"
	"reflect"
	"testing"

	"disc/internal/analysis"
	"disc/internal/asm"
	"disc/internal/blockc"
	"disc/internal/bus"
	"disc/internal/core"
	"disc/internal/isa"
	"disc/internal/workload"
	"disc/internal/xval"
)

// loadSetup builds one Table 4.1 load machine; identical (p, k, seed)
// builds are bit-identical, which is what lets a test restore a
// snapshot into a freshly built twin.
func loadSetup(t *testing.T, p workload.Params, k int, seed uint64) *xval.LoadSetup {
	t.Helper()
	p.MeanOn, p.MeanOff = 0, 0 // program generation needs always-active streams
	setup, err := xval.NewLoadSetup(p, k, seed, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return setup
}

func snapOf(t *testing.T, m *core.Machine) *core.Snapshot {
	t.Helper()
	s, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// requireEqualSnaps compares two snapshots and, on divergence, names
// the top-level fields that differ instead of dumping 64K words.
func requireEqualSnaps(t *testing.T, tag string, want, got *core.Snapshot) {
	t.Helper()
	if reflect.DeepEqual(want, got) {
		return
	}
	wv, gv := reflect.ValueOf(*want), reflect.ValueOf(*got)
	diverged := false
	for i := 0; i < wv.NumField(); i++ {
		if !reflect.DeepEqual(wv.Field(i).Interface(), gv.Field(i).Interface()) {
			diverged = true
			t.Errorf("%s: snapshot field %s diverged", tag, wv.Type().Field(i).Name)
		}
	}
	if !diverged {
		t.Errorf("%s: snapshots diverged (no top-level field blamed)", tag)
	}
	t.FailNow()
}

// TestSnapshotRoundTripTableLoads is the central acceptance proof over
// the paper's own workloads: run N cycles, snapshot, run M more; a twin
// restored at N and run M must land on the identical snapshot —
// mid-flight bus transactions, pipe contents and RNG-shaped program
// behavior included.
func TestSnapshotRoundTripTableLoads(t *testing.T) {
	const runA, runB = 3000, 2500
	for _, p := range workload.Base() {
		for _, k := range []int{1, 4} {
			tag := fmt.Sprintf("%s/k=%d", p.Name, k)
			a := loadSetup(t, p, k, 0x5EED).Machine
			a.Run(runA)
			mid := snapOf(t, a)

			b := loadSetup(t, p, k, 0x5EED).Machine
			if err := b.Restore(mid); err != nil {
				t.Fatalf("%s: restore: %v", tag, err)
			}
			// Restore is exact: the restored machine re-snapshots to the
			// same canonical form before a single further cycle.
			requireEqualSnaps(t, tag+"/restore", mid, snapOf(t, b))

			a.Run(runB)
			b.Run(runB)
			requireEqualSnaps(t, tag+"/continue", snapOf(t, a), snapOf(t, b))
			if fa, fb := fmt.Sprintf("%+v", a.Stats()), fmt.Sprintf("%+v", b.Stats()); fa != fb {
				t.Fatalf("%s: statistics diverged after restore\n%s\n%s", tag, fa, fb)
			}
		}
	}
}

// TestSnapshotRepeatedCheckpoints chains restore-of-a-restore: state
// must survive any number of checkpoint generations, not just one.
func TestSnapshotRepeatedCheckpoints(t *testing.T) {
	p := workload.Ld2
	a := loadSetup(t, p, 4, 0xC0DE).Machine
	b := loadSetup(t, p, 4, 0xC0DE).Machine
	for gen := 0; gen < 5; gen++ {
		a.Run(700)
		s := snapOf(t, a)
		if err := b.Restore(s); err != nil {
			t.Fatalf("generation %d: %v", gen, err)
		}
		requireEqualSnaps(t, fmt.Sprintf("generation %d", gen), s, snapOf(t, b))
	}
}

// TestSnapshotRoundTripBlockEngine proves the round-trip with the
// block-compiled execution engine in play: a restore invalidates any
// attached table (the program-store version advances), and re-attaching
// against the restored store continues cycle-exactly.
func TestSnapshotRoundTripBlockEngine(t *testing.T) {
	attach := func(setup *xval.LoadSetup) {
		opts := analysis.Options{Entries: []uint16{setup.Entries[0]}, Streams: 1}
		for _, d := range setup.Devices {
			opts.BusRanges = append(opts.BusRanges, analysis.BusRange{Base: d.Base, Size: d.Size, Wait: d.Wait})
		}
		blockc.Attach(setup.Machine, setup.Images[0], opts)
	}
	// Ld3 runs from internal memory and fuses essentially every cycle,
	// so the inertness assertion below cannot depend on where the
	// adaptive gate's probe cadence happens to land (Ld1-style loads
	// fuse a fraction of a percent of cycles, making "did a session
	// start within N cycles" a function of pacing constants, not of
	// the restore path under test).
	sa := loadSetup(t, workload.Ld3, 1, 0x0DD5)
	attach(sa)
	a := sa.Machine
	a.Run(3000)
	mid := snapOf(t, a)
	a.Run(2000)
	want := snapOf(t, a)

	sb := loadSetup(t, workload.Ld3, 1, 0x0DD5)
	attach(sb) // deliberately stale: compiled for the pre-restore program version
	b := sb.Machine
	if err := b.Restore(mid); err != nil {
		t.Fatal(err)
	}
	if b.AttachedBlockTable() != nil {
		t.Fatal("restore kept a block table compiled against the pre-restore program store")
	}
	attach(sb) // re-plan against the restored store
	b.Run(2000)
	requireEqualSnaps(t, "block-engine", want, snapOf(t, b))
	if b.BlockStats().Sessions == 0 {
		t.Fatal("restored machine never fused a session; the re-attached engine is inert")
	}
}

const busyBusProgram = `
    .org 0
s0: LI  R1, 0x400
l0: LD  R2, [R1+0]
    ST  R2, [R1+1]
    JMP l0
    .org 0x40
s1: ADDI R0, 1
    STM  R0, [0x20]
    JMP s1
`

// slowBusMachine builds a two-stream machine whose stream 0 spends most
// cycles inside a 9-wait external transaction.
func slowBusMachine(t *testing.T) *core.Machine {
	t.Helper()
	m := core.MustNew(core.Config{Streams: 2})
	if err := m.Bus().Attach(isa.ExternalBase, 32, bus.NewRAM("slow", 32, 9)); err != nil {
		t.Fatal(err)
	}
	im, err := asm.Assemble(busyBusProgram)
	if err != nil {
		t.Fatal(err)
	}
	if err := im.Load(m, nil); err != nil {
		t.Fatal(err)
	}
	if err := m.StartStream(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.StartStream(1, 0x40); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestSnapshotMidBusTransaction checkpoints in the middle of an ABI
// handshake — bus busy, wait-state countdown half elapsed, issuing
// stream parked in BusWait — and proves the restored twin completes the
// very same transaction on the very same cycle.
func TestSnapshotMidBusTransaction(t *testing.T) {
	a := slowBusMachine(t)
	for i := 0; i < 200 && !a.Bus().Busy(); i++ {
		a.Step()
	}
	if !a.Bus().Busy() {
		t.Fatal("bus never went busy; the fixture is wrong")
	}
	a.Step() // wait-state countdown now mid-flight
	if !a.Bus().Busy() {
		t.Fatal("transaction completed too fast for a mid-flight checkpoint")
	}
	mid := snapOf(t, a)

	b := slowBusMachine(t)
	if err := b.Restore(mid); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		a.Step()
		b.Step()
	}
	requireEqualSnaps(t, "mid-transaction", snapOf(t, a), snapOf(t, b))
}

const residueProgram = `
    .org 0
s0: LI   R1, 0x400
    LD   R2, [R1+0]
    ADDI R2, 7
    ST   R2, [R1+1]
    STM  R2, [0x30]
    CALL fn
    JMP  s0
fn: NOP+
    LDI  R0, 5
    RET  1
    .org 0x80
s1: ADDI R3, 1
    STM  R3, [0x31]
    JMP  s1
`

// TestResetMatchesFresh is the Reset residue audit: after a busy run —
// profiling on, breakpoints set, globals written, scheduler rotated,
// stack windows moved — Reset must land on exactly the state of a
// freshly built machine, modulo what Reset documents as preserved
// (program memory, internal data memory, device contents, the bus
// timeout). Snapshot is the canonical state form, so the comparison is
// a snapshot DeepEqual with the documented survivors aligned.
func TestResetMatchesFresh(t *testing.T) {
	build := func() *core.Machine {
		m := core.MustNew(core.Config{Streams: 2, Shares: []int{3, 1}, VectorBase: 0x200, TrapBusFaults: true})
		if err := m.Bus().Attach(isa.ExternalBase, 32, bus.NewRAM("mem", 32, 3)); err != nil {
			t.Fatal(err)
		}
		m.Bus().SetTimeout(40)
		return m
	}
	im, err := asm.Assemble(residueProgram)
	if err != nil {
		t.Fatal(err)
	}
	load := func(m *core.Machine) {
		if err := im.Load(m, nil); err != nil {
			t.Fatal(err)
		}
	}

	a := build()
	load(a)
	a.EnableProfile()
	if err := a.AddBreakpoint(-1, 0x7FF); err != nil { // never reached: residue only
		t.Fatal(err)
	}
	a.SetGlobal(1, 0xBEEF)
	if err := a.StartStream(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := a.StartStream(1, 0x80); err != nil {
		t.Fatal(err)
	}
	a.Run(800)
	a.Reset()

	fresh := build()
	load(fresh)
	sa, sf := snapOf(t, a), snapOf(t, fresh)
	// The documented survivors: data memory contents (internal and in
	// devices). Everything else must be bit-identical to power-on.
	sf.Imem = sa.Imem
	sf.Devices = sa.Devices
	requireEqualSnaps(t, "reset-vs-fresh", sf, sa)
}

// TestRestoreRejectsMismatches: Restore validates and reports instead
// of guessing — wrong stream count, tampered device list, impossible
// stream or pipe encodings all error (and never panic).
func TestRestoreRejectsMismatches(t *testing.T) {
	take := func() *core.Snapshot {
		m := slowBusMachine(t)
		m.Run(150)
		return snapOf(t, m)
	}
	cases := []struct {
		name   string
		mangle func(s *core.Snapshot)
		target func() *core.Machine
	}{
		{"stream count", func(s *core.Snapshot) {}, func() *core.Machine {
			return core.MustNew(core.Config{Streams: 4})
		}},
		{"device missing", func(s *core.Snapshot) { s.Devices = nil }, nil},
		{"device renamed", func(s *core.Snapshot) { s.Devices[0].Name = "imposter" }, nil},
		{"device state presence", func(s *core.Snapshot) { s.Devices[0].HasState = false; s.Devices[0].State = nil }, nil},
		{"stream state code", func(s *core.Snapshot) { s.Streams[0].State = 200 }, nil},
		{"window depth", func(s *core.Snapshot) { s.Streams[1].Win.Regs = s.Streams[1].Win.Regs[:4] }, nil},
		{"pipe slot kind", func(s *core.Snapshot) {
			s.Pipe[0].Valid = true
			s.Pipe[0].Kind = 9
		}, nil},
		{"pipe stream range", func(s *core.Snapshot) {
			s.Pipe[0].Valid = true
			s.Pipe[0].Kind = 0
			s.Pipe[0].Stream = 7
		}, nil},
		{"sched cursor", func(s *core.Snapshot) { s.Sched.Cursor = 1 << 20 }, nil},
		{"sched counters", func(s *core.Snapshot) { s.Sched.OwnIssues = s.Sched.OwnIssues[:1] }, nil},
		{"prog limit", func(s *core.Snapshot) { s.Prog.Limit++ }, nil},
		{"imem size", func(s *core.Snapshot) { s.Imem = s.Imem[:100] }, nil},
	}
	for _, tc := range cases {
		s := take()
		tc.mangle(s)
		var m *core.Machine
		if tc.target != nil {
			m = tc.target()
		} else {
			m = slowBusMachine(t)
		}
		if err := m.Restore(s); err == nil {
			t.Errorf("%s: Restore accepted a mismatched snapshot", tc.name)
		}
	}
}

// TestSnapshotDoesNotPerturb: taking a snapshot must be a pure
// observation — a machine that was snapshotted mid-run continues
// exactly like one that was not.
func TestSnapshotDoesNotPerturb(t *testing.T) {
	a := loadSetup(t, workload.Ld3, 4, 0xFACE).Machine
	b := loadSetup(t, workload.Ld3, 4, 0xFACE).Machine
	for i := 0; i < 40; i++ {
		a.Run(50)
		snapOf(t, a) // observe a only
		b.Run(50)
	}
	requireEqualSnaps(t, "observer-effect", snapOf(t, b), snapOf(t, a))
}
