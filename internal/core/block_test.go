package core

import (
	"bytes"
	"reflect"
	"testing"

	"disc/internal/bus"
	"disc/internal/isa"
	"disc/internal/rng"
)

// Three-way differential proof for the block-compiled engine: a machine
// advancing by fused sessions (stepBlock) must hold bit-identical
// architectural state to BOTH per-cycle pipelines — optimized and
// reference — at every session boundary. Sessions are compared where
// they end, never mid-flight, which is exactly the engine's contract:
// fused execution is unobservable except through the machine going
// faster.

// wholeImageTable compiles every qualifying run in the loaded image —
// the coarsest possible plan, exercising BuildBlockTable's own
// re-qualification rather than the analysis planner's.
func wholeImageTable(m *Machine) *BlockTable {
	limit := m.Program().Limit()
	if limit == 0 {
		return BuildBlockTable(m.Program(), nil)
	}
	return BuildBlockTable(m.Program(), []RegionSpec{{Start: 0, End: uint16(limit - 1)}})
}

// triple builds three identically configured machines: optimized (with
// CheckReadiness armed), reference, and block-engine (optimized plus a
// whole-image block table).
func triple(t *testing.T, cfg Config, setup func(m *Machine)) (fast, ref, blk *Machine) {
	t.Helper()
	fast, ref = pair(t, cfg, setup)
	bcfg := cfg
	bcfg.Reference = false
	blk = MustNew(bcfg)
	setup(blk)
	blk.SetBlockTable(wholeImageTable(blk))
	return fast, ref, blk
}

// lockstep3 advances the block machine by fused sessions and the two
// per-cycle machines by the same number of cycles, comparing full
// snapshots at every session boundary. stim maps cycle numbers to
// stimulus applied identically to all three machines; session budgets
// are capped so no session runs past a stimulus point.
func lockstep3(t *testing.T, fast, ref, blk *Machine, n int, stim map[int]func(m *Machine)) {
	t.Helper()
	for c := 0; c < n; {
		if f, ok := stim[c]; ok {
			f(fast)
			f(ref)
			f(blk)
		}
		next := n
		for d := c + 1; d < n; d++ {
			if _, ok := stim[d]; ok {
				next = d
				break
			}
		}
		adv := blk.stepBlock(next - c)
		for i := 0; i < adv; i++ {
			fast.Step()
			ref.Step()
		}
		c += adv
		fs, rs, bs := snap(fast), snap(ref), snap(blk)
		if !reflect.DeepEqual(fs, rs) {
			t.Fatalf("cycle %d: optimized and reference pipelines diverged\nfast: %+v\nref:  %+v", c, fs, rs)
		}
		if !reflect.DeepEqual(fs, bs) {
			t.Fatalf("cycle %d: block engine diverged from per-cycle execution\nfast:  %+v\nblock: %+v", c, fs, bs)
		}
	}
	fm, bm := fast.Internal().Snapshot(), blk.Internal().Snapshot()
	if !reflect.DeepEqual(fm, bm) {
		t.Fatal("internal data memory diverged between per-cycle and block execution")
	}
}

// TestBlockEquivStraightLine: the bread-and-butter case — a single
// stream in an ALU/internal-memory loop, where almost every cycle
// should fuse. Sessions must actually fire for the test to mean
// anything.
func TestBlockEquivStraightLine(t *testing.T) {
	src := `
		.org 0
	main:
		LDI  R0, 0
		LDI  R1, 1
	loop:
		ADDI R0, 1
		ADD  R2, R0, R1
		XOR  R3, R2, R0
		SHL  R4, R2, R1
		ST   R0, [0x40]
		LD   R5, [0x40]
		SUB  R5, R5, R1
		MUL  R6, R2, R3
		NOT  R7, R6
		JMP  loop
	`
	fast, ref, blk := triple(t, Config{Streams: 1}, func(m *Machine) {
		load(t, m, src)
		if err := m.StartStream(0, 0); err != nil {
			t.Fatal(err)
		}
	})
	lockstep3(t, fast, ref, blk, 3000, nil)
	bs := blk.BlockStats()
	if bs.Sessions == 0 {
		t.Fatal("no fused sessions fired on a straight-line loop")
	}
	if bs.FusedCycles < 1500 {
		t.Fatalf("only %d of 3000 cycles fused on a fusion-friendly loop", bs.FusedCycles)
	}
	if bs.Bails != 0 {
		t.Fatalf("%d bails without any external access", bs.Bails)
	}
}

// TestBlockEquivExternalBail: the loop periodically touches external
// RAM, so sessions must end early on the §3.6.1 wait-state entry with
// exact partial accounting.
func TestBlockEquivExternalBail(t *testing.T) {
	src := `
		.org 0
	main:
		LDHI R7, 0x04
		LDI  R6, 0
	loop:
		ADDI R6, 1
		ADD  R1, R6, R6
		XOR  R2, R1, R6
		SUB  R3, R1, R2
		ST   R6, [R7+2]
		ADDI R1, 3
		AND  R4, R1, R3
		OR   R5, R4, R6
		LD   R0, [R7+2]
		JMP  loop
	`
	fast, ref, blk := triple(t, Config{Streams: 1}, func(m *Machine) {
		if err := m.Bus().Attach(isa.ExternalBase, 64, bus.NewRAM("ext", 64, 3)); err != nil {
			t.Fatal(err)
		}
		load(t, m, src)
		if err := m.StartStream(0, 0); err != nil {
			t.Fatal(err)
		}
	})
	lockstep3(t, fast, ref, blk, 4000, nil)
	bs := blk.BlockStats()
	if bs.Sessions == 0 || bs.Bails == 0 {
		t.Fatalf("expected sessions with bails, got %+v", bs)
	}
	if blk.Stats().BusWaits == 0 {
		t.Fatal("no bus waits recorded")
	}
}

// TestBlockEquivWindowPressure: stack-window adjusts inside fused code,
// driven until the window overflows. The entry headroom check must
// refuse sessions that could fault mid-block; the fault itself (and its
// vectoring) must stay cycle-exact on the fallback path.
func TestBlockEquivWindowPressure(t *testing.T) {
	src := `
		.org 0
	main:
		ADD+ R0, R0, ZR
		ADD+ R0, R0, ZR
		ADD+ R0, R0, ZR
		ADD+ R0, R0, ZR
		ADD+ R0, R0, ZR
		ADD+ R0, R0, ZR
		SUB- R0, R0, ZR
		SUB- R0, R0, ZR
		SUB- R0, R0, ZR
		ADDI R1, 1
		ADD  R2, R1, R0
		XOR  R3, R2, R1
		JMP  main
	`
	fast, ref, blk := triple(t, Config{Streams: 1}, func(m *Machine) {
		load(t, m, src)
		if err := m.StartStream(0, 0); err != nil {
			t.Fatal(err)
		}
	})
	// The net +3 per iteration marches AWP into the guard band and
	// faults; the handler vectors into the program (VectorBase 0) and
	// the chaos that follows must still be bit-identical.
	lockstep3(t, fast, ref, blk, 2500, nil)
	if fast.Stats().StackFaults == 0 {
		t.Fatal("window pressure never faulted; test is vacuous")
	}
}

// TestBlockEquivMultiStream: with several streams runnable the sole-
// ready entry condition fails and sessions must not fire — but the
// block machine must still track the per-cycle pipelines exactly
// through its fallback, including across WAITI/SIGNAL traffic that
// leaves one stream sole-ready for stretches.
func TestBlockEquivMultiStream(t *testing.T) {
	src := `
		.org 0
	main:
		LDI  R0, 0
		LDI  R1, 37
	loop:
		ADDI R0, 1
		ST   R0, [0x20]
		LD   R2, [0x20]
		SUB  R2, R2, R0
		BNE  loop
		JMP  loop
	`
	fast, ref, blk := triple(t, Config{Streams: 4}, func(m *Machine) {
		load(t, m, src)
		for i := 0; i < 4; i++ {
			if err := m.StartStream(i, 0); err != nil {
				t.Fatal(err)
			}
		}
	})
	lockstep3(t, fast, ref, blk, 3000, nil)
}

// TestBlockEquivChaos: random instruction soup over all stream counts
// with IRQ and stall stimulus, whole-image compiled. The table's
// per-instruction re-qualification and the session entry predicate
// carry the full weight here — most of the soup must fall back, and
// whatever fuses must be invisible.
func TestBlockEquivChaos(t *testing.T) {
	src := rng.New(0xB10C)
	for trial := 0; trial < 10; trial++ {
		streams := 1 + src.Intn(isa.NumStreams)
		img := make([]isa.Word, 512)
		for i := range img {
			img[i] = isa.Word(src.Uint64()) & isa.MaxWord
		}
		starts := make([]uint16, streams)
		for i := range starts {
			starts[i] = uint16(src.Intn(512))
		}
		vb := uint16(src.Intn(1 << 16))
		fast, ref, blk := triple(t, Config{Streams: streams, VectorBase: vb}, func(m *Machine) {
			if err := m.Bus().Attach(isa.ExternalBase, 64, bus.NewRAM("ext", 64, 3)); err != nil {
				t.Fatal(err)
			}
			if err := m.LoadProgram(0, img); err != nil {
				t.Fatal(err)
			}
			for i, pc := range starts {
				m.StartStream(i, pc)
			}
		})
		stim := map[int]func(m *Machine){}
		for c := 0; c < 1500; c++ {
			if src.Bool(0.01) {
				is, ib := src.Intn(streams), src.Intn(8)
				stim[c] = func(m *Machine) { m.RaiseIRQ(uint8(is), uint8(ib)) }
			} else if src.Bool(0.002) {
				is, d := src.Intn(streams), 1+src.Intn(20)
				stim[c] = func(m *Machine) { m.StallStream(is, uint64(d)) }
			}
		}
		lockstep3(t, fast, ref, blk, 1500, stim)
	}
}

// TestBlockTableStale: mutating the program store after compilation
// must detach the table at the next session attempt instead of running
// stale compiled slots — and execution must continue per-cycle, still
// equivalent.
func TestBlockTableStale(t *testing.T) {
	src := `
		.org 0
	main:
		ADDI R0, 1
		ADD  R1, R0, R0
		XOR  R2, R1, R0
		SUB  R3, R1, R2
		OR   R4, R3, R0
		JMP  main
	`
	fast, ref, blk := triple(t, Config{Streams: 1}, func(m *Machine) {
		load(t, m, src)
		if err := m.StartStream(0, 0); err != nil {
			t.Fatal(err)
		}
	})
	lockstep3(t, fast, ref, blk, 400, nil)
	if blk.BlockStats().Sessions == 0 {
		t.Fatal("no sessions before the patch")
	}
	// Patch one word (to an equivalent instruction, so the three
	// machines stay comparable) on all machines.
	w := fast.Program().Fetch(1)
	patch := func(m *Machine) { m.Program().Set(1, w) }
	patch(fast)
	patch(ref)
	patch(blk)
	lockstep3(t, fast, ref, blk, 400, nil)
	if blk.BlockStats().Stale != 1 {
		t.Fatalf("stale table not dropped exactly once: %+v", blk.BlockStats())
	}
	if blk.AttachedBlockTable() != nil {
		t.Fatal("stale table still attached")
	}
}

// TestBlockEquivRunHelpers: Run, RunUntilIdle and RunGuarded must give
// the same outcomes through the session path as per-cycle stepping.
func TestBlockEquivRunHelpers(t *testing.T) {
	src := `
		.org 0
	main:
		ADDI R0, 1
		ADD  R1, R0, R0
		XOR  R2, R1, R0
		SUB  R3, R1, R2
		CMP  R3, R0
		HALT
	`
	build := func(table bool) *Machine {
		m := MustNew(Config{Streams: 1})
		load(t, m, src)
		if err := m.StartStream(0, 0); err != nil {
			t.Fatal(err)
		}
		if table {
			m.SetBlockTable(wholeImageTable(m))
		}
		return m
	}

	a, b := build(false), build(true)
	an, aidle := a.RunUntilIdle(500)
	bn, bidle := b.RunUntilIdle(500)
	if an != bn || aidle != bidle {
		t.Fatalf("RunUntilIdle diverged: per-cycle (%d,%v) block (%d,%v)", an, aidle, bn, bidle)
	}
	if !reflect.DeepEqual(snap(a), snap(b)) {
		t.Fatal("state diverged after RunUntilIdle")
	}

	a, b = build(false), build(true)
	an1, aerr := a.RunGuarded(500, 64)
	bn1, berr := b.RunGuarded(500, 64)
	if an1 != bn1 || (aerr == nil) != (berr == nil) {
		t.Fatalf("RunGuarded diverged: per-cycle (%d,%v) block (%d,%v)", an1, aerr, bn1, berr)
	}
	if !reflect.DeepEqual(snap(a), snap(b)) {
		t.Fatal("state diverged after RunGuarded")
	}

	a, b = build(false), build(true)
	a.Run(300)
	b.Run(300)
	if !reflect.DeepEqual(snap(a), snap(b)) {
		t.Fatal("state diverged after Run")
	}
}

// TestBuildBlockTable covers the compiler's region extraction: JMP and
// Bcc compile into regions as fused branches, unfusible instructions
// become carried gaps (unindexed, never issued) when short and split
// the region when a dead stretch exceeds MaxRegionGap, short runs are
// skipped, and the index maps live addresses to their regions.
func TestBuildBlockTable(t *testing.T) {
	// Layout (addresses):
	//   0-3  ALU          (live)
	//   4    JMP over     (fused branch)
	//   5    HALT         (dead gap, carried in-region)
	//   6-8  ALU          (live)
	//   9    BNE main     (fused branch)
	//   10-11 ALU         (live)
	//   12-20 HALT x9     (> MaxRegionGap: splits the region)
	//   21-22 ALU         (short run: skipped)
	//   23   HALT
	src := `
		.org 0
	main:
		ADDI R0, 1
		ADD  R1, R0, R0
		XOR  R2, R1, R0
		SUB  R3, R1, R2
		JMP  over
		HALT
	over:
		OR   R5, R3, R0
		AND  R6, R5, R1
		NOT  R7, R6
		BNE  main
		NEG  R0, R7
		SWP  R1, R2
		HALT
		HALT
		HALT
		HALT
		HALT
		HALT
		HALT
		HALT
		HALT
		ADDI R4, 1
		ADDI R4, 2
		HALT
	`
	m := MustNew(Config{Streams: 1})
	load(t, m, src)
	tab := wholeImageTable(m)
	if tab.Regions != 1 {
		t.Fatalf("expected 1 region, got %d (compiled=%d skipped=%d)", tab.Regions, tab.Compiled, tab.Skipped)
	}
	if tab.Compiled != 11 {
		t.Fatalf("expected 11 compiled instructions, got %d", tab.Compiled)
	}
	if s, e, ok := tab.RegionAt(0); !ok || s != 0 || e != 11 {
		t.Fatalf("region at 0: (%d,%d,%v)", s, e, ok)
	}
	if _, _, ok := tab.RegionAt(4); !ok {
		t.Fatal("JMP did not compile as a fused branch")
	}
	if _, _, ok := tab.RegionAt(9); !ok {
		t.Fatal("Bcc did not compile as a fused branch")
	}
	if _, _, ok := tab.RegionAt(5); ok {
		t.Fatal("dead gap address indexed: a session could enter or chain onto it")
	}
	if _, _, ok := tab.RegionAt(14); ok {
		t.Fatal("over-long dead stretch compiled instead of splitting the region")
	}
	if _, _, ok := tab.RegionAt(21); ok {
		t.Fatal("2-instruction run fused below MinFuseLen")
	}
	if tab.Version() != m.Program().Version() {
		t.Fatal("table version does not match the program store")
	}
}

// TestBlockEquivBranchLoop: nested counting loops whose conditional
// branches resolve both ways inside one compiled region. Fused
// branches must replay the §3.3 shadow (two idle cycles, continuation
// at +3) bit-exactly, including the not-taken fall-through and the
// final exit to HALT, which sits in the region as a dead gap.
func TestBlockEquivBranchLoop(t *testing.T) {
	src := `
		.org 0
	main:
		LDI  R0, 0
		LDI  R1, 25
	outer:
		LDI  R2, 5
	inner:
		ADDI R0, 1
		SUBI R2, 1
		BNE  inner
		ADD  R3, R0, R1
		XOR  R4, R3, R0
		SUBI R1, 1
		BNE  outer
		HALT
	`
	fast, ref, blk := triple(t, Config{Streams: 1}, func(m *Machine) {
		load(t, m, src)
		if err := m.StartStream(0, 0); err != nil {
			t.Fatal(err)
		}
	})
	lockstep3(t, fast, ref, blk, 2000, nil)
	bs := blk.BlockStats()
	if bs.BranchFuses == 0 {
		t.Fatal("no fused branches resolved in a branch-dense loop")
	}
	if bs.BranchSessions == 0 && bs.ChainSessions == 0 {
		t.Fatal("every session was straight-line despite in-region branches")
	}
	if bs.Bails != 0 {
		t.Fatalf("%d bails without any external access", bs.Bails)
	}
}

// TestBlockEquivChainedRegions: two compiled regions, each ending in a
// JMP to the other, separated by a dead stretch too long to carry as a
// gap. Sessions must chain across the region boundary — continuing in
// the new region without returning to the interpreter — after
// re-proving quiescence and the new region's stack-window headroom.
func TestBlockEquivChainedRegions(t *testing.T) {
	src := `
		.org 0
	a:
		ADDI R0, 1
		ADD  R2, R0, R0
		XOR  R3, R2, R0
		SUB  R4, R2, R3
		JMP  b
		HALT
		HALT
		HALT
		HALT
		HALT
		HALT
		HALT
		HALT
		HALT
	b:
		OR   R5, R4, R0
		AND  R6, R5, R2
		NOT  R7, R6
		ADDI R1, 3
		JMP  a
	`
	fast, ref, blk := triple(t, Config{Streams: 1}, func(m *Machine) {
		load(t, m, src)
		if err := m.StartStream(0, 0); err != nil {
			t.Fatal(err)
		}
	})
	if blk.AttachedBlockTable().Regions != 2 {
		t.Fatalf("expected 2 regions, got %d", blk.AttachedBlockTable().Regions)
	}
	lockstep3(t, fast, ref, blk, 3000, nil)
	bs := blk.BlockStats()
	if bs.Chains == 0 || bs.ChainSessions == 0 {
		t.Fatalf("no cross-region chains on a two-region ping-pong: %+v", bs)
	}
}

// TestBlockGateDemotePromote: the adaptive gate must demote a region
// whose sessions chronically bail (phase 1: every loop iteration hits
// external RAM) and re-promote it on a probe after the workload turns
// fusion-friendly (phase 2: the same loop against internal memory) —
// all while staying bit-identical to per-cycle execution.
func TestBlockGateDemotePromote(t *testing.T) {
	src := `
		.org 0
	main:
		LDHI R7, 0x04
		LDI  R6, 80
	phase1:
		LD   R1, [R7+0]
		LD   R2, [R7+1]
		SUBI R6, 1
		BNE  phase1
		LDI  R7, 0x40
	phase2:
		ADDI R0, 1
		ADD  R2, R0, R0
		LD   R1, [R7+0]
		XOR  R3, R2, R1
		JMP  phase2
	`
	fast, ref, blk := triple(t, Config{Streams: 1}, func(m *Machine) {
		if err := m.Bus().Attach(isa.ExternalBase, 64, bus.NewRAM("ext", 64, 3)); err != nil {
			t.Fatal(err)
		}
		load(t, m, src)
		if err := m.StartStream(0, 0); err != nil {
			t.Fatal(err)
		}
	})
	lockstep3(t, fast, ref, blk, 6000, nil)
	bs := blk.BlockStats()
	if bs.Demotes == 0 {
		t.Fatalf("chronically bailing region never demoted: %+v", bs)
	}
	if bs.Promotes == 0 {
		t.Fatalf("region never re-promoted after the phase change: %+v", bs)
	}
}

// TestBlockGateOff: with the gate disabled every qualifying dispatch
// attempts a session regardless of history — still bit-identical, and
// with no demotions recorded.
func TestBlockGateOff(t *testing.T) {
	src := `
		.org 0
	main:
		LDHI R7, 0x04
	loop:
		ADDI R0, 1
		ADD  R2, R0, R0
		LD   R1, [R7+0]
		XOR  R3, R2, R1
		SUBI R6, 1
		JMP  loop
	`
	fast, ref, blk := triple(t, Config{Streams: 1}, func(m *Machine) {
		if err := m.Bus().Attach(isa.ExternalBase, 64, bus.NewRAM("ext", 64, 3)); err != nil {
			t.Fatal(err)
		}
		load(t, m, src)
		if err := m.StartStream(0, 0); err != nil {
			t.Fatal(err)
		}
	})
	blk.SetBlockGate(false)
	lockstep3(t, fast, ref, blk, 3000, nil)
	bs := blk.BlockStats()
	if bs.Demotes != 0 {
		t.Fatalf("gate disabled but %d demotions recorded", bs.Demotes)
	}
	if bs.Sessions == 0 || bs.Bails == 0 {
		t.Fatalf("expected ungated bailing sessions, got %+v", bs)
	}
}

// clockedRAM is a quiet ticker whose access outcomes depend on its own
// cycle counter: reads at an odd clock parity return the stored value
// XORed with the low clock bits, and the wait count alternates with a
// coarse clock phase. It keeps no activity while the bus is idle
// (Quiet is always true) but its clock MUST stay in lockstep with the
// machine — the CatchUp watermark contract — or results diverge.
type clockedRAM struct {
	cells [64]uint16
	clock uint64
	ticks uint64 // total Tick+CatchUp cycles observed (serialized check)
}

func (d *clockedRAM) Name() string { return "clocked" }
func (d *clockedRAM) AccessCycles(offset uint16, write bool) int {
	return 2 + int((d.clock>>6)&3)
}
func (d *clockedRAM) Read(offset uint16) uint16 {
	return d.cells[offset%64] ^ uint16(d.clock&7)
}
func (d *clockedRAM) Write(offset uint16, v uint16) { d.cells[offset%64] = v }
func (d *clockedRAM) Tick()                         { d.clock++; d.ticks++ }
func (d *clockedRAM) Quiet() bool                   { return true }
func (d *clockedRAM) CatchUp(n uint64)              { d.clock += n; d.ticks += n }

// TestBlockEquivClockedTicker: a quiet ticker whose access results
// depend on its clock. Sessions open over it (Quiet), so the engine
// elides its per-cycle ticks — the CatchUp watermark must replay them
// exactly before any bus access and at session end, or the next access
// reads a skewed clock and architectural state diverges.
func TestBlockEquivClockedTicker(t *testing.T) {
	src := `
		.org 0
	main:
		LDHI R7, 0x04
	loop:
		ADDI R0, 1
		ADD  R2, R0, R0
		XOR  R3, R2, R0
		SUB  R4, R2, R3
		ST   R0, [R7+1]
		OR   R5, R4, R0
		AND  R6, R5, R2
		LD   R1, [R7+1]
		JMP  loop
	`
	devs := map[*Machine]*clockedRAM{}
	fast, ref, blk := triple(t, Config{Streams: 1}, func(m *Machine) {
		d := &clockedRAM{}
		devs[m] = d
		if err := m.Bus().Attach(isa.ExternalBase, 64, d); err != nil {
			t.Fatal(err)
		}
		load(t, m, src)
		if err := m.StartStream(0, 0); err != nil {
			t.Fatal(err)
		}
	})
	lockstep3(t, fast, ref, blk, 6000, nil)
	if blk.BlockStats().Sessions == 0 {
		t.Fatal("no sessions opened over a quiet clocked ticker")
	}
	if devs[fast].ticks != devs[blk].ticks || devs[fast].clock != devs[blk].clock {
		t.Fatalf("device clock drifted: fast ticks=%d clock=%d, block ticks=%d clock=%d",
			devs[fast].ticks, devs[fast].clock, devs[blk].ticks, devs[blk].clock)
	}
	if !bytes.Equal(u16s(devs[fast].cells[:]), u16s(devs[blk].cells[:])) {
		t.Fatal("device memory diverged between per-cycle and block execution")
	}
}

// u16s flattens a uint16 slice for byte comparison.
func u16s(v []uint16) []byte {
	out := make([]byte, 0, len(v)*2)
	for _, x := range v {
		out = append(out, byte(x), byte(x>>8))
	}
	return out
}

// TestBlockEquivQuiescentTicker: a machine with time-keeping devices
// attached fuses only while every ticker is provably inert
// (bus.Quieter). The program arms the timer, takes its interrupt, and
// returns to straight-line code; sessions must pause while the timer
// counts and resume after it comes to rest — bit-identically.
func TestBlockEquivQuiescentTicker(t *testing.T) {
	// Vector base 0x0100; IRQ bit 4 on stream 0 vectors to 0x0100+4=0x0104.
	src := `
		.org 0
	main:
		LDHI R7, 0xF0
		LDI  R1, 40
		ST   R1, [R7+0]
		LDI  R1, 3
		ST   R1, [R7+2]
	loop:
		ADDI R0, 1
		ADD  R2, R0, R0
		XOR  R3, R2, R0
		SUB  R4, R2, R3
		OR   R5, R4, R0
		AND  R6, R5, R2
		JMP  loop

		.org 0x0104
		ADDI R6, 1
		RETI
	`
	fast, ref, blk := triple(t, Config{Streams: 1, VectorBase: 0x0100}, func(m *Machine) {
		if err := m.Bus().Attach(isa.IOBase, 4, bus.NewTimer("timer0", 2, m.RaiseIRQ, 0, 4)); err != nil {
			t.Fatal(err)
		}
		load(t, m, src)
		if err := m.StartStream(0, 0); err != nil {
			t.Fatal(err)
		}
	})
	lockstep3(t, fast, ref, blk, 4000, nil)
	bs := blk.BlockStats()
	if bs.Sessions == 0 {
		t.Fatal("no sessions fused after the timer came to rest")
	}
	if fast.Stats().PerStream[0].Dispatches == 0 {
		t.Fatal("timer interrupt never dispatched; test is vacuous")
	}
}

// TestBlockEquivStreamStart: a stream-start inside an otherwise fusible
// run. SSTART makes a second stream ready at its EX cycle, so the
// per-cycle machine interleaves from then on; a session must never
// execute it (it breaks the region) or the block machine would keep
// issuing the sole stream back-to-back and diverge.
func TestBlockEquivStreamStart(t *testing.T) {
	src := `
		.org 0
	main:
		LDI  R0, worker
		ADDI R1, 1
		ADDI R2, 2
		ADDI R3, 3
		ADDI R4, 4
		SSTART 1, R0
		ADDI R1, 1
		ADDI R2, 2
		ADDI R3, 3
		ADDI R4, 4
		ADDI R5, 5
		ADDI R6, 6
		HALT
	worker:
		ADDI R0, 1
		ADDI R1, 1
		ADDI R2, 1
		ADDI R3, 1
		HALT
	`
	fast, ref, blk := triple(t, Config{Streams: 2}, func(m *Machine) {
		load(t, m, src)
		if err := m.StartStream(0, 0); err != nil {
			t.Fatal(err)
		}
	})
	lockstep3(t, fast, ref, blk, 200, nil)
	if blk.BlockStats().Sessions == 0 {
		t.Fatal("no fused session ran ahead of the stream start")
	}
}
