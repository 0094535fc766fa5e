package core

import (
	"testing"

	"disc/internal/asm"
	"disc/internal/bus"
	"disc/internal/isa"
	"disc/internal/rng"
)

// packWords assembles src (single .org 0 section) and packs its words
// into the fuzzer's 3-bytes-per-word seed format.
func packWords(f *testing.F, src string) []byte {
	f.Helper()
	im, err := asm.Assemble(src)
	if err != nil {
		f.Fatalf("seed assemble: %v", err)
	}
	var out []byte
	for _, w := range im.Sections[0].Words {
		out = append(out, byte(w>>16), byte(w>>8), byte(w))
	}
	return out
}

// TestRandomProgramsNeverPanic is the machine's robustness contract:
// arbitrary 24-bit words — most of them decodable into wild but legal
// instructions, some illegal — must never panic the simulator, wedge
// the scheduler, or corrupt the statistics invariants, on any stream
// count, with all four streams pointed into the noise.
func TestRandomProgramsNeverPanic(t *testing.T) {
	src := rng.New(0xF00D)
	for trial := 0; trial < 60; trial++ {
		streams := 1 + src.Intn(isa.NumStreams)
		m := MustNew(Config{Streams: streams, VectorBase: uint16(src.Intn(1 << 16))})
		// Attach a device region so random external accesses hit both
		// mapped and unmapped space.
		ram := bus.NewRAM("ext", 64, 1+src.Intn(8))
		if err := m.Bus().Attach(isa.ExternalBase, 64, ram); err != nil {
			t.Fatal(err)
		}
		img := make([]isa.Word, 512)
		for i := range img {
			img[i] = isa.Word(src.Uint64()) & isa.MaxWord
		}
		if err := m.LoadProgram(0, img); err != nil {
			t.Fatal(err)
		}
		for s := 0; s < streams; s++ {
			m.StartStream(s, uint16(src.Intn(512)))
		}
		// Random asynchronous interrupt traffic on top.
		for c := 0; c < 2000; c++ {
			if src.Bool(0.01) {
				m.RaiseIRQ(uint8(src.Intn(streams)), uint8(src.Intn(8)))
			}
			m.Step()
		}
		st := m.Stats()
		if st.Retired > st.Issued {
			t.Fatalf("trial %d: retired %d > issued %d", trial, st.Retired, st.Issued)
		}
		if st.Cycles != 2000 {
			t.Fatalf("trial %d: cycle count drifted: %d", trial, st.Cycles)
		}
		var perStream uint64
		for _, ss := range st.PerStream {
			perStream += ss.Retired
		}
		if perStream != st.Retired {
			t.Fatalf("trial %d: per-stream retired %d != total %d", trial, perStream, st.Retired)
		}
	}
}

// TestBusStorm: every stream hammers a slow device through the single
// ABI. The machine must neither deadlock nor lose accesses — each
// stream's loop counter must keep advancing.
func TestBusStorm(t *testing.T) {
	m := MustNew(Config{Streams: 4})
	ram := bus.NewRAM("slow", 16, 25)
	if err := m.Bus().Attach(isa.ExternalBase, 16, ram); err != nil {
		t.Fatal(err)
	}
	load(t, m, `
.org 0x000
a:  LI  R1, 0x400
    LD  R0, [R1+0]
    ADDI R2, 1
    STM R2, [0x10]
    JMP a
.org 0x100
b:  LI  R1, 0x400
    LD  R0, [R1+1]
    ADDI R2, 1
    STM R2, [0x11]
    JMP b
.org 0x200
c:  LI  R1, 0x400
    LD  R0, [R1+2]
    ADDI R2, 1
    STM R2, [0x12]
    JMP c
.org 0x300
d:  LI  R1, 0x400
    LD  R0, [R1+3]
    ADDI R2, 1
    STM R2, [0x13]
    JMP d
`)
	for i, base := range []uint16{0, 0x100, 0x200, 0x300} {
		m.StartStream(i, base)
	}
	m.Run(30000)
	st := m.Stats()
	if st.BusRetries == 0 {
		t.Fatal("storm produced no contention")
	}
	for i := 0; i < 4; i++ {
		if n := m.Internal().Read(uint16(0x10 + i)); n < 50 {
			t.Fatalf("stream %d starved under bus storm: %d iterations", i, n)
		}
	}
	// Rough fairness: no stream gets more than 3x another.
	lo, hi := uint16(65535), uint16(0)
	for i := 0; i < 4; i++ {
		n := m.Internal().Read(uint16(0x10 + i))
		if n < lo {
			lo = n
		}
		if n > hi {
			hi = n
		}
	}
	if hi > 3*lo {
		t.Fatalf("unfair bus service: min %d max %d", lo, hi)
	}
}

// TestInterruptStorm: continuous high-rate interrupts on every stream
// must not wedge the machine, and each handler execution must be
// accounted.
func TestInterruptStorm(t *testing.T) {
	m := MustNew(Config{Streams: 2, VectorBase: 0x200})
	load(t, m, `
.org 0
bg: ADDI R0, 1
    JMP bg
.org 0x203
    JMP h0
.org 0x20B
    JMP h1
.org 0x300
h0: LDM  R3, [0x20]
    ADDI R3, 1
    STM  R3, [0x20]
    RETI
.org 0x320
h1: LDM  R3, [0x21]
    ADDI R3, 1
    STM  R3, [0x21]
    RETI
`)
	m.StartStream(0, 0)
	src := rng.New(42)
	raised := [2]int{}
	for c := 0; c < 20000; c++ {
		if src.Bool(0.02) {
			s := src.Intn(2)
			// Only raise when the previous event has been consumed, so
			// every raise corresponds to one handler execution.
			if !m.Interrupts(s).Test(3) && m.Interrupts(s).Level() != 3 {
				m.RaiseIRQ(uint8(s), 3)
				raised[s]++
			}
		}
		m.Step()
	}
	m.Run(500) // drain
	for s := 0; s < 2; s++ {
		got := int(m.Internal().Read(uint16(0x20 + s)))
		if got != raised[s] {
			t.Fatalf("stream %d: %d handler runs for %d raises", s, got, raised[s])
		}
	}
}

// TestSchedulerStarvationGuard: a stream holding 15/16 slots must not
// starve the 1/16 stream, and the minority stream's throughput must be
// close to its share.
func TestSchedulerStarvationGuard(t *testing.T) {
	slots := make([]int, 16)
	slots[15] = 1
	m := MustNew(Config{Streams: 2, Slots: slots})
	// Long straight-line loops keep branch shadows rare, so the static
	// partition dominates; the minority stream additionally absorbs the
	// majority stream's shadow slots (dynamic reallocation), so its
	// measured share sits a little above 1/16 — but it must never
	// starve, and must never seize a large fraction.
	body := ""
	for i := 0; i < 30; i++ {
		body += "    ADDI R0, 1\n"
	}
	load(t, m, ".org 0\na:\n"+body+"    JMP a\n.org 0x100\nb:\n"+body+"    JMP b\n")
	m.StartStream(0, 0)
	m.StartStream(1, 0x100)
	m.Run(32000)
	st := m.Stats()
	share := float64(st.PerStream[1].Retired) / float64(st.Retired)
	if share < 0.05 || share > 0.16 {
		t.Fatalf("minority share %.3f, want near 1/16 plus shadow slack", share)
	}
	if st.PerStream[1].Retired == 0 {
		t.Fatal("minority stream starved")
	}
}

// TestWindowWraparoundUnderDeepGrowth: pushing far past the physical
// depth without a spill handler corrupts *values* (documented) but
// must never corrupt the *machine* — AWP bookkeeping stays exact.
func TestWindowWraparoundUnderDeepGrowth(t *testing.T) {
	m := MustNew(Config{Streams: 1, WindowDepth: 16})
	load(t, m, `
    SETMR 0xBF        ; mask the stack-fault bit: no handler installed
    LDI G0, 100       ; counter in a global: immune to window motion
g:  NOP+
    SUBI G0, 1
    BNE g
    MFS R1, AWP
    STM R1, [0]
    HALT
`)
	m.StartStream(0, 0)
	if _, idle := m.RunUntilIdle(5000); !idle {
		t.Fatal("did not reach idle")
	}
	if m.Stats().StackFaults == 0 {
		t.Fatal("deep growth without handler raised no faults")
	}
	// AWP bookkeeping is exact: initial 7 + 100 increments.
	if got := m.Internal().Read(0); got != 107 {
		t.Fatalf("AWP after 100 NOP+ = %d, want 107", got)
	}
}

// TestSoakMixedWorkload runs a long mixed workload — compute, bus
// traffic, interrupts, calls — and checks global invariants at the
// end. It is the closest thing to letting the controller run all day.
func TestSoakMixedWorkload(t *testing.T) {
	m := MustNew(Config{Streams: 4, VectorBase: 0x200})
	ram := bus.NewRAM("ext", 256, 6)
	if err := m.Bus().Attach(isa.ExternalBase, 256, ram); err != nil {
		t.Fatal(err)
	}
	tm := bus.NewTimer("tick", 2, m.RaiseIRQ, 3, 5)
	if err := m.Bus().Attach(isa.IOBase, 4, tm); err != nil {
		t.Fatal(err)
	}
	load(t, m, `
.org 0                  ; stream 0: compute with calls
c0: LDI  G0, 9
    CALL square
    JMP  c0
square:
    NOP+
    MUL  R0, G0, G0
    MOV  G1, R0
    RET  1
.org 0x080              ; stream 1: external traffic
c1: LI   R1, 0x400
    LD   R0, [R1+4]
    ADDI R0, 1
    ST   R0, [R1+4]
    JMP  c1
.org 0x100              ; stream 2: internal memory churn
c2: LDM  R0, [0x50]
    ADDI R0, 1
    STM  R0, [0x50]
    JMP  c2
.org 0x180              ; stream 3: arm timer, then park for interrupts
    LI   R1, 0xF000
    LI   R0, 500
    ST   R0, [R1+0]
    ST   R0, [R1+1]
    LDI  R0, 3
    ST   R0, [R1+2]
    HALT
.org 0x21D              ; stream 3, bit 5
    JMP  h
.org 0x280
h:  LDM  R3, [0x51]
    ADDI R3, 1
    STM  R3, [0x51]
    RETI
`)
	for i, base := range []uint16{0, 0x080, 0x100, 0x180} {
		m.StartStream(i, base)
	}
	const horizon = 500000
	m.Run(horizon)
	st := m.Stats()
	if st.Cycles != horizon {
		t.Fatalf("cycle drift: %d", st.Cycles)
	}
	if st.Utilization() < 0.5 {
		t.Fatalf("soak utilization %.3f", st.Utilization())
	}
	// Interrupt handler count must track timer expirations exactly.
	if got, want := uint64(m.Internal().Read(0x51)), tm.Expirations; got != want && got != want-1 {
		t.Fatalf("handler ran %d times for %d expirations", got, want)
	}
	if m.Internal().Read(0x50) == 0 || ram.Peek(4) == 0 {
		t.Fatal("a stream starved during the soak")
	}
	if st.IllegalInstr != 0 || st.StackFaults != 0 || st.BusFaults != 0 {
		t.Fatalf("unexpected faults: %+v", st)
	}
	// Accounting: per-stream retires sum to the total.
	var sum uint64
	for _, ss := range st.PerStream {
		sum += ss.Retired
	}
	if sum != st.Retired {
		t.Fatalf("per-stream accounting broken")
	}
}

// FuzzStepEquiv feeds arbitrary byte soup — packed into 24-bit
// instruction words — through the optimized, reference and
// block-compiled pipelines in lockstep and requires bit-identical
// architectural state at every comparison point. This is the
// open-ended version of TestEquivRandomChaos and TestBlockEquivChaos:
// the fuzzer owns the program image, the stream count, the start PCs
// and the interrupt traffic; the incremental ready mask additionally
// self-checks against a fresh recompute (CheckReadiness) on the fast
// side, and the block machine compiles the whole image so the fuzzer
// also owns what the op compiler and session entry predicate see.
func FuzzStepEquiv(f *testing.F) {
	f.Add(uint64(1), uint8(1), []byte{0, 0, 0, 1, 2, 3})
	f.Add(uint64(0xD15C), uint8(4), []byte("\x00\x01\x02\x03\x04\x05\x06\x07\x08"))
	f.Add(uint64(7), uint8(2), []byte{0xFF, 0xFF, 0xFF, 0x12, 0x34, 0x56})
	// Branch-dense seeds: real control-flow soup so the corpus starts
	// with in-region Bcc/JMP chains, cross-region jumps, and a counted
	// loop — the shapes the branch-fusing compiler and cross-session
	// chainer must replay exactly.
	f.Add(uint64(0xB5A2), uint8(2), packWords(f, `
		.org 0
	a:	ADDI R0, 1
		SUBI R1, 1
		BNE  a
		ADDI R2, 3
		JMP  c
	b:	XOR  R3, R0, R2
		BEQ  a
		JMP  b
	c:	ADD  R4, R0, R0
		BCC  b
		HALT
	`))
	f.Add(uint64(0x1E4F), uint8(3), packWords(f, `
		.org 0
	spin:	LDI  R5, 6
	in:	ADDI R6, 1
		SUBI R5, 1
		BNE  in
		BAL  spin
	`))
	// Bus-bound seed: one stream looping over the slow device, so the
	// block machine's dispatches jump idle bus waits (skipIdleGap)
	// between the fused stretches. SETMR keeps the random IRQ traffic
	// pending instead of vectoring the stream off into the void.
	f.Add(uint64(0x51EE), uint8(0), packWords(f, `
		.org 0
	top:	SETMR 0x01
		LI   R1, 0x420
		LD   R0, [R1+0]
		ADDI R2, 1
		ST   R2, [R1+1]
		ADDI R3, 2
		JMP  top
	`))
	f.Fuzz(func(t *testing.T, seed uint64, nstreams uint8, data []byte) {
		if len(data) < 3 {
			return
		}
		streams := 1 + int(nstreams)%isa.NumStreams
		n := len(data) / 3
		if n > 512 {
			n = 512
		}
		img := make([]isa.Word, n)
		for i := range img {
			img[i] = (isa.Word(data[3*i])<<16 | isa.Word(data[3*i+1])<<8 | isa.Word(data[3*i+2])) & isa.MaxWord
		}
		src := rng.New(seed)
		starts := make([]uint16, streams)
		for i := range starts {
			starts[i] = uint16(src.Intn(n))
		}
		vb := uint16(src.Intn(1 << 16))
		fast, ref, blk := triple(t, Config{Streams: streams, VectorBase: vb}, func(m *Machine) {
			if err := m.Bus().Attach(isa.ExternalBase, 32, bus.NewRAM("ext", 32, 2)); err != nil {
				t.Fatal(err)
			}
			// A slow device: its waits outlast the pipe drain, so bus-
			// bound programs leave idle gaps for the dispatch rule to jump.
			if err := m.Bus().Attach(isa.ExternalBase+32, 32, bus.NewRAM("slow", 32, 12)); err != nil {
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
		for c := 0; c < 400; c++ {
			if src.Bool(0.02) {
				is, ib := uint8(src.Intn(streams)), uint8(src.Intn(8))
				stim[c] = func(m *Machine) { m.RaiseIRQ(is, ib) }
			}
		}
		lockstep3(t, fast, ref, blk, 400, stim)
	})
}
