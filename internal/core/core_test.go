package core

import (
	"testing"

	"disc/internal/asm"
	"disc/internal/bus"
	"disc/internal/isa"
)

// load assembles src and loads every section into m's program memory.
func load(t *testing.T, m *Machine, src string) *asm.Image {
	t.Helper()
	im, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	if err := im.Load(m, nil); err != nil {
		t.Fatal(err)
	}
	return im
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Streams: 0}); err == nil {
		t.Fatal("0 streams accepted")
	}
	if _, err := New(Config{Streams: 5}); err == nil {
		t.Fatal("5 streams accepted")
	}
	if _, err := New(Config{Streams: 2, Shares: []int{1, 1, 1}}); err == nil {
		t.Fatal("share/stream mismatch accepted")
	}
	if _, err := New(Config{Streams: 2, WindowDepth: 4}); err == nil {
		t.Fatal("tiny window accepted")
	}
}

func TestStraightLineArithmetic(t *testing.T) {
	m := MustNew(Config{Streams: 1})
	load(t, m, `
    LDI R0, 6
    LDI R1, 7
    MUL R2, R0, R1
    ST  R2, [0x20]
    MFS R3, H
    ST  R3, [0x21]
    HALT
`)
	m.StartStream(0, 0)
	if _, idle := m.RunUntilIdle(200); !idle {
		t.Fatal("did not reach idle")
	}
	if got := m.Internal().Read(0x20); got != 42 {
		t.Fatalf("6*7 = %d", got)
	}
	if got := m.Internal().Read(0x21); got != 0 {
		t.Fatalf("high half = %d", got)
	}
}

func TestMulHighHalf(t *testing.T) {
	m := MustNew(Config{Streams: 1})
	load(t, m, `
    LI  R0, 0x1234
    LI  R1, 0x5678
    MUL R2, R0, R1
    ST  R2, [0]
    MFS R3, H
    ST  R3, [1]
    HALT
`)
	m.StartStream(0, 0)
	m.RunUntilIdle(200)
	p := uint32(0x1234) * uint32(0x5678)
	if got := m.Internal().Read(0); got != uint16(p) {
		t.Fatalf("low = %#x, want %#x", got, uint16(p))
	}
	if got := m.Internal().Read(1); got != uint16(p>>16) {
		t.Fatalf("high = %#x, want %#x", got, uint16(p>>16))
	}
}

func TestConditionalBranchLoop(t *testing.T) {
	m := MustNew(Config{Streams: 1})
	load(t, m, `
    LDI R0, 0      ; sum
    LDI R1, 10     ; counter
loop:
    ADD R0, R0, R1
    SUBI R1, 1
    BNE loop
    ST  R0, [0x10]
    HALT
`)
	m.StartStream(0, 0)
	if _, idle := m.RunUntilIdle(2000); !idle {
		t.Fatal("did not reach idle")
	}
	if got := m.Internal().Read(0x10); got != 55 {
		t.Fatalf("sum 10..1 = %d, want 55", got)
	}
}

func TestSignedConditions(t *testing.T) {
	m := MustNew(Config{Streams: 1})
	load(t, m, `
    LDI R0, -3
    LDI R1, 2
    CMP R0, R1
    BLT less
    LDI R2, 0
    JMP done
less:
    LDI R2, 1
done:
    ST R2, [0]
    HALT
`)
	m.StartStream(0, 0)
	m.RunUntilIdle(200)
	if m.Internal().Read(0) != 1 {
		t.Fatal("-3 < 2 not taken by BLT")
	}
}

// TestCallReturn runs the §3.5 protocol end to end on the machine,
// including a callee with AWP-embedded local allocation.
func TestCallReturn(t *testing.T) {
	m := MustNew(Config{Streams: 1})
	load(t, m, `
    LDI  R0, 21
    MOV  G0, R0
    CALL double     ; result in G1
    ST   R0, [0]    ; caller frame intact?
    MOV  R3, G1
    ST   R3, [1]
    HALT

double:             ; R0 = return address (pushed by CALL)
    NOP+            ; allocate one local; retaddr is now R1
    MOV  R0, G0
    ADD  R0, R0, G0
    MOV  G1, R0
    RET  1          ; pop 1 local, then the return cell
`)
	m.StartStream(0, 0)
	if _, idle := m.RunUntilIdle(500); !idle {
		t.Fatal("did not reach idle")
	}
	if got := m.Internal().Read(0); got != 21 {
		t.Fatalf("caller R0 = %d after return, want 21", got)
	}
	if got := m.Internal().Read(1); got != 42 {
		t.Fatalf("double(21) = %d", got)
	}
}

func TestNestedCalls(t *testing.T) {
	m := MustNew(Config{Streams: 1})
	load(t, m, `
    LDI  G0, 5
    CALL f
    MOV  R1, G0
    ST   R1, [0]
    HALT
f:  CALL g
    ADDI G0, 1      ; after g: G0 = 5*2+1
    RET  0
g:  ADD  G0, G0, G0
    RET  0
`)
	m.StartStream(0, 0)
	m.RunUntilIdle(500)
	if got := m.Internal().Read(0); got != 11 {
		t.Fatalf("f(g(5)) = %d, want 11", got)
	}
}

// TestInterleavingEliminatesHazards is the paper's central pipeline
// claim (§3.3, Figure 3.1): with as many active streams as pipe stages,
// utilization approaches 1 even for branchy code, while a single stream
// on the same code loses slots to branch shadows.
func TestInterleavingEliminatesHazards(t *testing.T) {
	prog := `
loop:
    ADDI R0, 1
    ADDI R1, 1
    JMP loop
`
	// Single stream.
	m1 := MustNew(Config{Streams: 1})
	load(t, m1, prog)
	m1.StartStream(0, 0)
	m1.Run(3000)
	pd1 := m1.Stats().Utilization()

	// Four streams on private copies of the same loop.
	m4 := MustNew(Config{Streams: 4})
	load(t, m4, `
.org 0x000
a: ADDI R0, 1
   ADDI R1, 1
   JMP a
.org 0x100
b: ADDI R0, 1
   ADDI R1, 1
   JMP b
.org 0x200
c: ADDI R0, 1
   ADDI R1, 1
   JMP c
.org 0x300
d: ADDI R0, 1
   ADDI R1, 1
   JMP d
`)
	for i, base := range []uint16{0x000, 0x100, 0x200, 0x300} {
		m4.StartStream(i, base)
	}
	m4.Run(3000)
	pd4 := m4.Stats().Utilization()

	if pd1 > 0.70 {
		t.Fatalf("single-stream PD = %.3f; expected branch shadows to hurt", pd1)
	}
	if pd4 < 0.95 {
		t.Fatalf("4-stream PD = %.3f; interleaving should hide hazards", pd4)
	}
	if pd4 <= pd1 {
		t.Fatalf("PD4 %.3f <= PD1 %.3f", pd4, pd1)
	}
}

// TestBusWaitOverlap is §3.6.1: a stream blocked on a slow external
// access must not stop the other streams.
func TestBusWaitOverlap(t *testing.T) {
	m := MustNew(Config{Streams: 2})
	ram := bus.NewRAM("ext", 256, 20)
	ram.Poke(0, 0x7777)
	if err := m.Bus().Attach(isa.ExternalBase, 256, ram); err != nil {
		t.Fatal(err)
	}
	load(t, m, `
.org 0
    LI  R1, 0x400
    LD  R0, [R1]    ; 20-cycle external read
    ST  R0, [0x30]  ; copy to internal memory
    HALT
.org 0x100
spin:
    ADDI R0, 1
    ADDI R0, 1
    ADDI R0, 1
    ADDI R0, 1
    JMP spin
`)
	m.StartStream(0, 0)
	m.StartStream(1, 0x100)
	m.RunUntilIdle(100) // stream 1 never halts; run a fixed window instead
	m.Run(200)
	if got := m.Internal().Read(0x30); got != 0x7777 {
		t.Fatalf("external load produced %#x", got)
	}
	st := m.Stats()
	if st.PerStream[1].Retired < 150 {
		t.Fatalf("stream 1 retired only %d during stream 0's wait", st.PerStream[1].Retired)
	}
	if st.PerStream[0].BusWaits != 1 {
		t.Fatalf("stream 0 bus waits = %d", st.PerStream[0].BusWaits)
	}
}

// TestBusBusyRetry: two streams race to the bus; the loser is flushed,
// waits, and retries after the winner's completion (§4.1).
func TestBusBusyRetry(t *testing.T) {
	m := MustNew(Config{Streams: 2})
	ram := bus.NewRAM("ext", 256, 12)
	ram.Poke(1, 0xAAAA)
	ram.Poke(2, 0xBBBB)
	m.Bus().Attach(isa.ExternalBase, 256, ram)
	load(t, m, `
.org 0
    LI  R1, 0x401
    LD  R0, [R1]
    ST  R0, [0x40]
    HALT
.org 0x100
    LI  R1, 0x402
    LD  R0, [R1]
    ST  R0, [0x41]
    HALT
`)
	m.StartStream(0, 0)
	m.StartStream(1, 0x100)
	if _, idle := m.RunUntilIdle(500); !idle {
		t.Fatal("did not reach idle")
	}
	if a, b := m.Internal().Read(0x40), m.Internal().Read(0x41); a != 0xAAAA || b != 0xBBBB {
		t.Fatalf("loads returned %#x / %#x", a, b)
	}
	if m.Stats().BusRetries == 0 {
		t.Fatal("no bus-busy retry recorded")
	}
}

// TestVectoredInterrupt: an external IRQ vectors the stream to
// VB+8*stream+bit, the handler runs at its level, RETI returns to the
// interrupted background code (§3.6.3).
func TestVectoredInterrupt(t *testing.T) {
	m := MustNew(Config{Streams: 1, VectorBase: 0x200})
	load(t, m, `
.org 0
back:
    LDM  R1, [0x11]
    ADDI R1, 1
    STM  R1, [0x11]   ; background heartbeat
    JMP  back

.org 0x203            ; vector for stream 0, bit 3
    JMP  handler
.org 0x300
handler:
    LDM  R2, [0x10]
    ADDI R2, 1
    STM  R2, [0x10]
    RETI
`)
	m.StartStream(0, 0)
	m.Run(50)
	before := m.Internal().Read(0x11)
	m.RaiseIRQ(0, 3)
	m.Run(60)
	if got := m.Internal().Read(0x10); got != 1 {
		t.Fatalf("handler ran %d times, want 1", got)
	}
	if after := m.Internal().Read(0x11); after <= before {
		t.Fatal("background did not resume after RETI")
	}
	if m.Interrupts(0).Level() != 0 {
		t.Fatalf("level after RETI = %d", m.Interrupts(0).Level())
	}
	if m.Interrupts(0).Test(3) {
		t.Fatal("IR bit 3 not cleared by RETI")
	}
}

// TestInterruptPriorityNesting: a higher-priority IRQ preempts a
// running handler; a lower one waits for RETI.
func TestInterruptPriorityNesting(t *testing.T) {
	m := MustNew(Config{Streams: 1, VectorBase: 0x200})
	load(t, m, `
.org 0
back: JMP back

.org 0x202             ; bit 2 vector
    JMP h2
.org 0x205             ; bit 5 vector
    JMP h5

.org 0x300
h2: LDM  R3, [0x20]    ; R0=saved SR, R1=return PC: keep clear of both
    ADDI R3, 1
    STM  R3, [0x20]
    LDM  R3, [0x21]    ; record whether h5 already ran
    STM  R3, [0x22]
    RETI
.org 0x320
h5: LDM  R3, [0x21]
    ADDI R3, 1
    STM  R3, [0x21]
    RETI
`)
	m.StartStream(0, 0)
	m.Run(10)
	// Raise low priority first; while its handler runs, raise high.
	m.RaiseIRQ(0, 2)
	m.Run(8) // h2 is now in progress
	m.RaiseIRQ(0, 5)
	m.Run(100)
	if m.Internal().Read(0x20) != 1 || m.Internal().Read(0x21) != 1 {
		t.Fatalf("handler counts: h2=%d h5=%d", m.Internal().Read(0x20), m.Internal().Read(0x21))
	}
	// h5 preempted h2, so h2's tail saw h5's count == 1.
	if m.Internal().Read(0x22) != 1 {
		t.Fatalf("h5 did not preempt h2 (saw %d)", m.Internal().Read(0x22))
	}
}

// TestDedicatedStreamInterruptLatency measures the headline RTS claim:
// an interrupt assigned to its own stream starts executing within a few
// cycles, without any context save.
func TestDedicatedStreamInterruptLatency(t *testing.T) {
	m := MustNew(Config{Streams: 2, VectorBase: 0x200})
	load(t, m, `
.org 0
busy: ADDI R0, 1      ; stream 0: background load
      JMP busy
.org 0x20B            ; vector stream 1, bit 3
      JMP h
.org 0x280
h:    LDI  R1, 1
      STM  R1, [0x50]
      RETI
`)
	m.StartStream(0, 0)
	m.Run(20)
	start := m.Cycle()
	m.RaiseIRQ(1, 3)
	for m.Internal().Read(0x50) == 0 {
		if m.Cycle()-start > 40 {
			t.Fatal("interrupt handler did not complete in 40 cycles")
		}
		m.Step()
	}
	latency := m.Cycle() - start
	// Entry + JMP + LDI + STM through a 4-stage pipe with slot sharing.
	if latency > 25 {
		t.Fatalf("dedicated-stream latency = %d cycles", latency)
	}
}

// TestWaitIJoin implements §3.6.3's synchronization: the first stream
// to reach the join deactivates until the other signals.
func TestWaitIJoin(t *testing.T) {
	m := MustNew(Config{Streams: 2})
	load(t, m, `
.org 0                 ; stream 0: produce then signal
    LDI R0, 99
    STM R0, [0x60]
    SIGNAL 1, 2
    HALT
.org 0x100             ; stream 1: wait then consume
    SETMR 0xFB         ; mask bit 2: join, don't vector
    WAITI 2
    LDM R0, [0x60]
    STM R0, [0x61]
    HALT
`)
	// Start the consumer first so it genuinely blocks.
	m.StartStream(1, 0x100)
	m.Run(30)
	if m.StreamState(1) != StateIRQWait {
		t.Fatalf("stream 1 state = %v, want irqwait", m.StreamState(1))
	}
	m.StartStream(0, 0)
	if _, idle := m.RunUntilIdle(300); !idle {
		t.Fatal("did not reach idle")
	}
	if got := m.Internal().Read(0x61); got != 99 {
		t.Fatalf("consumer read %d", got)
	}
	if m.Interrupts(1).Test(2) {
		t.Fatal("WAITI did not consume the signal bit")
	}
}

// TestWaitIDoesNotBurnSlots: a waiting stream's throughput is
// reallocated, not spent polling (the paper's argument for interrupt
// joins over semaphore polling).
func TestWaitIDoesNotBurnSlots(t *testing.T) {
	m := MustNew(Config{Streams: 2})
	load(t, m, `
.org 0
    WAITI 5
    HALT
.org 0x100
w:  ADDI R0, 1
    ADDI R0, 1
    ADDI R0, 1
    ADDI R0, 1
    JMP w
`)
	m.StartStream(0, 0)
	m.StartStream(1, 0x100)
	m.Run(200)
	st := m.Stats()
	if st.PerStream[0].Issued > 8 {
		t.Fatalf("waiting stream issued %d instructions", st.PerStream[0].Issued)
	}
	if st.PerStream[1].Retired < 120 {
		t.Fatalf("runner only retired %d", st.PerStream[1].Retired)
	}
}

// TestSSTART: a stream starts another one at a register-held address.
func TestSSTART(t *testing.T) {
	m := MustNew(Config{Streams: 2})
	load(t, m, `
.org 0
    LI R0, 0x100
    SSTART 1, R0
    HALT
.org 0x100
    LDI R1, 7
    STM R1, [0x70]
    HALT
`)
	m.StartStream(0, 0)
	if !m.StreamActive(0) || m.StreamActive(1) {
		t.Fatal("initial activity wrong")
	}
	if _, idle := m.RunUntilIdle(300); !idle {
		t.Fatal("did not reach idle")
	}
	if got := m.Internal().Read(0x70); got != 7 {
		t.Fatalf("child stream wrote %d", got)
	}
}

// TestTASSemaphore: two streams increment a shared counter under a
// test-and-set spinlock (§3.6.2); no increment may be lost.
func TestTASSemaphore(t *testing.T) {
	m := MustNew(Config{Streams: 2})
	const rounds = 30
	prog := `
.equ LOCK, 0x80
.equ COUNT, 0x81
.org BASE
    LDI  R2, ROUNDS
outer:
    LI   R3, LOCK
acq:
    TAS  R1, [R3]
    BNE  acq          ; old value non-zero -> held
    LDM  R0, [COUNT]
    ADDI R0, 1
    STM  R0, [COUNT]
    LDI  R1, 0
    STM  R1, [LOCK]   ; release
    SUBI R2, 1
    BNE  outer
    HALT
`
	src0 := ".equ BASE, 0x000\n.equ ROUNDS, 30\n" + prog
	src1 := ".equ BASE, 0x200\n.equ ROUNDS, 30\n" + prog
	load(t, m, src0)
	load(t, m, src1)
	m.StartStream(0, 0)
	m.StartStream(1, 0x200)
	if _, idle := m.RunUntilIdle(20000); !idle {
		t.Fatal("did not reach idle")
	}
	if got := m.Internal().Read(0x81); got != 2*rounds {
		t.Fatalf("counter = %d, want %d", got, 2*rounds)
	}
}

// TestStackFaultInterrupt: blowing the stack-window guard raises the
// automatic stack-fault interrupt (§3.6.3).
func TestStackFaultInterrupt(t *testing.T) {
	m := MustNew(Config{Streams: 1, WindowDepth: 16, VectorBase: 0x200})
	load(t, m, `
.org 0
    NOP+              ; each increment grows the live span
    NOP+
    NOP+
    NOP+
    NOP+
    NOP+
    NOP+
    NOP+
    NOP+
    NOP+
    HALT
.org 0x206            ; stream 0, StackFault bit 6
    LDM  R1, [0x90]
    ADDI R1, 1
    STM  R1, [0x90]
    ; a real handler would spill and advance BOS; the test just counts
    RETI
`)
	m.StartStream(0, 0)
	m.Run(400)
	if m.Internal().Read(0x90) == 0 {
		t.Fatal("stack fault handler never ran")
	}
	if m.Stats().StackFaults == 0 {
		t.Fatal("no stack fault recorded")
	}
}

// TestDynamicReallocationShares reproduces Figure 3.3 on the real
// machine: with a T/2,T/6,T/6,T/6 partition and only stream 3 active,
// stream 3 receives the whole machine.
func TestDynamicReallocationShares(t *testing.T) {
	m := MustNew(Config{Streams: 4, Shares: []int{3, 1, 1, 1}})
	load(t, m, `
.org 0x100
go: ADDI R0, 1
    ADDI R0, 1
    ADDI R0, 1
    ADDI R0, 1
    ADDI R0, 1
    ADDI R0, 1
    JMP go
`)
	m.StartStream(3, 0x100)
	m.Run(1000)
	st := m.Stats()
	if st.PerStream[3].Retired < 700 {
		t.Fatalf("sole active stream retired %d/1000", st.PerStream[3].Retired)
	}
	if m.Scheduler().DonatedIssues[3] == 0 {
		t.Fatal("no slots were donated to stream 3")
	}
}

// TestDeterminism: identical configuration and program produce
// identical statistics.
func TestDeterminism(t *testing.T) {
	run := func() Stats {
		m := MustNew(Config{Streams: 2, VectorBase: 0x300})
		ram := bus.NewRAM("ext", 128, 7)
		m.Bus().Attach(isa.ExternalBase, 128, ram)
		load(t, m, `
.org 0
a:  LI  R1, 0x400
    LD  R0, [R1+3]
    ADDI R0, 1
    ST  R0, [R1+3]
    JMP a
.org 0x100
b:  ADDI R0, 1
    JMP b
`)
		m.StartStream(0, 0)
		m.StartStream(1, 0x100)
		m.Run(5000)
		return m.Stats()
	}
	a, b := run(), run()
	if a.Retired != b.Retired || a.IdleCycles != b.IdleCycles || a.BusWaits != b.BusWaits {
		t.Fatalf("non-deterministic: %+v vs %+v", a, b)
	}
}

// TestIllegalInstructionIsCountedNop: undefined opcodes must not wedge
// the machine.
func TestIllegalInstruction(t *testing.T) {
	m := MustNew(Config{Streams: 1})
	// The trailing NOPs keep the post-HALT prefetches inside the loaded
	// image: fetches past the image end are themselves illegal words
	// (the wild-PC rule) and would muddy the count under test here.
	load(t, m, `
    .word 0xFC0000    ; undefined opcode
    LDI R0, 5
    STM R0, [0]
    HALT
    NOP
    NOP
`)
	m.StartStream(0, 0)
	if _, idle := m.RunUntilIdle(100); !idle {
		t.Fatal("did not reach idle")
	}
	if m.Stats().IllegalInstr != 1 {
		t.Fatalf("IllegalInstr = %d", m.Stats().IllegalInstr)
	}
	if m.Internal().Read(0) != 5 {
		t.Fatal("execution did not continue past the illegal word")
	}
}

// TestHaltDrainsToIdle: after HALT the machine reports Idle and stops
// retiring.
func TestHaltDrainsToIdle(t *testing.T) {
	m := MustNew(Config{Streams: 1})
	load(t, m, "LDI R0, 1\nHALT\n")
	m.StartStream(0, 0)
	n, idle := m.RunUntilIdle(100)
	if !idle {
		t.Fatal("never idle")
	}
	retired := m.Stats().Retired
	m.Run(10)
	if m.Stats().Retired != retired {
		t.Fatal("retired instructions after idle")
	}
	if n > 12 {
		t.Fatalf("took %d cycles to drain a 2-instruction program", n)
	}
}

// TestPipeViewShowsStreams: the trace snapshot must label stages with
// the owning streams (input for Figures 3.1/3.2).
func TestPipeView(t *testing.T) {
	m := MustNew(Config{Streams: 2})
	load(t, m, `
.org 0
x: ADDI R0, 1
   JMP x
.org 0x100
y: ADDI R0, 1
   JMP y
`)
	m.StartStream(0, 0)
	m.StartStream(1, 0x100)
	m.Run(6)
	v := m.PipeView()
	seen := map[int]bool{}
	for _, sl := range v {
		if sl.Valid {
			seen[sl.Stream] = true
			if sl.Text == "" {
				t.Fatal("empty disassembly in pipe view")
			}
		}
	}
	if !seen[0] || !seen[1] {
		t.Fatalf("pipe view does not show both streams: %+v", v)
	}
}

// TestGlobalRegistersShared: globals pass parameters between streams
// (§3.6.2).
func TestGlobalRegistersShared(t *testing.T) {
	m := MustNew(Config{Streams: 2})
	load(t, m, `
.org 0
    LDI R0, 123
    MOV G2, R0
    SIGNAL 1, 1
    HALT
.org 0x100
    SETMR 0xFD         ; mask bit 1: join, don't vector
    WAITI 1
    MOV R0, G2
    STM R0, [0x33]
    HALT
`)
	m.StartStream(0, 0)
	m.StartStream(1, 0x100)
	if _, idle := m.RunUntilIdle(300); !idle {
		t.Fatal("did not reach idle")
	}
	if got := m.Internal().Read(0x33); got != 123 {
		t.Fatalf("global passed %d", got)
	}
}

// TestTimerDeviceInterrupt wires a bus timer to a stream IRQ — the
// full peripheral-to-handler path.
func TestTimerDeviceInterrupt(t *testing.T) {
	m := MustNew(Config{Streams: 1, VectorBase: 0x200})
	tm := bus.NewTimer("t0", 2, m.RaiseIRQ, 0, 4)
	if err := m.Bus().Attach(isa.IOBase, 4, tm); err != nil {
		t.Fatal(err)
	}
	load(t, m, `
.org 0
    LI  R1, 0xF000  ; timer base
    LDI R0, 50
    ST  R0, [R1+0]  ; count = 50
    LDI R0, 3
    ST  R0, [R1+2]  ; ctrl = run | irq
idle:
    JMP idle
.org 0x204
    JMP h
.org 0x280
h:  LDM R2, [0x34]
    ADDI R2, 1
    STM R2, [0x34]
    RETI
`)
	m.StartStream(0, 0)
	m.Run(400)
	if got := m.Internal().Read(0x34); got != 1 {
		t.Fatalf("timer handler ran %d times, want 1 (no reload)", got)
	}
}

func TestZRReadsZeroDiscardWrites(t *testing.T) {
	m := MustNew(Config{Streams: 1})
	load(t, m, `
    LDI R0, 5
    ADD ZR, R0, R0   ; write discarded
    ADD R1, ZR, R0   ; ZR reads 0
    STM R1, [0]
    HALT
`)
	m.StartStream(0, 0)
	m.RunUntilIdle(100)
	if got := m.Internal().Read(0); got != 5 {
		t.Fatalf("ZR semantics broken: %d", got)
	}
}

func TestIdleMachineReportsIdle(t *testing.T) {
	m := MustNew(Config{Streams: 2})
	if !m.Idle() {
		t.Fatal("fresh machine not idle")
	}
	m.Run(5)
	if !m.Idle() {
		t.Fatal("machine with no active streams not idle")
	}
	if m.Stats().IdleCycles != 5 {
		t.Fatalf("IdleCycles = %d", m.Stats().IdleCycles)
	}
}

func TestResetStats(t *testing.T) {
	m := MustNew(Config{Streams: 1})
	load(t, m, "x: ADDI R0, 1\nJMP x\n")
	m.StartStream(0, 0)
	m.Run(100)
	m.ResetStats()
	st := m.Stats()
	if st.Cycles != 0 || st.Retired != 0 || st.PerStream[0].Issued != 0 {
		t.Fatal("ResetStats left counters")
	}
}

// TestLIWithStaleRegister is a regression test: LI (LDHI+ORI) must
// materialise the constant regardless of the register's previous
// contents — an early LDHI kept the stale low byte, which corrupted
// every second LI of a device address.
func TestLIWithStaleRegister(t *testing.T) {
	m := MustNew(Config{Streams: 1})
	load(t, m, `
    LI  R1, 0xF030   ; first address
    LI  R1, 0xF010   ; overwrite with one whose low bits differ
    MOV R2, R1
    STM R2, [0]
    HALT
`)
	m.StartStream(0, 0)
	m.RunUntilIdle(100)
	if got := m.Internal().Read(0); got != 0xF010 {
		t.Fatalf("LI over stale register produced %#x, want 0xF010", got)
	}
}

// TestPreemptivePriorityScheduling realises §3.1's preemptive model on
// the machine: the high-priority stream gets virtually the whole
// machine while active; the low-priority stream runs only in its
// stalls and after it halts.
func TestPreemptivePriorityScheduling(t *testing.T) {
	m := MustNew(Config{Streams: 2, Priority: true})
	load(t, m, `
.org 0
    LI  R2, 100
hi: ADDI R0, 1
    ADDI R0, 1
    ADDI R0, 1
    SUBI R2, 1
    BNE hi
    HALT
.org 0x100
lo: ADDI R0, 1
    JMP lo
`)
	m.StartStream(0, 0)
	m.StartStream(1, 0x100)
	m.Run(500) // stream 0 still running (~700 cycles total): it owns the machine
	st := m.Stats()
	hi, lo := st.PerStream[0].Retired, st.PerStream[1].Retired
	// Stream 1 only gets stream 0's branch-shadow slots.
	if float64(lo) > 0.4*float64(hi) {
		t.Fatalf("low-priority stream got too much: hi=%d lo=%d", hi, lo)
	}
	// After the high-priority task completes (~cycle 700), the low
	// stream inherits the machine.
	m.Run(300) // let the task drain
	m.ResetStats()
	m.Run(2000)
	st = m.Stats()
	if st.PerStream[0].Retired != 0 {
		t.Fatalf("halted stream still retiring: %d", st.PerStream[0].Retired)
	}
	if st.PerStream[1].Retired < 900 {
		t.Fatalf("low stream did not inherit the machine: %d", st.PerStream[1].Retired)
	}
}

// pollVsInterrupt runs one of the two §3.6.3 event-service styles for
// a fixed window and reports (events handled, background throughput).
func pollVsInterrupt(t *testing.T, interrupt bool, cycles int) (uint16, uint64) {
	t.Helper()
	m := MustNew(Config{Streams: 2, VectorBase: 0x200})
	tm := bus.NewTimer("evt", 2, m.RaiseIRQ, 0, 4)
	if err := m.Bus().Attach(isa.IOBase, 4, tm); err != nil {
		t.Fatal(err)
	}
	var src string
	if interrupt {
		src = `
.org 0                 ; stream 0: arm the timer for IRQs, then halt
    LI  R1, 0xF000
    LI  R0, 400
    ST  R0, [R1+0]
    ST  R0, [R1+1]     ; auto-reload
    LDI R0, 3
    ST  R0, [R1+2]     ; run | irq
    HALT
.org 0x204             ; stream 0, bit 4
    JMP h
.org 0x280
h:  LDM R2, [0x10]
    ADDI R2, 1
    STM R2, [0x10]
    RETI
`
	} else {
		src = `
.org 0                 ; stream 0: arm the timer, then poll status
    LI  R1, 0xF000
    LI  R0, 400
    ST  R0, [R1+0]
    ST  R0, [R1+1]
    LDI R0, 1
    ST  R0, [R1+2]     ; run only
poll:
    LD  R0, [R1+3]     ; status read through the bus
    CMPI R0, 0
    BEQ  poll
    ST  R0, [R1+3]     ; clear expired
    LDM R2, [0x10]
    ADDI R2, 1
    STM R2, [0x10]
    JMP  poll
`
	}
	bgBody := ""
	for i := 0; i < 24; i++ {
		bgBody += "    ADDI R" + string(rune('0'+i%6)) + ", 1\n"
	}
	src += ".org 0x100\nbg:\n" + bgBody + "    JMP bg\n"
	load(t, m, src)
	m.StartStream(0, 0)
	m.StartStream(1, 0x100)
	m.Run(cycles)
	return m.Internal().Read(0x10), m.Stats().PerStream[1].Retired
}

// TestInterruptsBeatPolling is §1/§3.6.3: servicing a periodic event
// by interrupt leaves the background stream nearly the whole machine,
// while a polling loop burns issue slots and bus bandwidth for the
// same events.
func TestInterruptsBeatPolling(t *testing.T) {
	const cycles = 30000
	evPoll, bgPoll := pollVsInterrupt(t, false, cycles)
	evIrq, bgIrq := pollVsInterrupt(t, true, cycles)

	// Both must catch essentially every event (~75 at period 400).
	if evPoll < 70 || evIrq < 70 {
		t.Fatalf("events: poll %d, irq %d; expected ~75", evPoll, evIrq)
	}
	if diff := int(evPoll) - int(evIrq); diff < -2 || diff > 2 {
		t.Fatalf("event counts diverge: poll %d vs irq %d", evPoll, evIrq)
	}
	// The interrupt organization must leave the background much more
	// of the machine.
	if float64(bgIrq) < 1.5*float64(bgPoll) {
		t.Fatalf("background: irq %d vs poll %d — interrupts should win big", bgIrq, bgPoll)
	}
	if float64(bgIrq) < 0.9*float64(cycles) {
		t.Fatalf("background under interrupts retired only %d/%d", bgIrq, cycles)
	}
}

// TestWatchdogRecovery is the RTS fail-safe end to end: a task kicks
// the watchdog, wedges, the watchdog bites with the highest-priority
// interrupt, and the recovery handler redirects the stream back to its
// entry point by rewriting the saved return PC before RETI. The system
// keeps running across repeated wedges.
func TestWatchdogRecovery(t *testing.T) {
	m := MustNew(Config{Streams: 1, VectorBase: 0x200})
	wd := bus.NewWatchdog("wd", 2, 400, m.RaiseIRQ, 0, 7)
	if err := m.Bus().Attach(isa.IOBase, 4, wd); err != nil {
		t.Fatal(err)
	}
	load(t, m, `
.equ WD, 0xF000
.equ KICKS, 0x40
.equ BITES, 0x41
.org 0
main:
    LI   R1, WD
    LDI  R0, 1
    ST   R0, [R1+1]    ; enable the watchdog
    LDI  R2, 10        ; healthy kicks before the fault
kick:
    ST   R0, [R1+0]    ; kick
    LDM  R3, [KICKS]
    ADDI R3, 1
    STM  R3, [KICKS]
    LDI  R4, 12        ; pace the loop
p:  SUBI R4, 1
    BNE  p
    SUBI R2, 1
    BNE  kick
wedge:
    JMP  wedge         ; the fault: kicking stops

.org 0x207             ; stream 0, bit 7: the bite
    JMP  recover
.org 0x280
recover:
    LDM  R3, [BITES]
    ADDI R3, 1
    STM  R3, [BITES]
    LI   R3, main      ; redirect the interrupted stream: overwrite the
    MOV  R1, R3        ; saved return PC (R1 after entry), then return
    RETI
`)
	m.StartStream(0, 0)
	m.Run(20000)
	kicks := m.Internal().Read(0x40)
	bites := m.Internal().Read(0x41)
	if bites < 2 {
		t.Fatalf("watchdog bit only %d times across repeated wedges", bites)
	}
	// Recovery restarts the kick loop: far more kicks than one run's 10.
	if kicks < 10*(bites+1) {
		t.Fatalf("recovery did not resume kicking: %d kicks, %d bites", kicks, bites)
	}
	if m.Interrupts(0).Level() != 0 {
		t.Fatalf("stuck in the recovery handler (level %d)", m.Interrupts(0).Level())
	}
}

// TestResetRerunsDeterministically: after Reset, the same loaded image
// produces bit-identical results.
func TestResetRerunsDeterministically(t *testing.T) {
	m := MustNew(Config{Streams: 2})
	load(t, m, `
.org 0
    LDI R0, 5
    MUL R1, R0, R0
    STM R1, [0]
    HALT
.org 0x100
x:  ADDI R2, 1
    STM R2, [1]
    JMP x
`)
	run := func() (uint16, Stats) {
		m.StartStream(0, 0)
		m.StartStream(1, 0x100)
		m.Run(500)
		return m.Internal().Read(0), m.Stats()
	}
	v1, s1 := run()
	m.Reset()
	m.Internal().Write(0, 0)
	m.Internal().Write(1, 0)
	if m.Cycle() != 0 || m.StreamActive(0) || m.StreamActive(1) {
		t.Fatal("Reset left machine state")
	}
	v2, s2 := run()
	if v1 != v2 || s1.Retired != s2.Retired || s1.IdleCycles != s2.IdleCycles {
		t.Fatalf("rerun diverged: %d/%d, %+v vs %+v", v1, v2, s1, s2)
	}
}
