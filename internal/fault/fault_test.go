package fault

import (
	"bytes"
	"errors"
	"testing"

	"disc/internal/asm"
	"disc/internal/bus"
	"disc/internal/core"
	"disc/internal/isa"
)

// load assembles src into m's program memory.
func load(t *testing.T, m *core.Machine, src string) {
	t.Helper()
	im, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	if err := im.Load(m, nil); err != nil {
		t.Fatal(err)
	}
}

func TestZeroConfigIsTransparent(t *testing.T) {
	ram := bus.NewRAM("r", 16, 3)
	ram.Poke(4, 0xCAFE)
	d := Wrap(ram, DeviceConfig{})
	if d.Name() != "faulty(r)" {
		t.Fatalf("Name = %q", d.Name())
	}
	for i := 0; i < 100; i++ {
		if d.AccessCycles(4, false) != 3 {
			t.Fatal("access time perturbed with zero config")
		}
		if d.Read(4) != 0xCAFE {
			t.Fatal("read perturbed with zero config")
		}
		if d.AccessFault(4, false) {
			t.Fatal("fault injected with zero config")
		}
	}
	d.Write(5, 0x1234)
	if ram.Peek(5) != 0x1234 {
		t.Fatal("write not forwarded")
	}
	// Inner range refusals still surface through the wrapper.
	if !d.AccessFault(16, false) {
		t.Fatal("inner device refusal swallowed")
	}
}

func TestWrapperDeterminism(t *testing.T) {
	run := func() ([]int, []uint16, DeviceStats) {
		ram := bus.NewRAM("r", 64, 2)
		for i := 0; i < 64; i++ {
			ram.Poke(uint16(i), uint16(i)*3)
		}
		d := Wrap(ram, DeviceConfig{
			Seed:          42,
			ExtraWaitProb: 0.3,
			ExtraWaitMax:  5,
			BitFlipProb:   0.2,
			FaultProb:     0.1,
		})
		var cycles []int
		var reads []uint16
		for i := 0; i < 200; i++ {
			off := uint16(i % 64)
			cycles = append(cycles, d.AccessCycles(off, false))
			if !d.AccessFault(off, false) {
				reads = append(reads, d.Read(off))
			}
			d.Tick()
		}
		return cycles, reads, d.Stats
	}
	c1, r1, s1 := run()
	c2, r2, s2 := run()
	if s1 != s2 {
		t.Fatalf("stats diverged: %+v vs %+v", s1, s2)
	}
	for i := range c1 {
		if c1[i] != c2[i] {
			t.Fatalf("access time %d diverged", i)
		}
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("read %d diverged", i)
		}
	}
	if s1.ExtraWaits == 0 || s1.BitFlips == 0 || s1.Faults == 0 {
		t.Fatalf("fault model inert: %+v", s1)
	}
}

func TestStuckBusyPeriod(t *testing.T) {
	d := Wrap(bus.NewRAM("r", 16, 2), DeviceConfig{
		Seed:          7,
		StuckBusyProb: 1, // first access triggers it
		StuckBusyLen:  50,
	})
	if d.AccessCycles(0, false) != Wedged {
		t.Fatal("triggering access not wedged")
	}
	d.cfg.StuckBusyProb = 0 // only the stuck period should wedge now
	for i := 0; i < 49; i++ {
		d.Tick()
	}
	if d.AccessCycles(0, false) != Wedged {
		t.Fatal("access during stuck period not wedged")
	}
	d.Tick()
	if d.AccessCycles(0, false) != 2 {
		t.Fatal("device did not recover after the stuck period")
	}
	if d.Stats.StuckBusy != 1 || d.Stats.DeadHits != 1 {
		t.Fatalf("stats %+v", d.Stats)
	}
}

func TestDeadWindowTimesOutThroughMachine(t *testing.T) {
	// Stream 0 loads from a device that is dead for an early window;
	// with the bounded-wait budget the load completes as a timeout and
	// the program still terminates.
	m := core.MustNew(core.Config{Streams: 1})
	m.Bus().SetTimeout(32)
	d := Wrap(bus.NewRAM("ext", 16, 2), DeviceConfig{Dead: []Window{{From: 0, To: 10_000}}})
	if err := m.Bus().Attach(isa.ExternalBase, 16, d); err != nil {
		t.Fatal(err)
	}
	load(t, m, `
    LI  R1, 0x400
    LD  R2, [R1+0]
    ST  R2, [0x10]
    HALT
`)
	m.StartStream(0, 0)
	if _, err := m.RunGuarded(5000, 200); err != nil {
		t.Fatal(err)
	}
	if got := m.Internal().Read(0x10); got != 0xFFFF {
		t.Fatalf("timed-out load = %#x, want 0xFFFF", got)
	}
	st := m.Stats()
	if st.BusTimeouts != 1 {
		t.Fatalf("BusTimeouts = %d", st.BusTimeouts)
	}
	if be := m.LastBusError(0); be == nil || !errors.Is(be, bus.ErrTimeout) {
		t.Fatalf("LastBusError = %v", be)
	}
	if d.Stats.DeadHits == 0 {
		t.Fatal("dead window never hit")
	}
}

func TestDeadWindowWithoutTimeoutDiagnosed(t *testing.T) {
	// Without a budget the access occupies the bus forever. The bus
	// counting wait states is "progress", so the watchdog stays quiet
	// and the cycle limit fires — the documented reason SetTimeout
	// exists.
	m := core.MustNew(core.Config{Streams: 1})
	d := Wrap(bus.NewRAM("ext", 16, 2), DeviceConfig{Dead: []Window{{From: 0, To: 1 << 40}}})
	if err := m.Bus().Attach(isa.ExternalBase, 16, d); err != nil {
		t.Fatal(err)
	}
	load(t, m, `
    LI  R1, 0x400
    LD  R2, [R1+0]
    HALT
`)
	m.StartStream(0, 0)
	_, err := m.RunGuarded(2000, 200)
	var cl *core.CycleLimitError
	if !errors.As(err, &cl) {
		t.Fatalf("err = %v, want CycleLimitError", err)
	}
}

func TestStormDeterminismAndDelivery(t *testing.T) {
	run := func() (uint64, core.Stats) {
		m := core.MustNew(core.Config{Streams: 2, VectorBase: 0x100})
		// Stream 1 spins at background; storm bits vector it.
		load(t, m, `
    .org 0x40
loop:
    ADDI R0, 1
    JMP  loop
; stream 1, bit 1 vector = 0x100 + 8 + 1
    .org 0x109
    RETI
`)
		m.StartStream(1, 0x40)
		st := NewStorm(StormConfig{Seed: 99, MeanGap: 40, Streams: []int{1}, Bits: []uint8{1}})
		Run(m, 5000, st)
		return st.Raised, m.Stats()
	}
	r1, s1 := run()
	r2, s2 := run()
	if r1 == 0 {
		t.Fatal("storm never fired")
	}
	if r1 != r2 {
		t.Fatalf("raised %d vs %d", r1, r2)
	}
	if s1.Dispatches != s2.Dispatches || s1.Retired != s2.Retired {
		t.Fatalf("machine diverged under identical storms: %+v vs %+v", s1, s2)
	}
	if s1.Dispatches == 0 {
		t.Fatal("storm raised bits but nothing dispatched")
	}
}

func TestStreamStallInjector(t *testing.T) {
	m := core.MustNew(core.Config{Streams: 2})
	load(t, m, `
loop0:
    ADDI R0, 1
    JMP  loop0
    .org 0x40
loop1:
    ADDI R0, 1
    JMP  loop1
`)
	m.StartStream(0, 0)
	m.StartStream(1, 0x40)
	Run(m, 1000, StreamStall{Stream: 0, At: 100, For: 500})
	st := m.Stats()
	// Stream 0 ran ~500 of 1000 cycles; stream 1 soaked up the slack.
	if st.PerStream[0].Retired >= st.PerStream[1].Retired {
		t.Fatalf("stall had no effect: %d vs %d",
			st.PerStream[0].Retired, st.PerStream[1].Retired)
	}
	if st.PerStream[1].Retired < 400 {
		t.Fatalf("victim starved during neighbour's stall: %d", st.PerStream[1].Retired)
	}
}

// TestCatchUpMatchesTicks: on a quiet wrapped device, CatchUp(n) must
// leave the wrapper in the exact serialized state n individual Ticks
// would — the block engine relies on this to skip per-cycle ticking
// across fused sessions without perturbing Dead windows, stuck-busy
// arithmetic or snapshot bytes.
func TestCatchUpMatchesTicks(t *testing.T) {
	mk := func() *Device {
		return Wrap(bus.NewGPIO("g", 1), DeviceConfig{
			Seed:          7,
			StuckBusyProb: 0.3,
			StuckBusyLen:  20,
			Dead:          []Window{{From: 400, To: 1000}},
		})
	}
	ticked, caught := mk(), mk()
	for _, n := range []uint64{1, 3, 17, 400} {
		for i := uint64(0); i < n; i++ {
			ticked.Tick()
		}
		caught.CatchUp(n)
		a, err := ticked.MarshalState()
		if err != nil {
			t.Fatal(err)
		}
		b, err := caught.MarshalState()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("after +%d cycles: CatchUp state diverged from ticked state", n)
		}
	}
	// The skipped span still counts for fault evaluation: both copies
	// now sit past cycle 400, inside the Dead window.
	if ticked.AccessCycles(0, false) != Wedged || caught.AccessCycles(0, false) != Wedged {
		t.Fatal("Dead window not honoured after CatchUp")
	}
}

// TestWrapperQuiet: the wrapper's quiescence answer is the inner
// device's — clockless inners are unconditionally quiet, quiet-capable
// inners are consulted live.
func TestWrapperQuiet(t *testing.T) {
	if !Wrap(bus.NewGPIO("g", 1), DeviceConfig{}).Quiet() {
		t.Fatal("wrapped clockless device not quiet")
	}
	tm := bus.NewTimer("t", 1, nil, 0, 4)
	w := Wrap(tm, DeviceConfig{})
	if !w.Quiet() {
		t.Fatal("wrapped disarmed timer not quiet")
	}
	tm.Write(bus.TimerCount, 8)
	tm.Write(bus.TimerCtrl, 1)
	if w.Quiet() {
		t.Fatal("wrapped armed timer reported quiet")
	}
}
