package core

// Exactness of the idle-gap jump (skipIdleGap). A plain machine — no
// block table, no CheckReadiness — driven through stepBlock in seeded
// random chunks must match the per-cycle Step and the reference
// pipeline on the whole snapshot at every chunk boundary, and emit the
// same flight-recorder event stream, while bus waits are jumped
// instead of stepped. The cases steer the gap bound through every term:
// access completion, bounded-wait timeouts (including a budget one
// cycle past the elapsed count), stall expiry, the chunk budget, raw
// interrupt-handle mutations and device quiescence.

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"disc/internal/bus"
	"disc/internal/isa"
	"disc/internal/obs"
	"disc/internal/rng"
)

// gapProgram: every stream loops over a slow load, a store, a load
// from the clocked window (unmapped when no clocked device is
// attached) and a load from never-mapped space, with a little compute
// between. Every vector holds RETI, so raised bits run a one-word
// handler and return.
func gapProgram() string {
	var b strings.Builder
	b.WriteString(`
	.org 0
main:
	LI   R1, 0x400
loop:
	LD   R0, [R1+0]
	ADDI R2, 1
	ST   R2, [R1+1]
	LD   R3, [R1+16]
	ADDI R4, 1
	LD   R5, [R1+32]
	JMP  loop
	.org 0x200
`)
	for i := 0; i < isa.NumStreams*isa.NumIRBits; i++ {
		b.WriteString("\tRETI\n")
	}
	return b.String()
}

type gapCase struct {
	name     string
	streams  int
	priority bool
	wait     int  // slow RAM wait states at 0x400
	timeout  int  // bounded-wait budget, 0 = unbounded
	clocked  bool // quiet ticker with clock-dependent reads at 0x410
	timer    bool // auto-reloading timer: a ticker that is never quiet
	// stim mixes: IRQ raises through RaiseIRQ and through the raw
	// interrupt handle, stalls, and mid-access budget changes.
	irq, raw, stall, budget bool
	noJump                  bool // the gap must never qualify
	// chunk, when set, fixes every driver budget: with a short wait
	// it lands boundaries right after one- and two-cycle jumps, shorter
	// than the pipe they shift.
	chunk int
}

func gapCases() []gapCase {
	return []gapCase{
		{name: "1stream/long-wait", streams: 1, wait: 40},
		{name: "1stream/short-wait", streams: 1, wait: 4, chunk: 2},
		{name: "2stream/short-wait", streams: 2, wait: 6, chunk: 3},
		{name: "1stream/timeout", streams: 1, wait: 30, timeout: 9},
		{name: "1stream/timeout-edge", streams: 1, wait: 30, budget: true},
		{name: "1stream/stalls", streams: 1, wait: 25, stall: true},
		{name: "1stream/irq", streams: 1, wait: 25, irq: true, raw: true},
		{name: "1stream/clocked", streams: 1, wait: 20, clocked: true, irq: true},
		{name: "1stream/busy-timer", streams: 1, wait: 20, timer: true, noJump: true},
		{name: "2stream/mixed", streams: 2, wait: 18, timeout: 14, irq: true, stall: true, budget: true},
		{name: "3stream/priority", streams: 3, priority: true, wait: 22, irq: true, raw: true, stall: true},
		{name: "4stream/clocked", streams: 4, wait: 35, clocked: true, irq: true, raw: true, stall: true, budget: true},
		{name: "4stream/priority-timeout", streams: 4, priority: true, wait: 50, timeout: 20, stall: true, budget: true},
	}
}

// gapMachine builds one machine of the case.
func gapMachine(t *testing.T, c gapCase, reference bool) *Machine {
	t.Helper()
	m := MustNew(Config{Streams: c.streams, Priority: c.priority, VectorBase: 0x200, Reference: reference})
	if err := m.Bus().Attach(isa.ExternalBase, 16, bus.NewRAM("slow", 16, c.wait)); err != nil {
		t.Fatal(err)
	}
	if c.clocked {
		if err := m.Bus().Attach(isa.ExternalBase+16, 16, &clockedRAM{}); err != nil {
			t.Fatal(err)
		}
	}
	if c.timer {
		tm := bus.NewTimer("tick", 1, m.RaiseIRQ, 0, 3)
		tm.Write(bus.TimerReload, 37)
		tm.Write(bus.TimerCount, 37)
		tm.Write(bus.TimerCtrl, 3)
		if err := m.Bus().Attach(isa.IOBase, 4, tm); err != nil {
			t.Fatal(err)
		}
	}
	m.Bus().SetTimeout(c.timeout)
	load(t, m, gapProgram())
	for i := 0; i < c.streams; i++ {
		if err := m.StartStream(i, 0); err != nil {
			t.Fatal(err)
		}
	}
	m.SetRecorder(obs.NewRecorder(1 << 16))
	return m
}

// gapStim pre-samples the case's stimulus: cycle -> action, applied
// identically to every machine before that cycle.
func gapStim(c gapCase, src *rng.Source, cycles int) map[int]func(m *Machine) {
	stim := map[int]func(m *Machine){}
	for cyc := 1; cyc < cycles; cyc++ {
		s := src.Intn(c.streams)
		bit := uint8(1 + src.Intn(4))
		switch {
		case c.irq && src.Bool(0.01):
			stim[cyc] = func(m *Machine) { m.RaiseIRQ(uint8(s), bit) }
		case c.raw && src.Bool(0.005):
			stim[cyc] = func(m *Machine) { m.Interrupts(s).Request(bit) }
		case c.stall && src.Bool(0.006):
			n := uint64(1 + src.Intn(40))
			stim[cyc] = func(m *Machine) { m.StallStream(s, n) }
		case c.budget && src.Bool(0.02):
			// Mid-access budget changes: one or two cycles past the
			// elapsed count (the tightest bounds the gap can meet), or
			// back to the case's own budget.
			d := src.Intn(3)
			stim[cyc] = func(m *Machine) {
				st := m.Bus().State()
				switch {
				case d == 2 || !st.Busy:
					m.Bus().SetTimeout(c.timeout)
				default:
					m.Bus().SetTimeout(st.Elapsed + 1 + d)
				}
			}
		}
	}
	return stim
}

// normSnap captures m with the engine-selection flags cleared, so the
// reference pipeline's snapshot compares against the optimized ones.
func normSnap(t *testing.T, m *Machine) *Snapshot {
	t.Helper()
	s, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	s.Cfg.Reference = false
	return s
}

// TestIdleGapMatchesPerCycle is the jump's exactness proof.
func TestIdleGapMatchesPerCycle(t *testing.T) {
	const cycles = 4000
	for ci, c := range gapCases() {
		t.Run(c.name, func(t *testing.T) {
			src := rng.New(rng.Child(0x1D1E, uint64(ci)))
			stim := gapStim(c, src, cycles)
			step, ref, jump := gapMachine(t, c, false), gapMachine(t, c, true), gapMachine(t, c, false)
			skipped := 0
			for n := 0; n < cycles; {
				if f := stim[n]; f != nil {
					f(step)
					f(ref)
					f(jump)
				}
				k := 1 + src.Intn(src.Intn(3)*100+4)
				if c.chunk > 0 {
					k = c.chunk
				}
				k = min(k, cycles-n)
				for d := n + 1; d < n+k; d++ {
					if stim[d] != nil {
						k = d - n
						break
					}
				}
				// stepBlock's rule, with its jump taken first so the test
				// can count jumped cycles (a one-cycle jump is otherwise
				// indistinguishable from a Step, by design).
				for done := 0; done < k; {
					if max := k - done; max > 1 {
						if g := jump.skipIdleGap(max); g > 0 {
							skipped += g
							done += g
							continue
						}
					}
					done += jump.stepBlock(k - done)
				}
				for i := 0; i < k; i++ {
					step.Step()
					ref.Step()
				}
				n += k
				want, got := normSnap(t, step), normSnap(t, jump)
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("cycle %d: jumped machine diverged from per-cycle Step\nstep: %+v\njump: %+v", n, want, got)
				}
				if r := normSnap(t, ref); !reflect.DeepEqual(want, r) {
					t.Fatalf("cycle %d: reference pipeline diverged from per-cycle Step\nstep: %+v\nref:  %+v", n, want, r)
				}
			}
			for _, o := range []struct {
				name string
				m    *Machine
			}{{"jump", jump}, {"reference", ref}} {
				if o.m.Recorder().Total() != step.Recorder().Total() ||
					!reflect.DeepEqual(o.m.Recorder().Events(), step.Recorder().Events()) {
					t.Fatalf("%s machine's event stream diverged from per-cycle Step (%d vs %d events)",
						o.name, o.m.Recorder().Total(), step.Recorder().Total())
				}
			}
			switch {
			case c.noJump && skipped > 0:
				t.Fatalf("a never-quiet ticker is attached, yet %d cycles were jumped", skipped)
			case !c.noJump && skipped == 0:
				t.Fatal("no idle gap was jumped: the case does not exercise the fast path")
			}
			t.Logf("%s: %d of %d cycles jumped, %d events", c.name, skipped, cycles, step.Recorder().Total())
		})
	}
}

// TestIdleGapBlockReplay: with a block table attached, a jumped gap
// must leave the skip batches exactly where per-cycle dispatches would,
// so every later session probe lands on the same cycle. The oracle is
// the dispatch rule with the jump taken out (stepBlockNoGap); the
// budgets cover the one-cycle and below-MinFuseLen tails the replay
// must leave untouched.
func TestIdleGapBlockReplay(t *testing.T) {
	c := gapCase{name: "block", streams: 1, wait: 30}
	for _, budget := range []int{2, 3, 4, 5, 7, 64, 300, 5000} {
		jump, step := gapMachine(t, c, false), gapMachine(t, c, false)
		jump.SetBlockTable(wholeImageTable(jump))
		step.SetBlockTable(wholeImageTable(step))
		for n := 0; n < 20_000; {
			k := min(budget, 20_000-n)
			for done := 0; done < k; {
				done += jump.stepBlock(k - done)
			}
			for done := 0; done < k; {
				done += stepBlockNoGap(step, k-done)
			}
			n += k
			if !reflect.DeepEqual(normSnap(t, jump), normSnap(t, step)) {
				t.Fatalf("budget %d, cycle %d: snapshots diverged", budget, n)
			}
			js, ss := jump.blockState(), step.blockState()
			if js != ss {
				t.Fatalf("budget %d, cycle %d: block bookkeeping diverged\njump: %s\nstep: %s", budget, n, js, ss)
			}
		}
	}
}

// stepBlockNoGap is stepBlock's dispatch rule without the idle-gap
// jump: the per-dispatch behaviour the jump's bookkeeping replays.
func stepBlockNoGap(m *Machine, max int) int {
	if m.blocks != nil && max > 1 {
		if m.blockSkip > 0 {
			m.blockSkip--
		} else if n := m.blockSession(max); n > 0 {
			return n
		}
	}
	m.Step()
	return 1
}

// blockState renders the block engine's dispatch bookkeeping.
func (m *Machine) blockState() string {
	return fmt.Sprintf("%+v skip=%d idle=%d demote=%d gates=%v",
		m.blockStats, m.blockSkip, m.blockIdleSkip, m.blockDemoteSkip, m.gates)
}
