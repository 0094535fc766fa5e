package core_test

// Differential validation of the abstract-interpretation engine: every
// dynamic observability event the machine emits must be consistent with
// the static block summaries analysis.Summarize computed for the same
// program. The static side promises that an EventFree block performs no
// bus access, no IRQ-visible operation and no stream control, and that
// a DeltaKnown block moves the AWP by exactly NetWindowDelta; here the
// machine runs the four Table 4.1 loads and chaos schedules with a
// flight recorder attached and the promises are checked event by event:
//
//   - bus-wait and bus-retry events carry the posting instruction's PC,
//     which must land in a block whose summary admits a bus access;
//   - IRQ raise/ack events fire during some instruction's EX stage, and
//     that instruction (located through its retire event two cycles
//     later — the offset TestRetireExecOffset pins against the
//     pipeline) must sit in an IRQ-visible block;
//   - whenever the per-stream retire sequence traverses a whole block
//     front to back, the sampled AWP moved by exactly the block's
//     static NetWindowDelta.

import (
	"fmt"
	"testing"

	"disc/internal/analysis"
	"disc/internal/asm"
	"disc/internal/bus"
	"disc/internal/core"
	"disc/internal/fault"
	"disc/internal/isa"
	"disc/internal/obs"
	"disc/internal/workload"
	"disc/internal/xval"
)

// retireExecOffset is the cycle distance between an instruction's EX
// stage (where architectural effects — AWP adjusts, bus posts, IRQ
// clears — land) and its KindRetire event. TestRetireExecOffset keeps
// this constant honest against the pipeline implementation.
const retireExecOffset = 2

// TestRetireExecOffset measures the EX-to-retire distance empirically:
// a NOP+ moves the AWP during its EX cycle, and its retire event must
// trail by exactly retireExecOffset cycles.
func TestRetireExecOffset(t *testing.T) {
	im, err := asm.Assemble(".org 0x100\nstart:\n    NOP+\n    HALT\n")
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.New(core.Config{Streams: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := im.Load(m, nil); err != nil {
		t.Fatal(err)
	}
	if err := m.StartStream(0, 0x100); err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder(256)
	m.SetRecorder(rec)
	awp0 := m.WindowFile(0).AWP()
	awpMoved := uint64(0)
	for c := 0; c < 32; c++ {
		m.Step()
		if awpMoved == 0 && m.WindowFile(0).AWP() != awp0 {
			awpMoved = m.Cycle()
		}
	}
	if awpMoved == 0 {
		t.Fatal("NOP+ never adjusted the AWP")
	}
	for _, ev := range rec.Events() {
		if ev.Kind == obs.KindRetire && ev.PC == 0x100 {
			if got := ev.Cycle - awpMoved; got != retireExecOffset {
				t.Fatalf("EX-to-retire offset is %d, validator assumes %d", got, retireExecOffset)
			}
			return
		}
	}
	t.Fatal("NOP+ never retired")
}

// trace is one sampled machine run: the recorded events plus per-cycle
// AWP and PC samples for every stream (index [stream][cycle], cycle 0
// being the pre-run state).
type trace struct {
	events []obs.Event
	awp    [][]int
	pcs    [][]uint16
	cycles int
}

// runSampled steps the machine cycle by cycle under the given
// injectors, sampling AWP and PC after every cycle.
func runSampled(t *testing.T, m *core.Machine, cycles int, inj ...fault.Injector) *trace {
	t.Helper()
	rec := obs.NewRecorder(1 << 18)
	m.SetRecorder(rec)
	k := m.Streams()
	tr := &trace{cycles: cycles}
	for s := 0; s < k; s++ {
		awp := make([]int, cycles+1)
		pcs := make([]uint16, cycles+1)
		awp[0] = m.WindowFile(s).AWP()
		pcs[0] = m.StreamPC(s)
		tr.awp = append(tr.awp, awp)
		tr.pcs = append(tr.pcs, pcs)
	}
	for c := 1; c <= cycles; c++ {
		for _, j := range inj {
			j.Tick(m)
		}
		m.Step()
		for s := 0; s < k; s++ {
			tr.awp[s][c] = m.WindowFile(s).AWP()
			tr.pcs[s][c] = m.StreamPC(s)
		}
	}
	if rec.Total() > uint64(rec.Cap()) {
		t.Fatalf("flight recorder overflowed (%d events, ring %d): validation would miss events",
			rec.Total(), rec.Cap())
	}
	tr.events = rec.Events()
	return tr
}

// summarizeFor builds the static summary the validator checks a stream
// against, converting the setup's device spans into analyzer bus
// ranges. The program must analyze without error findings — a load the
// analyzer rejects cannot be validated.
func summarizeFor(t *testing.T, tag string, im *asm.Image, entries []uint16, streams int, devs []xval.DeviceSpan) *analysis.Summary {
	t.Helper()
	opts := analysis.Options{
		Entries:   entries,
		Streams:   streams,
		NoVectors: true,
	}
	for _, d := range devs {
		opts.BusRanges = append(opts.BusRanges, analysis.BusRange{Base: d.Base, Size: d.Size, Wait: d.Wait})
	}
	sum, rep := analysis.Summarize(im, opts)
	if n := rep.ErrorCount(); n > 0 {
		for _, f := range rep.Findings {
			if f.Severity == analysis.Error {
				t.Errorf("%s: %s", tag, f)
			}
		}
		t.Fatalf("%s: %d static error finding(s) in a program that runs", tag, n)
	}
	return sum
}

// retireRec is one retire event reduced to what the checks need.
type retireRec struct {
	cycle uint64
	pc    uint16
}

func retiresByStream(tr *trace, streams int) [][]retireRec {
	out := make([][]retireRec, streams)
	for _, ev := range tr.events {
		if ev.Kind == obs.KindRetire && ev.Stream >= 0 && int(ev.Stream) < streams {
			out[ev.Stream] = append(out[ev.Stream], retireRec{cycle: ev.Cycle, pc: ev.PC})
		}
	}
	return out
}

// checkBusEvents verifies the ABI side of the summaries: every bus-wait
// and bus-retry event names the posting instruction's PC, and that PC
// must land in a block the static analysis says performs bus accesses
// (and therefore is not event-free). Returns how many events it
// checked.
func checkBusEvents(t *testing.T, tag string, tr *trace, sums []*analysis.Summary) int {
	t.Helper()
	n := 0
	for _, ev := range tr.events {
		if ev.Kind != obs.KindBusWait && ev.Kind != obs.KindBusRetry {
			continue
		}
		s := int(ev.Stream)
		if s < 0 || s >= len(sums) {
			continue
		}
		n++
		b := sums[s].BlockAt(ev.PC)
		if b == nil {
			t.Errorf("%s: IS%d %s at pc=%#04x: no static block covers this address", tag, s, ev.Kind, ev.PC)
			continue
		}
		if b.BusAccesses == 0 {
			t.Errorf("%s: IS%d %s at pc=%#04x inside block %04x..%04x the analysis calls bus-free",
				tag, s, ev.Kind, ev.PC, b.Start, b.End)
		}
		if b.EventFree {
			t.Errorf("%s: IS%d %s at pc=%#04x inside an event-free block %04x..%04x",
				tag, s, ev.Kind, ev.PC, b.Start, b.End)
		}
	}
	return n
}

// checkIRQEvents attributes interrupt raises and acks to the
// instruction executing when they fired: the event is emitted during
// some instruction's EX stage, so that instruction retires exactly
// retireExecOffset cycles later, and its block must be IRQ-visible.
// Raises are skipped when fromOutside is set (an injector, not an
// instruction, raised them). Returns how many events it attributed.
func checkIRQEvents(t *testing.T, tag string, tr *trace, sums []*analysis.Summary, retires [][]retireRec, fromOutside bool) int {
	t.Helper()
	n := 0
	for _, ev := range tr.events {
		var kind string
		switch ev.Kind {
		case obs.KindIRQAck:
			kind = "irq-ack"
		case obs.KindIRQRaise:
			if fromOutside {
				continue
			}
			kind = "irq-raise"
		default:
			continue
		}
		// An event in the last cycles of the run may have its retire past
		// the sampled window; it cannot be attributed either way.
		if ev.Cycle+retireExecOffset > uint64(tr.cycles) {
			continue
		}
		// The acking instruction runs on the event's stream; a raise may
		// come from any stream's SIGNAL/SSTART, so search them all.
		cand := []int{int(ev.Stream)}
		if ev.Kind == obs.KindIRQRaise {
			cand = nil
			for s := range retires {
				cand = append(cand, s)
			}
		}
		attributed := false
		var at []string
		for _, s := range cand {
			if s < 0 || s >= len(retires) {
				continue
			}
			for _, r := range retires[s] {
				if r.cycle != ev.Cycle+retireExecOffset {
					continue
				}
				b := sums[s].BlockAt(r.pc)
				if b == nil {
					continue
				}
				at = append(at, fmt.Sprintf("IS%d pc=%#04x block %04x..%04x", s, r.pc, b.Start, b.End))
				if b.IRQVisible && !b.EventFree {
					attributed = true
				}
			}
		}
		if !attributed {
			t.Errorf("%s: %s bit=%d at cycle %d: no IRQ-visible block owns an instruction executing then (candidates: %v)",
				tag, kind, ev.A, ev.Cycle, at)
			continue
		}
		n++
	}
	return n
}

// checkWindowDeltas replays the per-stream retire sequences against the
// block summaries: whenever the sequence walks a whole block start to
// end with no interleaved instruction, the AWP sampled around the
// block's EX window must have moved by exactly the static
// NetWindowDelta. Returns how many full traversals it verified.
func checkWindowDeltas(t *testing.T, tag string, tr *trace, sums []*analysis.Summary, retires [][]retireRec) int {
	t.Helper()
	n := 0
	for s, rs := range retires {
		sum := sums[s]
		for i := 0; i < len(rs); i++ {
			b := sum.BlockAt(rs[i].pc)
			if b == nil || !b.DeltaKnown || rs[i].pc != b.Start {
				continue
			}
			// The next Len-1 retires must be the rest of the block, in
			// order; anything else (a vectored handler, a truncated run)
			// abandons the traversal.
			last := i + b.Len - 1
			if last >= len(rs) {
				continue
			}
			ok := true
			for j := i + 1; j <= last; j++ {
				if rs[j].pc != rs[i].pc+uint16(j-i) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			e0 := int64(rs[i].cycle) - retireExecOffset
			en := int64(rs[last].cycle) - retireExecOffset
			if e0 < 1 || en > int64(tr.cycles) {
				continue
			}
			got := tr.awp[s][en] - tr.awp[s][e0-1]
			if got != b.NetWindowDelta {
				t.Errorf("%s: IS%d block %04x..%04x (cycles %d..%d): AWP moved %+d, static NetWindowDelta %+d",
					tag, s, b.Start, b.End, e0, en, got, b.NetWindowDelta)
			}
			n++
			i = last
		}
	}
	return n
}

// TestAbsintValidatesTableLoads replays the four Table 4.1 loads — the
// same generated-program machines the cross-validation and equivalence
// suites use — at every stream count and checks every recorded event
// against the static summaries.
func TestAbsintValidatesTableLoads(t *testing.T) {
	for _, p := range workload.Base() {
		p.MeanOn, p.MeanOff = 0, 0 // program generation needs always-active streams
		for k := 1; k <= isa.NumStreams; k++ {
			tag := fmt.Sprintf("%s/k=%d", p.Name, k)
			setup, err := xval.NewLoadSetup(p, k, 0x5EED, core.Config{})
			if err != nil {
				t.Fatal(err)
			}
			sums := make([]*analysis.Summary, k)
			for s := 0; s < k; s++ {
				sums[s] = summarizeFor(t, tag, setup.Images[s],
					[]uint16{setup.Entries[s]}, k, setup.Devices)
			}
			tr := runSampled(t, setup.Machine, 6000)
			retires := retiresByStream(tr, k)

			busEvents := checkBusEvents(t, tag, tr, sums)
			if p.MeanReq > 0 && busEvents == 0 {
				t.Errorf("%s: a bus-bound load produced no bus events to validate", tag)
			}
			checkIRQEvents(t, tag, tr, sums, retires, false)
			if trav := checkWindowDeltas(t, tag, tr, sums, retires); trav < 50 {
				t.Errorf("%s: only %d full block traversals verified; sampling broke", tag, trav)
			}
		}
	}
}

// controlProgram is a hand-written two-stream program exercising every
// event class the summaries track: a CALL/RET frame (the event-free,
// delta-carrying callee), a SIGNAL/WAITI join, an external load, and
// HALT. Stream 1 masks bit 1 so the join consumes via WAITI rather
// than vectoring — the ack-while-parked attribution case.
const controlProgram = `
.org 0x100
main:
    LI     R2, 0x400
    LDI    R3, 3
outer:
    CALL   work
    SIGNAL 1, 1
    LD     R4, [R2+0]
    SUBI   R3, 1
    BNE    outer
    HALT
work:
    NOP+
    LDI    R0, 7
    NOP-
    RET    0

.org 0x180
side:
    SETMR  0xFD
loop:
    WAITI  1
    ADDI   R0, 1
    JMP    loop
`

// buildControlMachine assembles the control program onto a two-stream
// machine with the external RAM wrapped in dev (pass a transparent
// wrapper for a clean run).
func buildControlMachine(t *testing.T, dev bus.Device) (*core.Machine, *asm.Image, *analysis.Summary) {
	t.Helper()
	im, err := asm.Assemble(controlProgram)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.New(core.Config{Streams: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Bus().Attach(isa.ExternalBase, 64, dev); err != nil {
		t.Fatal(err)
	}
	if err := im.Load(m, nil); err != nil {
		t.Fatal(err)
	}
	if err := m.StartStream(0, 0x100); err != nil {
		t.Fatal(err)
	}
	if err := m.StartStream(1, 0x180); err != nil {
		t.Fatal(err)
	}
	sum := summarizeFor(t, "control", im, []uint16{0x100, 0x180}, 2,
		[]xval.DeviceSpan{{Base: isa.ExternalBase, Size: 64, Wait: 2}})
	return m, im, sum
}

// TestAbsintValidatesControlProgram runs the hand-written program clean
// and checks every event class, including instruction-caused raises.
// It also pins the static shape the dynamic checks rely on: the callee
// block really is event-free with a known -1 delta.
func TestAbsintValidatesControlProgram(t *testing.T) {
	m, im, sum := buildControlMachine(t, bus.NewRAM("mem", 64, 2))
	work := sum.BlockAt(im.Labels["work"])
	if work == nil || !work.EventFree || !work.DeltaKnown || work.NetWindowDelta != -1 {
		t.Fatalf("callee block summary wrong: %+v", work)
	}
	tr := runSampled(t, m, 400)
	sums := []*analysis.Summary{sum, sum} // both streams share the image
	retires := retiresByStream(tr, 2)

	if n := checkBusEvents(t, "control", tr, sums); n == 0 {
		t.Error("control: no bus events recorded; the LD never posted")
	}
	if n := checkIRQEvents(t, "control", tr, sums, retires, false); n == 0 {
		t.Error("control: no IRQ events attributed; the SIGNAL/WAITI join never fired")
	}
	if n := checkWindowDeltas(t, "control", tr, sums, retires); n < 3 {
		t.Errorf("control: only %d block traversals verified, expected the 3 callee activations", n)
	}
}

// TestAbsintValidatesChaosSchedules re-runs the validation under fault
// injection: stream stalls against a Table 4.1 load, and an interrupt
// storm plus a misbehaving external RAM against the control program.
// Chaos reorders and delays events but must never move one into a
// block the static analysis proved event-free.
func TestAbsintValidatesChaosSchedules(t *testing.T) {
	t.Run("stalls", func(t *testing.T) {
		p := workload.Ld1
		p.MeanOn, p.MeanOff = 0, 0
		const k = 4
		setup, err := xval.NewLoadSetup(p, k, 0xC4A05, core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		sums := make([]*analysis.Summary, k)
		for s := 0; s < k; s++ {
			sums[s] = summarizeFor(t, "stalls", setup.Images[s],
				[]uint16{setup.Entries[s]}, k, setup.Devices)
		}
		tr := runSampled(t, setup.Machine, 6000,
			fault.StreamStall{Stream: 1, At: 500, For: 300},
			fault.StreamStall{Stream: 3, At: 900, For: 700},
			fault.StreamStall{Stream: 1, At: 2500, For: 150},
		)
		retires := retiresByStream(tr, k)
		if n := checkBusEvents(t, "stalls", tr, sums); n == 0 {
			t.Error("stalls: no bus events to validate")
		}
		checkIRQEvents(t, "stalls", tr, sums, retires, false)
		if trav := checkWindowDeltas(t, "stalls", tr, sums, retires); trav < 50 {
			t.Errorf("stalls: only %d full block traversals verified", trav)
		}
	})

	t.Run("storm", func(t *testing.T) {
		dev := fault.Wrap(bus.NewRAM("mem", 64, 2), fault.DeviceConfig{
			Seed:          0xBADDEED,
			ExtraWaitProb: 0.3, ExtraWaitMax: 5,
			FaultProb: 0.1,
		})
		m, _, sum := buildControlMachine(t, dev)
		storm := fault.NewStorm(fault.StormConfig{
			Seed: 0x57012, MeanGap: 7, Streams: []int{1}, Bits: []uint8{1},
		})
		tr := runSampled(t, m, 1500, storm)
		if storm.Raised == 0 {
			t.Fatal("storm never fired")
		}
		sums := []*analysis.Summary{sum, sum}
		retires := retiresByStream(tr, 2)
		checkBusEvents(t, "storm", tr, sums)
		// Raises come from the injector; acks are still instruction-caused
		// (WAITI consuming the stormed bit) and must attribute.
		if n := checkIRQEvents(t, "storm", tr, sums, retires, true); n == 0 {
			t.Error("storm: no acks attributed; WAITI never consumed a stormed bit")
		}
		checkWindowDeltas(t, "storm", tr, sums, retires)
	})
}
