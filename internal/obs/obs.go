// Package obs is the simulator's observability layer: a structured
// event-tracing and metrics subsystem for the DISC1 machine.
//
// The paper makes its argument through visibility into the interleave —
// Figures 3.1–3.3 are pipeline-occupancy and throughput-reallocation
// traces — and this package turns the simulator's run-time behaviour
// into the same kind of record, at production fidelity: typed events
// for the moments that matter in this design (dispatch, retire, flush,
// stream state transitions, throughput-slot donation, interrupt
// raise/vector/ack, and the ABI's wait/retry/timeout/fault protocol),
// captured into a fixed-size ring-buffer flight recorder and exportable
// as a Chrome trace-event JSON that Perfetto renders with one track per
// stream and one per pipe stage.
//
// The contract with the hot loop is strict: emitters hold a *Recorder
// that is nil when tracing is off, and every emission site is guarded
// by that single nil check. With hooks disabled a machine Step performs
// zero allocations (the root TestObsDisabledZeroAllocs pins it on every
// Table 4.1 load and engine; discbench's core.ns_per_cycle.ld* rows
// measure the speed); with hooks enabled, recording is observation only — a machine run with a
// recorder attached is byte-identical to one without (the root
// obs_equiv_test.go differential proof).
package obs

import "fmt"

// Kind classifies an Event.
type Kind uint8

// Event kinds. The taxonomy follows the machine's own seams: pipeline
// events (issue/retire/flush), scheduling events (slot donation),
// stream lifecycle (state transitions), the per-stream interrupt
// structure (raise/vector/ack), and the two sides of the asynchronous
// bus protocol — the stream side (wait, busy-retry) emitted by the
// core, and the bus side (start, complete, timeout, fault) emitted by
// the ABI itself.
const (
	// KindIssue: an instruction (or interrupt-entry micro-op, B=1 with
	// the bit in A) entered the IF stage. PC is the fetch address.
	KindIssue Kind = iota
	// KindRetire: an instruction completed WR. PC is its address.
	KindRetire
	// KindFlush: an in-flight instruction was squashed on wait-state
	// entry (§4.1's flush rule). PC is its address.
	KindFlush
	// KindStreamState: the stream moved between scheduling states.
	// A is the old StreamCode, B the new one.
	KindStreamState
	// KindSlotDonated: the scheduler reallocated a slot whose static
	// owner (A) was not ready to the recorded Stream (§3.4).
	KindSlotDonated
	// KindIRQRaise: interrupt bit A was requested on the stream.
	KindIRQRaise
	// KindIRQVector: the stream vectored to a handler for bit A.
	// PC is the vector address, Addr the interrupted (return) PC.
	KindIRQVector
	// KindIRQAck: interrupt bit A was cleared by its owning stream
	// (CLRI, a WAITI join consuming its bit, HALT, or RETI's exit).
	KindIRQAck
	// KindBusWait: the stream posted an external access (Addr; A=1 for
	// a store) and entered the §3.6.1 wait state.
	KindBusWait
	// KindBusRetry: the stream found the bus busy (Addr) and was
	// flushed to retry after reactivation — the busy-flag protocol.
	KindBusRetry
	// KindBusStart: the ABI began an access (Addr; A=1 for a store).
	KindBusStart
	// KindBusComplete: the access finished. Addr, Data (loads), and
	// Aux = bus cycles the access occupied.
	KindBusComplete
	// KindBusTimeout: the bounded-wait budget abandoned the access
	// (Addr, Aux = cycles elapsed).
	KindBusTimeout
	// KindBusFault: the access failed — B=0 unmapped address, B=1 the
	// device refused it (Addr, A=1 for a store, Aux = cycles elapsed).
	KindBusFault
	// KindBlockEnter: the block engine opened a fused session at PC.
	// Per-instruction issue/retire events inside the session are
	// summarized by the enter/exit pair (interleave-visible events
	// cannot occur inside one by construction, DESIGN.md §13).
	KindBlockEnter
	// KindBlockExit: the fused session ended. PC is the next fetch
	// address, Aux the cycles the session covered, Data the
	// instructions issued, and B=1 when the session ended early on an
	// external memory access (the bail path).
	KindBlockExit
	// KindBlockChain: a fused session ran off the end of one compiled
	// region straight into another without returning to the
	// interpreter. PC is the new region's entry; Aux the cycles covered
	// so far in the session.
	KindBlockChain
	// KindBlockDemote: the adaptive gate stopped dispatching the region
	// at PC (chronic bailing); Aux is the retry backoff in attempts.
	KindBlockDemote
	// KindBlockPromote: a probe session re-qualified the region at PC
	// for dispatch.
	KindBlockPromote

	// NumKinds bounds the Kind space (metrics index by it).
	NumKinds
)

var kindNames = [NumKinds]string{
	"issue", "retire", "flush", "state", "donated",
	"irq-raise", "irq-vector", "irq-ack",
	"bus-wait", "bus-retry", "bus-start", "bus-complete", "bus-timeout", "bus-fault",
	"block-enter", "block-exit", "block-chain", "block-demote", "block-promote",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// StreamCode is the observability view of a stream's scheduling state.
// It widens core.StreamState with the "halted" condition (no pending IR
// bit), which the machine does not store as a state but which is the
// condition Figure 3.3's throughput reallocation hinges on.
type StreamCode uint8

// Stream codes carried in KindStreamState events (fields A and B).
const (
	StreamRun     StreamCode = iota // fetching normally
	StreamBusWait                   // blocked on the ABI (§3.6.1)
	StreamIRQWait                   // WAITI: blocked on an IR bit
	StreamHalted                    // no unmasked IR bit pending
)

var streamCodeNames = [...]string{"run", "buswait", "irqwait", "halted"}

func (c StreamCode) String() string {
	if int(c) < len(streamCodeNames) {
		return streamCodeNames[c]
	}
	return fmt.Sprintf("StreamCode(%d)", uint8(c))
}

// MachineStream is the Stream value of events that belong to the
// machine (or the bus) rather than to one instruction stream.
const MachineStream = -1

// Event is one recorded moment. It is a fixed-size value — no pointers,
// no strings — so the flight recorder's ring is a flat preallocated
// array and Emit never allocates.
type Event struct {
	Cycle  uint64 // machine cycle at emission
	Aux    uint64 // kind-specific magnitude (bus cycles elapsed)
	PC     uint16 // program address, where meaningful
	Addr   uint16 // data address (bus events) or return PC (vectoring)
	Data   uint16 // load result (bus completions)
	Kind   Kind
	Stream int8 // owning stream, or MachineStream
	A, B   uint8
}

// String renders the event in the flight-recorder dump format.
func (e Event) String() string {
	who := "machine"
	if e.Stream >= 0 {
		who = fmt.Sprintf("IS%d", e.Stream)
	}
	switch e.Kind {
	case KindIssue:
		if e.B != 0 {
			return fmt.Sprintf("[c=%d] %s issue INT%d vector=%#04x", e.Cycle, who, e.A, e.PC)
		}
		return fmt.Sprintf("[c=%d] %s issue pc=%#04x", e.Cycle, who, e.PC)
	case KindRetire:
		return fmt.Sprintf("[c=%d] %s retire pc=%#04x", e.Cycle, who, e.PC)
	case KindFlush:
		return fmt.Sprintf("[c=%d] %s flush pc=%#04x", e.Cycle, who, e.PC)
	case KindStreamState:
		return fmt.Sprintf("[c=%d] %s state %s -> %s", e.Cycle, who, StreamCode(e.A), StreamCode(e.B))
	case KindSlotDonated:
		return fmt.Sprintf("[c=%d] %s got IS%d's slot", e.Cycle, who, e.A)
	case KindIRQRaise:
		return fmt.Sprintf("[c=%d] %s irq-raise bit=%d", e.Cycle, who, e.A)
	case KindIRQVector:
		return fmt.Sprintf("[c=%d] %s irq-vector bit=%d to=%#04x ret=%#04x", e.Cycle, who, e.A, e.PC, e.Addr)
	case KindIRQAck:
		return fmt.Sprintf("[c=%d] %s irq-ack bit=%d", e.Cycle, who, e.A)
	case KindBusWait:
		return fmt.Sprintf("[c=%d] %s bus-wait %s addr=%#04x", e.Cycle, who, rw(e.A), e.Addr)
	case KindBusRetry:
		return fmt.Sprintf("[c=%d] %s bus-retry addr=%#04x", e.Cycle, who, e.Addr)
	case KindBusStart:
		return fmt.Sprintf("[c=%d] %s bus-start %s addr=%#04x", e.Cycle, who, rw(e.A), e.Addr)
	case KindBusComplete:
		return fmt.Sprintf("[c=%d] %s bus-complete addr=%#04x data=%#04x lat=%d", e.Cycle, who, e.Addr, e.Data, e.Aux)
	case KindBusTimeout:
		return fmt.Sprintf("[c=%d] %s bus-timeout addr=%#04x after=%d", e.Cycle, who, e.Addr, e.Aux)
	case KindBusFault:
		cause := "unmapped"
		if e.B != 0 {
			cause = "device-fault"
		}
		return fmt.Sprintf("[c=%d] %s bus-fault (%s) addr=%#04x", e.Cycle, who, cause, e.Addr)
	case KindBlockEnter:
		return fmt.Sprintf("[c=%d] %s block-enter pc=%#04x", e.Cycle, who, e.PC)
	case KindBlockExit:
		end := "run"
		if e.B != 0 {
			end = "bail"
		}
		return fmt.Sprintf("[c=%d] %s block-exit (%s) next=%#04x cycles=%d issued=%d", e.Cycle, who, end, e.PC, e.Aux, e.Data)
	case KindBlockChain:
		return fmt.Sprintf("[c=%d] %s block-chain pc=%#04x cycles=%d", e.Cycle, who, e.PC, e.Aux)
	case KindBlockDemote:
		return fmt.Sprintf("[c=%d] %s block-demote region=%#04x backoff=%d", e.Cycle, who, e.PC, e.Aux)
	case KindBlockPromote:
		return fmt.Sprintf("[c=%d] %s block-promote region=%#04x", e.Cycle, who, e.PC)
	}
	return fmt.Sprintf("[c=%d] %s %s", e.Cycle, who, e.Kind)
}

// rw renders the write flag of bus events.
func rw(a uint8) string {
	if a != 0 {
		return "st"
	}
	return "ld"
}
