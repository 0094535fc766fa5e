package disc

import (
	"io"

	"disc/internal/obs"
)

// Observability (internal/obs) re-exports: the flight recorder, event
// taxonomy, metrics registry and the Chrome trace-event exporter.
// Attach a recorder with Machine.SetRecorder; detach with nil. With no
// recorder attached the machine's hot loop pays nothing but nil checks
// (TestObsDisabledZeroAllocs pins 0 allocs/op; discbench's
// traced.mcyc_per_s against mcyc_per_s measures the cost of tracing),
// and recording itself never perturbs execution — a run with a
// recorder is byte-identical to one without (obs_equiv_test.go).
type (
	// Recorder is the fixed-size ring-buffer flight recorder.
	Recorder = obs.Recorder
	// Event is one recorded moment: issue, retire, flush, stream
	// state transition, slot donation, IRQ raise/vector/ack, or one
	// side of the ABI protocol.
	Event = obs.Event
	// EventKind classifies an Event.
	EventKind = obs.Kind
	// Metrics is the per-stream metrics registry: event counters plus
	// bus-latency and dispatch-gap histograms.
	Metrics = obs.Metrics
	// Histogram is the registry's fixed-size log2 histogram.
	Histogram = obs.Histogram
	// StreamCode is the observability view of a stream's scheduling
	// state (run / buswait / irqwait / halted).
	StreamCode = obs.StreamCode
)

// Event kinds.
const (
	EventIssue       = obs.KindIssue
	EventRetire      = obs.KindRetire
	EventFlush       = obs.KindFlush
	EventStreamState = obs.KindStreamState
	EventSlotDonated = obs.KindSlotDonated
	EventIRQRaise    = obs.KindIRQRaise
	EventIRQVector   = obs.KindIRQVector
	EventIRQAck      = obs.KindIRQAck
	EventBusWait     = obs.KindBusWait
	EventBusRetry    = obs.KindBusRetry
	EventBusStart    = obs.KindBusStart
	EventBusComplete = obs.KindBusComplete
	EventBusTimeout  = obs.KindBusTimeout
	EventBusFault    = obs.KindBusFault
)

// NewRecorder builds a flight recorder holding the last `capacity`
// events (rounded up to a power of two, minimum 16).
func NewRecorder(capacity int) *Recorder { return obs.NewRecorder(capacity) }

// DefaultRecorderCapacity is the CLIs' default ring size.
const DefaultRecorderCapacity = obs.DefaultCapacity

// WriteChromeTrace renders recorded events as Chrome trace-event JSON,
// loadable in ui.perfetto.dev or chrome://tracing: one track per
// instruction stream, one per pipeline stage, one for the ABI.
func WriteChromeTrace(w io.Writer, events []Event) error {
	return obs.WriteChromeTrace(w, events)
}
