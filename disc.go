package disc

import (
	"disc/internal/analysis"
	"disc/internal/asm"
	"disc/internal/blockc"
	"disc/internal/bus"
	"disc/internal/core"
	"disc/internal/fault"
	"disc/internal/interrupt"
	"disc/internal/isa"
	"disc/internal/rt"
	"disc/internal/snap"
)

// Machine is a configured DISC1 processor. See core.Machine for the
// full method set: Step, the driver loop (NewGuard(...).StepN runs a
// whole cycle budget under the deadlock watchdog; Run, RunUntilIdle and
// RunGuarded are the same loop), Stats, Bus, Internal memory,
// per-stream windows and interrupt units, and PipeView for tracing.
type Machine = core.Machine

// Config selects machine geometry: stream count, stack-window depth,
// vector base and the scheduler partition (Shares or explicit Slots).
type Config = core.Config

// Stats summarises a machine run; Stats.Utilization is the paper's PD.
type Stats = core.Stats

// Image is an assembled DISC1 program.
type Image = asm.Image

// Architectural constants re-exported for callers sizing programs.
const (
	NumStreams   = isa.NumStreams
	PipeDepth    = isa.PipeDepth
	WindowSize   = isa.WindowSize
	InternalSize = isa.InternalSize
	ExternalBase = isa.ExternalBase
	IOBase       = isa.IOBase
)

// NewMachine builds a DISC1 machine.
func NewMachine(cfg Config) (*Machine, error) { return core.New(cfg) }

// Assemble translates DISC1 assembly source (see internal/asm for the
// syntax) into a loadable image.
func Assemble(source string) (*Image, error) { return asm.Assemble(source) }

// Static analysis (internal/analysis) re-exports: a CFG/dataflow
// checker for assembled programs — decode legality, reachability,
// §3.5 stack-window depth balance, use-before-def, interrupt-vector
// sanity. cmd/disclint is the command-line front end.
type (
	// AnalysisOptions selects what AnalyzeImage checks and how strictly.
	AnalysisOptions = analysis.Options
	// Finding is one structured diagnostic: pass, severity and the
	// address/label/line position of the offending word.
	Finding = analysis.Finding
	// AnalysisReport is a sorted finding list with severity accessors.
	AnalysisReport = analysis.Report
)

// AnalyzeImage runs the full static-analysis pipeline over an image.
func AnalyzeImage(im *Image, opts AnalysisOptions) *AnalysisReport {
	return analysis.Analyze(im, opts)
}

// AssembleChecked assembles source and refuses it when the analyzer
// reports any error-severity finding — the load-time gate discasm and
// discsim expose as -lint.
func AssembleChecked(source string, opts AnalysisOptions) (*Image, error) {
	return asm.AssembleWith(source, analysis.Gate(opts))
}

// Abstract-interpretation facts (internal/analysis): SummarizeImage is
// AnalyzeImage plus the machine-readable block summaries the block
// engine (internal/blockc) and schedule planners consume — basic
// blocks with side-effect flags, net
// stack-window deltas, bus-access and static-stall bounds, and
// per-entry stream profiles. The summary serializes as JSON under the
// pinned schema "disc-absint/1" (disclint -facts-out).
type (
	// ProgramSummary is the whole-image fact base.
	ProgramSummary = analysis.Summary
	// BlockSummary is one basic block's side-effect summary.
	BlockSummary = analysis.BlockSummary
	// StreamProfile aggregates block facts over one stream entry.
	StreamProfile = analysis.StreamProfile
	// BusRange declares one decoded bus window to the value pass.
	BusRange = analysis.BusRange
)

// SummarizeImage runs the analysis pipeline and returns the block
// summaries together with the diagnostic report.
func SummarizeImage(im *Image, opts AnalysisOptions) (*ProgramSummary, *AnalysisReport) {
	return analysis.Summarize(im, opts)
}

// Block-compiled execution (internal/blockc + internal/core): the
// analysis pipeline's EventFree facts drive a table of pre-compiled
// fused sessions that the machine dispatches in place of per-cycle
// stepping wherever no interleave-visible event can occur. Cycle-exact
// by contract — see the blockc package documentation and DESIGN.md
// §13.
type (
	// BlockTable holds the compiled fused regions for one program image,
	// keyed to the program store's mutation version.
	BlockTable = core.BlockTable
	// BlockStats counts fused sessions, cycles, instructions and bails.
	BlockStats = core.BlockStats
	// RegionSpec proposes one address range for block compilation.
	RegionSpec = core.RegionSpec
	// BlockCoverage reports how much of a plan survived compilation.
	BlockCoverage = blockc.Coverage
)

// MinFuseLen is the shortest instruction run a fused session can cover.
const MinFuseLen = core.MinFuseLen

// PlanBlocks converts a program summary into block-compilation
// proposals; CompileBlocks builds the table for a machine's program
// store.
var (
	PlanBlocks    = blockc.Plan
	CompileBlocks = blockc.Compile
)

// AttachBlockEngine analyzes im, compiles the resulting plan and
// attaches the block table to m — the one-call opt-in to
// block-compiled execution. The image must already be loaded. The
// plan and report of each (image, options) pair are computed once and
// reused, so re-attaching after a fork or Restore costs only the table
// build; do not modify an image after its first attach, and treat the
// returned report as shared and read-only.
func AttachBlockEngine(m *Machine, im *Image, opts AnalysisOptions) (*BlockTable, *AnalysisReport) {
	return blockc.Attach(m, im, opts)
}

// Disassemble renders machine words as assembly, one line per word.
func Disassemble(words []Word, base uint16) []string { return asm.Disassemble(words, base) }

// Word is one 24-bit DISC1 instruction word.
type Word = isa.Word

// LoadImage installs every section of an assembled image into the
// machine's program memory.
func LoadImage(m *Machine, im *Image) error { return im.Load(m, nil) }

// Build assembles source, loads it, and starts each stream named in
// starts at the given label or address, in stream order — the one-call
// path from source text to a runnable machine. The machine has no
// devices on its bus.
func Build(cfg Config, source string, starts map[int]string) (*Machine, error) {
	m, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	im, err := asm.Assemble(source)
	if err != nil {
		return nil, err
	}
	if err := im.Load(m, starts); err != nil {
		return nil, err
	}
	return m, nil
}

// Peripheral device constructors, re-exported so examples and callers
// can populate the asynchronous bus without importing internals.
var (
	NewRAM      = bus.NewRAM
	NewTimer    = bus.NewTimer
	NewUART     = bus.NewUART
	NewADC      = bus.NewADC
	NewStepper  = bus.NewStepper
	NewGPIO     = bus.NewGPIO
	NewWatchdog = bus.NewWatchdog
)

// ABI error taxonomy (internal/bus): a failed external access completes
// with a *BusError whose Cause is one of the sentinel errors below.
// Check with errors.Is / errors.As.
type BusError = bus.BusError

var (
	// ErrUnmapped: no device answers the address.
	ErrUnmapped = bus.ErrUnmapped
	// ErrTimeout: the access exceeded the Bus.SetTimeout budget.
	ErrTimeout = bus.ErrTimeout
	// ErrDeviceFault: the device refused the offset (e.g. out of range).
	ErrDeviceFault = bus.ErrDeviceFault
)

// BusFaultIRQ is the IR bit raised on the issuing stream when an
// external access fails and Config.TrapBusFaults is set.
const BusFaultIRQ = interrupt.BusFault

// Liveness diagnoses returned by Machine.RunGuarded (internal/core).
type (
	// DeadlockError: every stream is waiting and nothing progressed
	// for the watchdog window; it names each stream's blocker.
	DeadlockError = core.DeadlockError
	// CycleLimitError: the run exceeded its hard cycle budget.
	CycleLimitError = core.CycleLimitError
	// StreamDiag is one stream's state inside a DeadlockError.
	StreamDiag = core.StreamDiag
)

// Deterministic fault injection (internal/fault) re-exports.
type (
	// FaultConfig shapes the per-device fault model; the zero value is
	// a transparent proxy.
	FaultConfig = fault.DeviceConfig
	// FaultWindow is a half-open [From, To) cycle interval.
	FaultWindow = fault.Window
	// FaultyDevice wraps a bus device with seeded fault injection.
	FaultyDevice = fault.Device
	// FaultStats counts what the wrapper actually injected.
	FaultStats = fault.DeviceStats
	// StormConfig shapes an interrupt-storm injector.
	StormConfig = fault.StormConfig
	// Storm raises interrupt bursts at seeded random intervals.
	Storm = fault.Storm
	// StreamStall freezes one stream for a fixed period.
	StreamStall = fault.StreamStall
	// Injector perturbs a machine from outside, once per cycle.
	Injector = fault.Injector
)

// WrapFaulty wraps a device for fault injection; NewStorm builds an
// interrupt-storm injector.
var (
	WrapFaulty = fault.Wrap
	NewStorm   = fault.NewStorm
)

// RunInjected steps the machine for n cycles under the injectors.
func RunInjected(m *Machine, n int, inj ...Injector) { fault.Run(m, n, inj...) }

// RunGuardedInjected is RunInjected with the liveness watchdog armed:
// it stops on clean idle, a diagnosed deadlock or the cycle budget.
func RunGuardedInjected(m *Machine, maxCycles int, stallWindow uint64, inj ...Injector) (int, error) {
	return fault.RunGuarded(m, maxCycles, stallWindow, inj...)
}

// Crash-safe snapshot/restore (internal/core + internal/snap): a
// Snapshot captures complete machine state — streams, pipe, scheduler,
// memories, bus and device state — such that a machine restored from
// it continues byte-identically to one that never stopped. The snap
// package serializes snapshots in the versioned "disc-snap/1" binary
// format (DESIGN.md §14) with crash-atomic writes; its decoder treats
// snapshot files as untrusted input and returns *SnapshotFormatError
// rather than panicking on corruption.
type (
	// Snapshot is one machine's complete architectural state.
	Snapshot = core.Snapshot
	// SnapshotFormatError locates a format violation in a snapshot file.
	SnapshotFormatError = snap.FormatError
	// DeviceStater is the optional interface a bus device implements to
	// have its internal state carried through snapshots.
	DeviceStater = snap.Stater
)

// TakeSnapshot captures m's state; see Machine.Snapshot and
// Machine.Restore for the round-trip contract.
func TakeSnapshot(m *Machine) (*Snapshot, error) { return m.Snapshot() }

// SaveSnapshot / LoadSnapshot / CaptureSnapshot are the file-backed
// forms: encode-and-write (crash-atomically), read-and-decode, and
// snapshot-then-save in one call.
var (
	SaveSnapshot    = snap.Save
	LoadSnapshot    = snap.Load
	CaptureSnapshot = snap.Capture
)

// Real-time measurement helpers (package rt).
type (
	// PeriodicTask binds a hard-deadline task to a stream and IR bit.
	PeriodicTask = rt.PeriodicTask
	// TaskResult reports a task's deadline behaviour.
	TaskResult = rt.TaskResult
	// LatencySamples holds interrupt-latency measurements in cycles.
	LatencySamples = rt.Samples
)

// MeasureDispatchLatency measures cycles from raising an interrupt to
// the target stream entering its handler level.
func MeasureDispatchLatency(m *Machine, stream int, bit uint8, events, gap int) (LatencySamples, int, error) {
	return rt.MeasureDispatchLatency(m, stream, bit, events, gap)
}

// RunDeadlines drives the machine with periodic interrupt activations
// and accounts deadline misses per task.
func RunDeadlines(m *Machine, tasks []PeriodicTask, cycles uint64) ([]TaskResult, error) {
	return rt.RunDeadlines(m, tasks, cycles)
}

// ConventionalLatency is the closed-form context-saving interrupt
// latency of a conventional single-stream controller, the comparison
// point for MeasureDispatchLatency.
func ConventionalLatency(pipeLen, regs, memWait int) uint64 {
	return rt.ConventionalLatency(pipeLen, regs, memWait)
}
