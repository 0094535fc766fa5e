// Package blockc plans and builds block-compiled execution tables: it
// is the bridge from the static analysis pipeline (internal/analysis,
// the disc-absint/1 block summary) to the core's fused-session
// executor (internal/core, DESIGN.md §13).
//
// # Division of labour
//
// The qualification that lets a run of instructions execute as one
// fused dispatch is split in three, and this package owns only the
// middle layer:
//
//   - internal/analysis proves static facts per basic block — the
//     EventFree bit: no bus access site, no IRQ-visible or
//     stream-control instruction, a statically known net stack-window
//     delta (Summary.FusibleSpans chains contiguous EventFree blocks
//     into candidate spans, and bridges chains across short
//     proven-dead gaps behind always-taken transfers);
//   - blockc (this package) turns those spans into core.RegionSpec
//     proposals and asks the core to compile them;
//   - internal/core re-qualifies every proposed instruction through
//     its own op compiler and, at run time, checks the live machine
//     state at every session entry (sole ready stream, idle bus, no
//     dispatchable interrupt, stack-window headroom for the whole
//     run).
//
// # Region forms
//
// A compiled region takes one of three dynamic shapes, all proposed
// through the same RegionSpec and distinguished only by what the
// session encounters while running:
//
//   - straight-line: no control transfer resolves in-session; the
//     session runs the span top to bottom (the original §13 form);
//   - branch-fused: in-region JMP and Bcc instructions resolve against
//     live flags inside the session, replaying the §3.3 two-cycle
//     branch shadow exactly; dead gap addresses carried inside a
//     region (bridged fall-through, up to core.MaxRegionGap) are never
//     session entry points and bail the session if control somehow
//     reaches them;
//   - chained: a session whose resolved branch target is the entry of
//     another compiled region re-proves quiescence and stack-window
//     headroom from live state and continues there without returning
//     to the interpreter.
//
// A branch whose target leaves the compiled space — or whose target
// region fails re-proof — ends the session through the §3.6.1 bail
// path, architecturally identical to a per-cycle run. An adaptive
// per-region gate demotes regions whose sessions chronically bail and
// re-probes them with exponential backoff, so attaching a table never
// makes a workload slower than the interpreter by more than the probe
// overhead.
//
// The consequence is the package's central contract: a plan is a
// performance hint, never a correctness input. A wrong or stale span
// costs fused coverage; it cannot change an architectural outcome,
// because the core rebuilds the qualification from the program words
// themselves and refuses any session the machine state does not
// license.
//
// # Determinism contract
//
// Block-compiled execution is cycle-exact, not approximately fast: a
// machine running with a table attached produces, at every observable
// point, bit-identical architectural state — registers, memories,
// flags, PCs, cycle count, statistics — to the same machine stepping
// per cycle, which the three-way differential suite (optimized,
// reference, block; equiv tests and FuzzStepEquiv in internal/core and
// blockc) enforces. Fused sessions only elide per-instruction trace
// events, summarizing them as block-enter/exit pairs; they never elide
// architecture. Planning itself is deterministic: the same summary
// yields the same spans in the same order, so a rebuilt table is
// byte-equivalent and `make detlint` holds this package to the
// repository's determinism rules.
//
// # Plan memo
//
// Attach plans each (image, options) pair once and keeps the plan and
// the analysis report in a small fixed-capacity memo, so the re-attach
// after every fork or restore rebuilds only the table. The memo holds
// plans, never tables: core.BuildBlockTable still compiles against the
// target machine's own program store on every attach, so a memoized
// plan is as much a hint as a fresh one, and a hit builds the table a
// fresh analysis would.
package blockc

import (
	"slices"
	"sync"

	"disc/internal/analysis"
	"disc/internal/asm"
	"disc/internal/core"
	"disc/internal/mem"
)

// Plan converts a block summary into compilation proposals: the
// fusible spans of at least core.MinFuseLen instructions, as
// core.RegionSpec values in address order. Shorter spans cannot form a
// session (the exit pipeline needs PipeDepth freshly issued slots) and
// are not proposed.
func Plan(sum *analysis.Summary) []core.RegionSpec {
	spans := sum.FusibleSpans(core.MinFuseLen)
	specs := make([]core.RegionSpec, len(spans))
	for i, s := range spans {
		specs[i] = core.RegionSpec{Start: s.Start, End: s.End}
	}
	return specs
}

// Compile plans against sum and builds the block table for prog. The
// table records prog's current version; load or patch the image first,
// compile second.
func Compile(prog *mem.Program, sum *analysis.Summary) *core.BlockTable {
	return core.BuildBlockTable(prog, Plan(sum))
}

// Attach plans im, compiles the plan against m's program memory, and
// attaches the table to m. The image must already be loaded into m
// (Attach compiles what the machine will execute, keyed to the program
// store's mutation version). The analysis report is returned alongside
// the table so callers can surface findings; a report with errors does
// not block attachment — analysis errors mark suspect code, and suspect
// code simply fails re-qualification or session entry.
//
// Planning runs once per (image, options) pair: the plan and report
// are memoized (see plans), and later attaches of the same image with
// equal options, such as the re-attach after a fork or restore, reuse
// them while the pair is among the planCap most recently planned. The
// table itself is always built afresh from m's own program store. So
// an image must not be modified after its first attach, and the
// returned report is shared between attaches and read-only.
func Attach(m *core.Machine, im *asm.Image, opts analysis.Options) (*core.BlockTable, *analysis.Report) {
	specs, rep := plans.get(im, opts)
	t := core.BuildBlockTable(m.Program(), specs)
	m.SetBlockTable(t)
	return t, rep
}

// planCap bounds the plan memo. Attach traffic is a handful of images
// re-attached many times: discbench's sim_fused attaches 8 distinct
// images and serve_http 4.
const planCap = 16

// plans memoizes Attach's planning. It holds plans, never tables: a
// core.BlockTable's version is a per-store counter, so two machines can
// share a version while holding different programs, whereas a plan is
// only a hint that BuildBlockTable re-qualifies against the target
// store on every attach. An entry holds its image, so no other image
// can take that address while the entry lives.
var plans planMemo

// planMemo is a fixed-capacity list of plans, oldest first, scanned in
// order and guarded by a mutex because serve workers attach
// concurrently.
type planMemo struct {
	mu      sync.Mutex
	entries []planEntry
}

type planEntry struct {
	im    *asm.Image
	opts  analysis.Options // a private copy: callers may reuse their slices
	specs []core.RegionSpec
	rep   *analysis.Report
}

// get returns the plan and report for (im, opts), running
// analysis.Summarize and Plan only on a miss. Two goroutines that miss
// together both plan; the first to finish is kept and both return it.
func (p *planMemo) get(im *asm.Image, opts analysis.Options) ([]core.RegionSpec, *analysis.Report) {
	p.mu.Lock()
	specs, rep, ok := p.lookup(im, opts)
	p.mu.Unlock()
	if ok {
		return specs, rep
	}
	sum, rep := analysis.Summarize(im, opts)
	specs = Plan(sum)
	p.mu.Lock()
	defer p.mu.Unlock()
	if specs, rep, ok := p.lookup(im, opts); ok {
		return specs, rep
	}
	if len(p.entries) == planCap {
		p.entries = p.entries[:copy(p.entries, p.entries[1:])]
	}
	opts.Entries = slices.Clone(opts.Entries)
	opts.EntryLabels = slices.Clone(opts.EntryLabels)
	opts.BusRanges = slices.Clone(opts.BusRanges)
	p.entries = append(p.entries, planEntry{im: im, opts: opts, specs: specs, rep: rep})
	return specs, rep
}

// lookup scans the entries in order; the caller holds p.mu.
func (p *planMemo) lookup(im *asm.Image, opts analysis.Options) ([]core.RegionSpec, *analysis.Report, bool) {
	for _, e := range p.entries {
		if e.im == im && sameOptions(e.opts, opts) {
			return e.specs, e.rep, true
		}
	}
	return nil, nil, false
}

// sameOptions compares every field of analysis.Options; the memo
// tests set each field in turn by reflection, so a field added later
// and not compared here fails them.
func sameOptions(a, b analysis.Options) bool {
	return slices.Equal(a.Entries, b.Entries) &&
		slices.Equal(a.EntryLabels, b.EntryLabels) &&
		a.VectorBase == b.VectorBase &&
		a.Streams == b.Streams &&
		a.NoVectors == b.NoVectors &&
		a.WindowDepth == b.WindowDepth &&
		slices.Equal(a.BusRanges, b.BusRanges) &&
		a.BusTimeout == b.BusTimeout &&
		a.ConstHints == b.ConstHints
}

// Coverage summarizes how much of a plan survived compilation.
type Coverage struct {
	Planned  int // instructions inside proposed spans
	Compiled int // instructions the core accepted into fused regions
	Regions  int // fused runs formed
}

// PlanCoverage reports how a table's compilation went against the
// specs that produced it.
func PlanCoverage(t *core.BlockTable, specs []core.RegionSpec) Coverage {
	c := Coverage{Compiled: t.Compiled, Regions: t.Regions}
	for _, sp := range specs {
		c.Planned += int(sp.End) - int(sp.Start) + 1
	}
	return c
}
