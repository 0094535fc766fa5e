// Package analysis is a static analyzer for assembled DISC1 programs.
//
// The DISC1 hardware checks none of the invariants a correct program
// depends on: the stack-window depth must balance across the +/- AWP
// adjusts carried by ordinary instructions (§3.5), streams must not
// read locals before writing them, and the interrupt vector slots must
// land on real code (§3.6.3). The assembler happily encodes anything
// syntactically valid, so without this package the first diagnosis is
// a wedged simulation. Analyze reconstructs a control-flow graph from
// an assembled image and runs a pass pipeline over it:
//
//	decode  — illegal encodings, reserved register 15
//	cfg     — overlapping sections, branch targets outside the image,
//	          control falling off the end of assembled code
//	reach   — unreachable code, .word data reachable as code
//	window  — worklist dataflow over stack-window depth: AWP under-
//	          flow, depth-imbalanced joins, RET/RETI frame mismatches,
//	          straight-line growth past the physical window (spill)
//	usedef  — use-before-def of R0..R7 locals, the H special and the
//	          SR condition flags, per stream entry point
//	vector  — interrupt vector slots 7..1 that hold data or garbage
//
// Findings carry the address, nearest label and source line so tools
// can point back at the offending statement. cmd/disclint is the CLI;
// Gate adapts the analyzer into an asm.Hook so discasm/discsim can
// reject bad guest programs at load time instead of discovering them
// as simulator wedges.
package analysis

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"disc/internal/asm"
	"disc/internal/isa"
	"disc/internal/stackwin"
)

// Severity ranks a finding.
type Severity uint8

// Severities. Error findings make disclint exit non-zero and Gate
// reject the image; warnings and notes are advisory.
const (
	Info Severity = iota
	Warning
	Error
)

func (s Severity) String() string {
	switch s {
	case Info:
		return "note"
	case Warning:
		return "warning"
	case Error:
		return "error"
	}
	return fmt.Sprintf("Severity(%d)", uint8(s))
}

// Pass names, as reported in Finding.Pass.
const (
	PassDecode   = "decode"
	PassCFG      = "cfg"
	PassReach    = "reach"
	PassWindow   = "window"
	PassUseDef   = "usedef"
	PassVector   = "vector"
	PassValue    = "value"
	PassLivelock = "livelock"
)

// PassNames lists every pass the pipeline can report, in run order.
var PassNames = []string{
	PassDecode, PassCFG, PassReach, PassWindow, PassUseDef, PassVector,
	PassValue, PassLivelock,
}

// Finding is one diagnostic produced by a pass.
type Finding struct {
	Pass     string
	Severity Severity
	Addr     uint16 // program address of the offending word
	Line     int    // 1-based source line, 0 when unknown (hex images)
	Label    string // nearest preceding label, "name+off" form
	Msg      string
}

func (f Finding) String() string {
	loc := fmt.Sprintf("%04x", f.Addr)
	if f.Label != "" {
		loc += " " + f.Label
	}
	if f.Line > 0 {
		loc += fmt.Sprintf(" (line %d)", f.Line)
	}
	return fmt.Sprintf("%s: %s: %s: %s", loc, f.Pass, f.Severity, f.Msg)
}

// Options selects what Analyze checks and how strictly.
type Options struct {
	// Entries are stream start addresses. Code reached from an entry
	// is checked strictly: window locals, H and the flags are treated
	// as undefined at the entry. Labels that nothing else reaches are
	// analyzed too, but leniently (a label may be a routine whose
	// caller set up registers the analyzer cannot see).
	Entries []uint16
	// EntryLabels name strict entries symbolically.
	EntryLabels []string
	// VectorBase locates the interrupt vector table (reset VB value).
	// Slots that fall inside the assembled image are checked and their
	// handlers analyzed. Streams sizes the table; 0 means
	// isa.NumStreams.
	VectorBase uint16
	Streams    int
	// NoVectors disables the vector pass entirely (for images that
	// deliberately place code across the table).
	NoVectors bool
	// WindowDepth is the physical register count per stream used for
	// the spill advisory; 0 selects stackwin.DefaultDepth, negative
	// disables the advisory.
	WindowDepth int
	// BusRanges describes the attached bus devices. When non-empty, the
	// value pass reports provably-unmapped external accesses as errors,
	// and the stall bounds use each range's worst-case Wait.
	BusRanges []BusRange
	// BusTimeout is the bus's bounded-wait budget in cycles (the
	// Bus.SetTimeout value); 0 means unbounded waits, which makes stall
	// bounds on unknown devices StallUnbounded.
	BusTimeout int
	// ConstHints enables info-severity constant-fold hints from the
	// value pass.
	ConstHints bool
}

// Report is the outcome of one Analyze run, findings sorted by address.
type Report struct {
	Findings []Finding
}

// ErrorCount returns the number of error-severity findings.
func (r *Report) ErrorCount() int {
	n := 0
	for _, f := range r.Findings {
		if f.Severity == Error {
			n++
		}
	}
	return n
}

// Max returns the highest severity present, and false for an empty
// report.
func (r *Report) Max() (Severity, bool) {
	if len(r.Findings) == 0 {
		return Info, false
	}
	max := Info
	for _, f := range r.Findings {
		if f.Severity > max {
			max = f.Severity
		}
	}
	return max, true
}

// ByPass filters findings by pass name.
func (r *Report) ByPass(pass string) []Finding {
	var out []Finding
	for _, f := range r.Findings {
		if f.Pass == pass {
			out = append(out, f)
		}
	}
	return out
}

// Analyze runs the full pass pipeline over an assembled image.
func Analyze(im *asm.Image, opts Options) *Report {
	return newAnalyzer(im, opts).runPasses()
}

// runPasses executes the pipeline in order and returns the sorted
// report. The analyzer retains the fixpoint state afterwards, which is
// what buildSummary consumes.
func (a *analyzer) runPasses() *Report {
	a.checkOverlap()
	a.checkDecode()
	a.findEntries()
	a.checkFlowEdges()
	a.checkUnreachable()
	a.windowDepthPass()
	a.useDefPass()
	a.valuePass()
	a.livelockPass()
	sort.SliceStable(a.findings, func(i, j int) bool {
		if a.findings[i].Addr != a.findings[j].Addr {
			return a.findings[i].Addr < a.findings[j].Addr
		}
		return a.findings[i].Pass < a.findings[j].Pass
	})
	return &Report{Findings: a.findings}
}

// Gate adapts the analyzer into an opt-in asm.AssembleWith hook: the
// image is rejected when any error-severity finding is present, so
// loaders can refuse bad guest programs before they reach a machine.
func Gate(opts Options) asm.Hook {
	return func(im *asm.Image) error {
		r := Analyze(im, opts)
		if n := r.ErrorCount(); n > 0 {
			first := ""
			for _, f := range r.Findings {
				if f.Severity == Error {
					first = f.String()
					break
				}
			}
			return fmt.Errorf("analysis: %d error finding(s); first: %s", n, first)
		}
		return nil
	}
}

// findingf records a diagnostic, filling in label and line position.
func (a *analyzer) findingf(pass string, sev Severity, addr uint16, format string, args ...any) {
	a.findings = append(a.findings, Finding{
		Pass:     pass,
		Severity: sev,
		Addr:     addr,
		Line:     a.im.SourceLines[addr],
		Label:    a.labels.at(addr),
		Msg:      fmt.Sprintf(format, args...),
	})
}

// labelIndex holds an image's code labels in ascending address order,
// one entry per labelled address carrying the smallest name placed
// there. It is built once per analysis, not stored on the image, which
// concurrent analyses share read-only.
type labelIndex []label

type label struct {
	addr uint16
	name string
}

func newLabelIndex(labels map[string]uint16) labelIndex {
	idx := make(labelIndex, 0, len(labels))
	//detlint:ignore collection pass; sorted before use
	for name, addr := range labels {
		idx = append(idx, label{addr, name})
	}
	slices.SortFunc(idx, func(x, y label) int {
		if c := cmp.Compare(x.addr, y.addr); c != 0 {
			return c
		}
		return strings.Compare(x.name, y.name)
	})
	return slices.CompactFunc(idx, func(x, y label) bool { return x.addr == y.addr })
}

// nearest returns the closest label at or before addr, with the word
// offset from it.
func (idx labelIndex) nearest(addr uint16) (name string, off uint16, ok bool) {
	i := sort.Search(len(idx), func(i int) bool { return idx[i].addr > addr })
	if i == 0 {
		return "", 0, false
	}
	l := idx[i-1]
	return l.name, addr - l.addr, true
}

// at renders addr's nearest label in the "crc16+3" form diagnostics
// and block summaries carry, or "" when no label precedes addr.
func (idx labelIndex) at(addr uint16) string {
	name, off, ok := idx.nearest(addr)
	if !ok || off == 0 {
		return name
	}
	return name + "+" + strconv.Itoa(int(off))
}

// windowBudget returns the spill-advisory depth, or -1 when disabled.
func (a *analyzer) windowBudget() int {
	d := a.opts.WindowDepth
	if d == 0 {
		d = stackwin.DefaultDepth
	}
	if d < 0 {
		return -1
	}
	return d - isa.WindowSize
}
