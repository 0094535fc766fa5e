package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"disc/internal/asm"
	"disc/internal/core"
	"disc/internal/workload"
	"disc/internal/xval"
)

// analyzeSrc assembles src and runs the full pipeline over it.
func analyzeSrc(t *testing.T, src string, opts Options) *Report {
	t.Helper()
	im, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return Analyze(im, opts)
}

// expect describes one finding a fixture must produce, matched by
// pass, severity, address, nearest label, source line and a message
// fragment — the full position contract disclint relies on.
type expect struct {
	pass   string
	sev    Severity
	addr   uint16
	label  string
	line   int
	msgSub string
}

// TestFixtures exercises each headline detection against a committed
// source fixture and pins the exact position metadata of every
// finding.
func TestFixtures(t *testing.T) {
	cases := []struct {
		file string
		opts Options
		want []expect
	}{
		{
			file: "depth_imbalance.s",
			opts: Options{VectorBase: 0x200},
			want: []expect{
				{PassWindow, Error, 1, "loop", 9, "depth imbalance at join"},
			},
		},
		{
			file: "use_before_def.s",
			opts: Options{VectorBase: 0x200, EntryLabels: []string{"main"}},
			want: []expect{
				{PassUseDef, Warning, 0, "main", 5, "reads R1 before any write"},
			},
		},
		{
			file: "unreachable.s",
			opts: Options{VectorBase: 0x200},
			want: []expect{
				{PassReach, Warning, 2, "main+2", 6, "unreachable code (2 words)"},
			},
		},
		{
			file: "reserved_reg.s",
			opts: Options{VectorBase: 0x200},
			want: []expect{
				{PassDecode, Error, 2, "trap", 8, "reserved register field 15"},
			},
		},
		{
			file: "bad_vector.s",
			opts: Options{VectorBase: 0x200},
			want: []expect{
				{PassCFG, Error, 0x203, "vec03", 9, "outside the assembled image"},
			},
		},
		{
			file: "clean.s",
			opts: Options{VectorBase: 0x200, EntryLabels: []string{"main"}},
			want: nil,
		},
	}
	for _, tc := range cases {
		t.Run(tc.file, func(t *testing.T) {
			src, err := os.ReadFile(filepath.Join("testdata", tc.file))
			if err != nil {
				t.Fatal(err)
			}
			r := analyzeSrc(t, string(src), tc.opts)
			if len(r.Findings) != len(tc.want) {
				t.Fatalf("got %d findings, want %d:\n%s", len(r.Findings), len(tc.want), dump(r))
			}
			for i, w := range tc.want {
				f := r.Findings[i]
				if f.Pass != w.pass || f.Severity != w.sev || f.Addr != w.addr {
					t.Errorf("finding %d: got %s/%s@%04x, want %s/%s@%04x", i,
						f.Pass, f.Severity, f.Addr, w.pass, w.sev, w.addr)
				}
				if f.Label != w.label {
					t.Errorf("finding %d: label %q, want %q", i, f.Label, w.label)
				}
				if f.Line != w.line {
					t.Errorf("finding %d: line %d, want %d", i, f.Line, w.line)
				}
				if !strings.Contains(f.Msg, w.msgSub) {
					t.Errorf("finding %d: msg %q does not contain %q", i, f.Msg, w.msgSub)
				}
			}
		})
	}
}

func dump(r *Report) string {
	var b strings.Builder
	for _, f := range r.Findings {
		b.WriteString("  " + f.String() + "\n")
	}
	return b.String()
}

// TestWindowPass covers the §3.5 depth dataflow: balance, underflow,
// frame discipline at RET/RETI, the MTS AWP exemption and the spill
// advisory.
func TestWindowPass(t *testing.T) {
	cases := []struct {
		name string
		src  string
		opts Options
		want []expect
	}{
		{
			name: "balanced loop is clean",
			src: `
main:
    LDI  R0, 4
loop:
    NOP+
    NOP-
    SUBI R0, 1
    BNE  loop
    HALT
`,
			opts: Options{VectorBase: 0x200},
		},
		{
			name: "underflow below entry frame",
			src: `
main:
    NOP-
    HALT
`,
			opts: Options{VectorBase: 0x200},
			want: []expect{{pass: PassWindow, sev: Error, addr: 0, msgSub: "stack-window underflow"}},
		},
		{
			name: "RET frame mismatch",
			src: `
fn:
    NOP+
    RET  2
`,
			opts: Options{VectorBase: 0x200},
			want: []expect{{pass: PassWindow, sev: Error, addr: 1, msgSub: "RET 2 at window depth 1"}},
		},
		{
			name: "RETI with buried SR/PC pair",
			src: `
.org 0x0201
vec:
    JMP  h
.org 0x0300
h:
    NOP+
    RETI
`,
			opts: Options{VectorBase: 0x200},
			want: []expect{{pass: PassWindow, sev: Error, addr: 0x301, msgSub: "RETI at window depth 1"}},
		},
		{
			name: "MTS AWP makes depth unknown, no convictions",
			src: `
main:
    MTS  AWP, G0
    NOP-
    NOP-
    RET  5
`,
			opts: Options{VectorBase: 0x200},
		},
		{
			name: "spill advisory past the physical budget",
			src: `
main:
    NOP+
    NOP+
    HALT
`,
			opts: Options{VectorBase: 0x200, WindowDepth: 9},
			want: []expect{{pass: PassWindow, sev: Info, addr: 1, msgSub: "exceeds the physical budget of 1"}},
		},
		{
			name: "balanced-callee assumption at CALL",
			src: `
main:
    CALL+ fn
    RET  1
fn:
    RET  0
`,
			opts: Options{VectorBase: 0x200},
		},
	}
	runPassCases(t, cases)
}

// TestUseDefPass covers the per-entry definedness lattice: strict
// stream entries, the vector-slot hardware contract (R0/R1 defined,
// the rest garbage), must-merge at joins and the lenient treatment of
// unreferenced routine labels.
func TestUseDefPass(t *testing.T) {
	cases := []struct {
		name string
		src  string
		opts Options
		want []expect
	}{
		{
			name: "branch on flags nothing set",
			src: `
main:
    BNE  main
    HALT
`,
			opts: Options{VectorBase: 0x200, EntryLabels: []string{"main"}},
			want: []expect{{pass: PassUseDef, sev: Warning, addr: 0, msgSub: "condition flags never set"}},
		},
		{
			name: "H read before any MUL",
			src: `
main:
    MFS  R1, H
    HALT
`,
			opts: Options{VectorBase: 0x200, EntryLabels: []string{"main"}},
			want: []expect{{pass: PassUseDef, sev: Warning, addr: 0, msgSub: "before any MUL"}},
		},
		{
			name: "H defined by MUL is clean",
			src: `
main:
    LDI  G0, 3
    MUL  G1, G0, G0
    MFS  R1, H
    HALT
`,
			opts: Options{VectorBase: 0x200, EntryLabels: []string{"main"}},
		},
		{
			name: "vector entry defines only R0 and R1",
			src: `
.org 0x0201
vec:
    MOV  G0, R0
    MOV  G1, R1
    MOV  G2, R2
    RETI
`,
			opts: Options{VectorBase: 0x200},
			want: []expect{{pass: PassUseDef, sev: Warning, addr: 0x203, msgSub: "reads R2 before any write"}},
		},
		{
			name: "join keeps only must-defined registers",
			src: `
main:
    LDI  G0, 1
    CMPI G0, 0
    BEQ  else
    LDI  R2, 5
    JMP  join
else:
    NOP
join:
    MOV  G1, R2
    HALT
`,
			opts: Options{VectorBase: 0x200, EntryLabels: []string{"main"}},
			want: []expect{{pass: PassUseDef, sev: Warning, addr: 6, msgSub: "reads R2 before any write"}},
		},
		{
			name: "unreferenced routine label is lenient",
			src: `
fn:
    NOP+
    MOV  G0, R1
    RET  1
`,
			opts: Options{VectorBase: 0x200},
		},
	}
	runPassCases(t, cases)
}

// TestVectorPass covers the §3.6.3 slot checks and their opt-out.
func TestVectorPass(t *testing.T) {
	src := `
main:
    HALT
.org 0x0202
tbl:
    .word 0x000001
`
	r := analyzeSrc(t, src, Options{VectorBase: 0x200})
	vf := r.ByPass(PassVector)
	if len(vf) != 1 || vf[0].Severity != Error || vf[0].Addr != 0x202 {
		t.Fatalf("vector findings = %v, want one error at 0202", vf)
	}
	if !strings.Contains(vf[0].Msg, "holds .word data") {
		t.Fatalf("msg = %q", vf[0].Msg)
	}

	r = analyzeSrc(t, src, Options{VectorBase: 0x200, NoVectors: true})
	if len(r.ByPass(PassVector)) != 0 {
		t.Fatalf("NoVectors still produced vector findings:\n%s", dump(r))
	}
}

// TestCFGPass covers section overlap, flow edges leaving the image and
// bad entry options.
func TestCFGPass(t *testing.T) {
	cases := []struct {
		name string
		src  string
		opts Options
		want []expect
	}{
		{
			name: "overlapping sections",
			src: `
main:
    HALT
.org 0x0000
dup:
    HALT
`,
			opts: Options{VectorBase: 0x200},
			want: []expect{{pass: PassCFG, sev: Error, addr: 0, msgSub: "overlaps"}},
		},
		{
			name: "jump out of the image",
			src: `
main:
    JMP  0x0100
`,
			opts: Options{VectorBase: 0x200},
			want: []expect{{pass: PassCFG, sev: Error, addr: 0, msgSub: "outside the assembled image"}},
		},
		{
			name: "control falls off the end",
			src: `
main:
    LDI  R0, 1
`,
			opts: Options{VectorBase: 0x200},
			want: []expect{{pass: PassCFG, sev: Warning, addr: 0, msgSub: "falls off the assembled image"}},
		},
		{
			name: "undefined entry label",
			src: `
main:
    HALT
`,
			opts: Options{VectorBase: 0x200, EntryLabels: []string{"nosuch"}},
			want: []expect{{pass: PassCFG, sev: Error, addr: 0, msgSub: `entry label "nosuch" is not defined`}},
		},
		{
			name: "entry address with no code",
			src: `
main:
    HALT
`,
			opts: Options{VectorBase: 0x200, Entries: []uint16{0x500}},
			want: []expect{{pass: PassCFG, sev: Error, addr: 0x500, msgSub: "no assembled code"}},
		},
	}
	runPassCases(t, cases)
}

// runPassCases shares the compact pass-table harness: findings are
// matched on pass/severity/address and a message fragment only (the
// fixture test owns the full position contract).
func runPassCases(t *testing.T, cases []struct {
	name string
	src  string
	opts Options
	want []expect
}) {
	t.Helper()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := analyzeSrc(t, tc.src, tc.opts)
			if len(r.Findings) != len(tc.want) {
				t.Fatalf("got %d findings, want %d:\n%s", len(r.Findings), len(tc.want), dump(r))
			}
			for i, w := range tc.want {
				f := r.Findings[i]
				if f.Pass != w.pass || f.Severity != w.sev || f.Addr != w.addr {
					t.Errorf("finding %d: got %s/%s@%04x, want %s/%s@%04x", i,
						f.Pass, f.Severity, f.Addr, w.pass, w.sev, w.addr)
				}
				if !strings.Contains(f.Msg, w.msgSub) {
					t.Errorf("finding %d: msg %q does not contain %q", i, f.Msg, w.msgSub)
				}
			}
		})
	}
}

// TestGate wires the analyzer into AssembleWith: clean programs load,
// programs with error findings are refused before a machine sees them.
func TestGate(t *testing.T) {
	clean, err := os.ReadFile(filepath.Join("testdata", "clean.s"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := asm.AssembleWith(string(clean), Gate(Options{VectorBase: 0x200})); err != nil {
		t.Fatalf("gate rejected a clean program: %v", err)
	}
	bad := `
main:
    JMP  0x0100
`
	_, err = asm.AssembleWith(bad, Gate(Options{VectorBase: 0x200}))
	if err == nil {
		t.Fatal("gate accepted a program that jumps out of the image")
	}
	if !strings.Contains(err.Error(), "outside the assembled image") {
		t.Fatalf("gate error does not name the finding: %v", err)
	}
}

// TestReportHelpers pins the Report accessors and the Finding string
// format disclint prints.
func TestReportHelpers(t *testing.T) {
	src := `
main:
    LDI  R0, 1
    JMP  0x0100
    ADDI R0, 1
`
	r := analyzeSrc(t, src, Options{VectorBase: 0x200})
	if r.ErrorCount() != 1 {
		t.Fatalf("ErrorCount = %d:\n%s", r.ErrorCount(), dump(r))
	}
	if max, ok := r.Max(); !ok || max != Error {
		t.Fatalf("Max = %v, %v", max, ok)
	}
	if got := len(r.ByPass(PassReach)); got != 1 {
		t.Fatalf("ByPass(reach) = %d findings", got)
	}
	empty := &Report{}
	if _, ok := empty.Max(); ok {
		t.Fatal("Max on empty report reported a severity")
	}

	f := Finding{Pass: PassWindow, Severity: Error, Addr: 0x42, Line: 5, Label: "loop", Msg: "boom"}
	if got, want := f.String(), "0042 loop (line 5): window: error: boom"; got != want {
		t.Fatalf("Finding.String = %q, want %q", got, want)
	}
	if Info.String() != "note" || Warning.String() != "warning" || Error.String() != "error" {
		t.Fatal("severity strings changed")
	}
}

// TestHexImage analyzes an image that came through the hex round-trip,
// which strips all source metadata: the analyzer must cope with nil
// maps and simply omit label/line positions.
func TestHexImage(t *testing.T) {
	im, err := asm.Assemble(`
main:
    LDI  R0, 1
    JMP  0x0100
`)
	if err != nil {
		t.Fatal(err)
	}
	im2, err := asm.DecodeHex(asm.EncodeHex(im))
	if err != nil {
		t.Fatal(err)
	}
	r := Analyze(im2, Options{VectorBase: 0x200, NoVectors: true, Entries: []uint16{0}})
	found := false
	for _, f := range r.Findings {
		if f.Pass == PassCFG && f.Severity == Error {
			found = true
			if f.Label != "" || f.Line != 0 {
				t.Fatalf("hex image finding has position metadata: %+v", f)
			}
		}
	}
	if !found {
		t.Fatalf("hex round-trip lost the bad jump:\n%s", dump(r))
	}
}

// TestNearestLabel: the label index answers with the closest label at
// or before an address, and among labels at one address the smallest
// name wins.
func TestNearestLabel(t *testing.T) {
	im, err := asm.Assemble("a: NOP\n NOP\nb: NOP\n NOP\n")
	if err != nil {
		t.Fatal(err)
	}
	idx := newLabelIndex(im.Labels)
	if n, off, ok := idx.nearest(1); !ok || n != "a" || off != 1 {
		t.Fatalf("nearest(1) = %q+%d %v", n, off, ok)
	}
	if n, off, ok := idx.nearest(3); !ok || n != "b" || off != 1 {
		t.Fatalf("nearest(3) = %q+%d %v", n, off, ok)
	}
	if got := idx.at(1); got != "a+1" {
		t.Fatalf("at(1) = %q", got)
	}
	if got := idx.at(2); got != "b" {
		t.Fatalf("at(2) = %q", got)
	}
	if _, _, ok := newLabelIndex(nil).nearest(0); ok {
		t.Fatal("nearest on an image without labels")
	}
	tie := newLabelIndex(map[string]uint16{"zeta": 4, "mid": 4, "alpha": 9, "low": 1})
	if n, off, ok := tie.nearest(7); !ok || n != "mid" || off != 3 {
		t.Fatalf("tie-break: nearest(7) = %q+%d %v, want mid+3", n, off, ok)
	}
	if _, _, ok := tie.nearest(0); ok {
		t.Fatal("nearest below the lowest label")
	}
	if n, off, _ := tie.nearest(0xFFFF); n != "alpha" || off != 0xFFFF-9 {
		t.Fatalf("nearest(ffff) = %q+%d", n, off)
	}
}

// TestSummarizeAllocBudget bounds the allocations of one Summarize
// over load 1's 1-stream image, the analysis every block-engine fork
// runs. The analyzer keeps its per-word state in dense tables and asks
// each word for its register effects as fixed arrays, so the count
// tracks the findings and blocks it reports (316 when the budget was
// set, 495 under -race), not the image size. The per-address maps and
// per-visit state copies it replaced cost 25 913 here, and per-word
// effect slices 2 040. A budget overrun means per-word allocation is
// back.
func TestSummarizeAllocBudget(t *testing.T) {
	const budget = 600
	s, err := xval.NewLoadSetup(workload.Ld1, 1, 1, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Entries: []uint16{s.Entries[0]}, Streams: 1}
	for _, d := range s.Devices {
		opts.BusRanges = append(opts.BusRanges, BusRange{Base: d.Base, Size: d.Size, Wait: d.Wait})
	}
	if n := testing.AllocsPerRun(3, func() { Summarize(s.Images[0], opts) }); n > budget {
		t.Fatalf("Summarize made %.0f allocations, budget %d", n, budget)
	}
}

// TestFallThroughWraps: program addresses are 16-bit, so the word
// after 0xFFFF is 0. A section ending at the top of memory falls
// through into one assembled at 0.
func TestFallThroughWraps(t *testing.T) {
	top, err := asm.Assemble("NOP\n")
	if err != nil {
		t.Fatal(err)
	}
	bottom, err := asm.Assemble("HALT\n")
	if err != nil {
		t.Fatal(err)
	}
	im := &asm.Image{Sections: []asm.Section{
		{Base: 0xFFFF, Words: top.Sections[0].Words},
		{Base: 0, Words: bottom.Sections[0].Words},
	}}
	r := Analyze(im, Options{Entries: []uint16{0xFFFF}, NoVectors: true})
	if len(r.Findings) != 0 {
		t.Fatalf("wrapping fall-through misread:\n%s", dump(r))
	}
}
