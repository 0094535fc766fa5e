package asm

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"disc/internal/isa"
)

// mustAssemble fails the test on any diagnostic.
func mustAssemble(t *testing.T, src string) *Image {
	t.Helper()
	im, err := Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return im
}

// one decodes the single instruction an Image holds at its first word.
func one(t *testing.T, im *Image) isa.Instruction {
	t.Helper()
	if len(im.Sections) != 1 || len(im.Sections[0].Words) != 1 {
		t.Fatalf("expected exactly one word, got %+v", im.Sections)
	}
	in, err := isa.Decode(im.Sections[0].Words[0])
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestBasicInstructions(t *testing.T) {
	cases := []struct {
		src  string
		want isa.Instruction
	}{
		{"NOP", isa.Instruction{Op: isa.OpNOP}},
		{"ADD R0, R1, G2", isa.Instruction{Op: isa.OpADD, Rd: isa.R0, Rs: isa.R1, Rt: isa.G2}},
		{"add+ r3, r3, zr", isa.Instruction{Op: isa.OpADD, SW: isa.SWInc, Rd: isa.R3, Rs: isa.R3, Rt: isa.ZR}},
		{"SUB- R0, R0, R1", isa.Instruction{Op: isa.OpSUB, SW: isa.SWDec, Rd: isa.R0, Rs: isa.R0, Rt: isa.R1}},
		{"CMP R0, G0", isa.Instruction{Op: isa.OpCMP, Rs: isa.R0, Rt: isa.G0}},
		{"MOV G1, R4", isa.Instruction{Op: isa.OpMOV, Rd: isa.G1, Rs: isa.R4}},
		{"LDI R0, -5", isa.Instruction{Op: isa.OpLDI, Rd: isa.R0, Imm: -5}},
		{"ADDI R2, 0x10", isa.Instruction{Op: isa.OpADDI, Rd: isa.R2, Imm: 16}},
		{"LD R0, [G1+4]", isa.Instruction{Op: isa.OpLD, Rd: isa.R0, Rs: isa.G1, Imm: 4}},
		{"ST R5, [R6-2]", isa.Instruction{Op: isa.OpST, Rd: isa.R5, Rs: isa.R6, Imm: -2}},
		{"LD R0, [R1]", isa.Instruction{Op: isa.OpLD, Rd: isa.R0, Rs: isa.R1}},
		{"LD R0, [0x20]", isa.Instruction{Op: isa.OpLDM, Rd: isa.R0, Imm: 0x20}},
		{"ST R0, [100]", isa.Instruction{Op: isa.OpSTM, Rd: isa.R0, Imm: 100}},
		{"TAS R0, [G0]", isa.Instruction{Op: isa.OpTAS, Rd: isa.R0, Rs: isa.G0}},
		{"JMP 0x200", isa.Instruction{Op: isa.OpJMP, Imm: 0x200}},
		{"JR R7", isa.Instruction{Op: isa.OpJR, Rs: isa.R7}},
		{"CALL 0x30", isa.Instruction{Op: isa.OpCALL, Imm: 0x30}},
		{"CALR R1", isa.Instruction{Op: isa.OpCALR, Rs: isa.R1}},
		{"RET", isa.Instruction{Op: isa.OpRET}},
		{"RET 3", isa.Instruction{Op: isa.OpRET, Imm: 3}},
		{"SSTART 2, R0", isa.Instruction{Op: isa.OpSSTART, S: 2, Rs: isa.R0}},
		{"SIGNAL 1, 5", isa.Instruction{Op: isa.OpSIGNAL, S: 1, N: 5}},
		{"CLRI 2", isa.Instruction{Op: isa.OpCLRI, N: 2}},
		{"WAITI 3", isa.Instruction{Op: isa.OpWAITI, N: 3}},
		{"SETMR 0xFF", isa.Instruction{Op: isa.OpSETMR, Imm: 0xFF}},
		{"RETI", isa.Instruction{Op: isa.OpRETI}},
		{"HALT", isa.Instruction{Op: isa.OpHALT}},
		{"MFS R0, AWP", isa.Instruction{Op: isa.OpMFS, Rd: isa.R0, Spec: isa.SpecAWP}},
		{"MTS VB, R2", isa.Instruction{Op: isa.OpMTS, Spec: isa.SpecVB, Rs: isa.R2}},
		{"MUL R0, R1, R2", isa.Instruction{Op: isa.OpMUL, Rd: isa.R0, Rs: isa.R1, Rt: isa.R2}},
		{"SWP R0, G0", isa.Instruction{Op: isa.OpSWP, Rd: isa.R0, Rs: isa.G0}},
	}
	for _, c := range cases {
		got := one(t, mustAssemble(t, c.src))
		if got != c.want {
			t.Errorf("%q:\n got %+v\nwant %+v", c.src, got, c.want)
		}
	}
}

func TestBranchDisplacement(t *testing.T) {
	src := `
start:  NOP
        BNE start
        BEQ after
        NOP
after:  HALT
`
	im := mustAssemble(t, src)
	words := im.Sections[0].Words
	bne, _ := isa.Decode(words[1])
	if bne.Op != isa.OpBcc || bne.Cond != isa.CondNE || bne.Imm != -2 {
		t.Fatalf("BNE start: %+v", bne)
	}
	beq, _ := isa.Decode(words[2])
	if beq.Cond != isa.CondEQ || beq.Imm != 1 {
		t.Fatalf("BEQ after: %+v", beq)
	}
}

func TestPlainBIsUnconditional(t *testing.T) {
	im := mustAssemble(t, "x: B x")
	in := one(t, im)
	if in.Cond != isa.CondAL || in.Imm != -1 {
		t.Fatalf("B x: %+v", in)
	}
}

func TestLIExpansion(t *testing.T) {
	im := mustAssemble(t, "LI R3, 0xBEEF")
	w := im.Sections[0].Words
	if len(w) != 2 {
		t.Fatalf("LI emitted %d words", len(w))
	}
	hi, _ := isa.Decode(w[0])
	lo, _ := isa.Decode(w[1])
	if hi.Op != isa.OpLDHI || hi.Imm != 0xBE {
		t.Fatalf("hi: %+v", hi)
	}
	if lo.Op != isa.OpORI || lo.Imm != 0xEF {
		t.Fatalf("lo: %+v", lo)
	}
}

func TestLIKeepsLabelSizesConsistent(t *testing.T) {
	// LI is 2 words; the label after it must account for that.
	im := mustAssemble(t, "LI R0, 0x1234\nhere: NOP")
	if im.Symbols["here"] != 2 {
		t.Fatalf("here = %d, want 2", im.Symbols["here"])
	}
}

func TestOrgAndSections(t *testing.T) {
	im := mustAssemble(t, `
.org 0x10
    NOP
.org 0x100
    HALT
`)
	if len(im.Sections) != 2 {
		t.Fatalf("sections: %+v", im.Sections)
	}
	if im.Sections[0].Base != 0x10 || im.Sections[1].Base != 0x100 {
		t.Fatalf("bases: %#x %#x", im.Sections[0].Base, im.Sections[1].Base)
	}
}

func TestEquAndSymbolArithmetic(t *testing.T) {
	im := mustAssemble(t, `
.equ IOBASE, 0xF000
.equ TIMER, IOBASE+16
    LI R0, TIMER
    LD R1, [R0+1]
`)
	if got := im.Symbols["TIMER"]; got != 0xF010 {
		t.Fatalf("TIMER = %#x", got)
	}
}

func TestWordAndSpace(t *testing.T) {
	im := mustAssemble(t, `
.org 0
.word 0x123456, 7
.space 3
end: NOP
`)
	w := im.Sections[0].Words
	if len(w) != 6 {
		t.Fatalf("%d words", len(w))
	}
	if w[0] != 0x123456 || w[1] != 7 || w[2] != 0 {
		t.Fatalf("words: %v", w[:3])
	}
	if im.Symbols["end"] != 5 {
		t.Fatalf("end = %d", im.Symbols["end"])
	}
}

func TestCommentsAndBlankLines(t *testing.T) {
	im := mustAssemble(t, `
; full line comment
   NOP     ; trailing comment

   LDI R0, ';'  ; character literal containing the comment char
`)
	w := im.Sections[0].Words
	if len(w) != 2 {
		t.Fatalf("%d words", len(w))
	}
	in, _ := isa.Decode(w[1])
	if in.Imm != ';' {
		t.Fatalf("char literal: %+v", in)
	}
}

func TestMultipleLabelsOneAddress(t *testing.T) {
	im := mustAssemble(t, "a: b: NOP")
	if im.Symbols["a"] != 0 || im.Symbols["b"] != 0 {
		t.Fatal("shared labels broken")
	}
}

func TestErrors(t *testing.T) {
	cases := []string{
		"FROB R0",              // unknown mnemonic
		"ADD R0, R1",           // wrong arity
		"LDI R9, 1",            // bad register
		"LDI R0, 99999",        // immediate out of range
		"JMP nowhere",          // undefined symbol
		"x: NOP\nx: NOP",       // duplicate label
		".equ A, 1\n.equ A, 2", // duplicate equ
		"BNE faraway",          // undefined branch target
		"LD R0, R1",            // unbracketed memory operand
		"MFS R0, XYZ",          // unknown special
		".word 0x1000000",      // word too wide
		"RET 99",               // RET count out of range
		"SIGNAL 9, 1",          // stream out of range
	}
	for _, src := range cases {
		if _, err := Assemble(src); err == nil {
			t.Errorf("no error for %q", src)
		} else if _, ok := err.(*Error); !ok {
			t.Errorf("error for %q is %T, want *Error", src, err)
		}
	}
}

func TestBranchOutOfRange(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("far:\n")
	for i := 0; i < 3000; i++ {
		sb.WriteString("NOP\n")
	}
	sb.WriteString("BNE far\n")
	if _, err := Assemble(sb.String()); err == nil {
		t.Fatal("out-of-range branch accepted")
	}
}

func TestErrorsCarryLineNumbers(t *testing.T) {
	_, err := Assemble("NOP\nNOP\nBROKEN R0\n")
	ae, ok := err.(*Error)
	if !ok || ae.Line != 3 {
		t.Fatalf("err = %v", err)
	}
}

// TestDisassembleRoundTripProperty: assembling the disassembly of a
// valid word yields the same word (for formats whose text form the
// assembler accepts directly).
func TestDisassembleKnownWords(t *testing.T) {
	srcs := []string{
		"ADD R0, R1, R2",
		"LDI R4, 100",
		"LD R0, [G1+4]",
		"SIGNAL 2, 3",
		"MFS R0, IR",
		"HALT",
	}
	for _, src := range srcs {
		im := mustAssemble(t, src)
		lines := Disassemble(im.Sections[0].Words, 0)
		if len(lines) != 1 {
			t.Fatalf("%q: %v", src, lines)
		}
		text := strings.SplitN(lines[0], ": ", 2)[1]
		im2 := mustAssemble(t, text)
		if im2.Sections[0].Words[0] != im.Sections[0].Words[0] {
			t.Errorf("%q -> %q: words differ", src, text)
		}
	}
}

func TestDisassembleBadWord(t *testing.T) {
	lines := Disassemble([]isa.Word{isa.Word(uint32(isa.NumOps) << 18)}, 0x40)
	if !strings.Contains(lines[0], ".word") {
		t.Fatalf("bad word rendered as %q", lines[0])
	}
}

// Property: LI can materialise any uint16 into any window register and
// the expansion always assembles.
func TestLIAlwaysAssemblesProperty(t *testing.T) {
	f := func(v uint16, r uint8) bool {
		reg := r % 8
		src := "LI R" + string(rune('0'+reg)) + ", " + itoa(int64(v))
		im, err := Assemble(src)
		return err == nil && im.Size() == 2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var b []byte
	for v > 0 {
		b = append([]byte{byte('0' + v%10)}, b...)
		v /= 10
	}
	if neg {
		b = append([]byte{'-'}, b...)
	}
	return string(b)
}

func TestMoreOperandErrors(t *testing.T) {
	cases := []string{
		"LD R0, [R1",        // unterminated bracket
		"LDM R0, [R1+2]",    // LDM wants absolute
		"STM R0, [G0]",      // STM wants absolute
		"TAS R0, [0x20]",    // TAS needs a register base
		"SSTART R0, R1",     // stream must be a number
		"SSTART 1",          // arity
		"MTS XYZ, R0",       // unknown special
		"RET 1, 2",          // too many operands
		"B",                 // missing target
		"LD R0, [R1+bogus]", // bad offset symbol
		".org",              // missing value
		".org 1, 2",         // too many values
		".space -1",         // bad space... (-1 parses; emits 0?)
		".equ 9name, 4",     // bad identifier
		"ADD+ R0, R1",       // arity with suffix
		"LDI R0",            // missing immediate
		"JMP 0x10000",       // address too wide
	}
	for _, src := range cases {
		if _, err := Assemble(src); err == nil {
			// .space -1 is the one case that may legally emit nothing.
			if src == ".space -1" {
				continue
			}
			t.Errorf("no error for %q", src)
		}
	}
}

func TestSymbolPlusOffsetOperands(t *testing.T) {
	im := mustAssemble(t, `
.equ BASE, 0x20
    LDM R0, [BASE+5]
    LDM R1, [BASE-1]
    JMP lbl+1
lbl: NOP
    NOP
`)
	w := im.Sections[0].Words
	a, _ := isa.Decode(w[0])
	b, _ := isa.Decode(w[1])
	j, _ := isa.Decode(w[2])
	if a.Imm != 0x25 || b.Imm != 0x1F {
		t.Fatalf("symbol arithmetic: %d %d", a.Imm, b.Imm)
	}
	if j.Imm != int32(im.Symbols["lbl"])+1 {
		t.Fatalf("label arithmetic in JMP: %d", j.Imm)
	}
}

func TestBinaryAndCharNumbers(t *testing.T) {
	im := mustAssemble(t, "LDI R0, 0b1010\nLDI R1, 'A'\n")
	a, _ := isa.Decode(im.Sections[0].Words[0])
	b, _ := isa.Decode(im.Sections[0].Words[1])
	if a.Imm != 10 || b.Imm != 'A' {
		t.Fatalf("numbers: %d %d", a.Imm, b.Imm)
	}
}

func TestNegativeMemOffsetForms(t *testing.T) {
	im := mustAssemble(t, "LD R0, [R1 - 3]\nST R2, [G0 + 0x10]\n")
	a, _ := isa.Decode(im.Sections[0].Words[0])
	b, _ := isa.Decode(im.Sections[0].Words[1])
	if a.Imm != -3 || b.Imm != 16 {
		t.Fatalf("offsets: %d %d", a.Imm, b.Imm)
	}
}

func TestImageSymbolLookup(t *testing.T) {
	im := mustAssemble(t, "start: NOP\n.equ K, 7\n")
	if v, ok := im.Symbol("start"); !ok || v != 0 {
		t.Fatal("label lookup failed")
	}
	if v, ok := im.Symbol("K"); !ok || v != 7 {
		t.Fatal("equ lookup failed")
	}
	if _, ok := im.Symbol("nope"); ok {
		t.Fatal("phantom symbol")
	}
	if im.Size() != 1 {
		t.Fatalf("Size = %d", im.Size())
	}
}

func TestImageSourceMetadata(t *testing.T) {
	im := mustAssemble(t, `
.equ K, 7
start:
    LDI  R0, K
    LI   R1, 0x1234    ; two words, one source line
.org 0x100
data: .word 1, 2
more: .space 2
tail: NOP
`)
	// Labels excludes .equ constants; Symbols keeps both.
	if _, ok := im.Labels["K"]; ok {
		t.Fatal(".equ constant leaked into Labels")
	}
	for _, want := range []string{"start", "data", "more", "tail"} {
		if _, ok := im.Labels[want]; !ok {
			t.Fatalf("label %q missing from Labels", want)
		}
	}
	// Source lines: LDI at line 4; both LI words at line 5.
	if im.SourceLines[0] != 4 || im.SourceLines[1] != 5 || im.SourceLines[2] != 5 {
		t.Fatalf("SourceLines = %v", im.SourceLines)
	}
	// Data marks .word and .space payloads, not instructions.
	for a := uint16(0x100); a < 0x104; a++ {
		if !im.Data[a] {
			t.Fatalf("address %#x not marked as data", a)
		}
	}
	if im.Data[0] || im.Data[0x104] {
		t.Fatal("instruction word marked as data")
	}
}

func TestAssembleWithHook(t *testing.T) {
	calls := 0
	im, err := AssembleWith("NOP\n", func(im *Image) error { calls++; return nil })
	if err != nil || im == nil || calls != 1 {
		t.Fatalf("hook not run: %v %v %d", im, err, calls)
	}
	wantErr := fmt.Errorf("rejected")
	if _, err := AssembleWith("NOP\n", func(*Image) error { return wantErr }); err != wantErr {
		t.Fatalf("hook rejection not propagated: %v", err)
	}
}
