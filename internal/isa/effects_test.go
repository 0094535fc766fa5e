package isa

import "testing"

func TestFlowClassification(t *testing.T) {
	cases := []struct {
		in   Instruction
		want FlowKind
	}{
		{Instruction{Op: OpADD}, FlowFall},
		{Instruction{Op: OpJMP, Imm: 0x10}, FlowJump},
		{Instruction{Op: OpBcc, Cond: CondAL, Imm: 2}, FlowJump},
		{Instruction{Op: OpBcc, Cond: CondNE, Imm: -3}, FlowCond},
		{Instruction{Op: OpCALL, Imm: 0x40}, FlowCall},
		{Instruction{Op: OpCALR, Rs: G0}, FlowCallIndirect},
		{Instruction{Op: OpJR, Rs: R1}, FlowIndirect},
		{Instruction{Op: OpMTS, Spec: SpecPC, Rs: R0}, FlowIndirect},
		{Instruction{Op: OpMTS, Spec: SpecMR, Rs: R0}, FlowFall},
		{Instruction{Op: OpRET, Imm: 2}, FlowReturn},
		{Instruction{Op: OpRETI}, FlowReturn},
		{Instruction{Op: OpHALT}, FlowHalt},
	}
	for _, c := range cases {
		if got := c.in.Flow(); got != c.want {
			t.Errorf("%s: Flow = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestStaticTarget(t *testing.T) {
	if a, ok := (Instruction{Op: OpJMP, Imm: 0x123}).StaticTarget(7); !ok || a != 0x123 {
		t.Fatalf("JMP target %#x %v", a, ok)
	}
	if a, ok := (Instruction{Op: OpBcc, Cond: CondEQ, Imm: -4}).StaticTarget(10); !ok || a != 7 {
		t.Fatalf("Bcc target %d %v", a, ok)
	}
	if _, ok := (Instruction{Op: OpJR, Rs: R0}).StaticTarget(0); ok {
		t.Fatal("JR has no static target")
	}
}

func TestAWPDelta(t *testing.T) {
	cases := []struct {
		in    Instruction
		delta int
		known bool
	}{
		{Instruction{Op: OpNOP}, 0, true},
		{Instruction{Op: OpNOP, SW: SWInc}, 1, true},
		{Instruction{Op: OpADD, SW: SWDec}, -1, true},
		{Instruction{Op: OpCALL}, 1, true},
		{Instruction{Op: OpRET, Imm: 3}, -4, true},
		{Instruction{Op: OpRETI}, -2, true},
		{Instruction{Op: OpMTS, Spec: SpecAWP, Rs: G0}, 0, false},
		{Instruction{Op: OpMTS, Spec: SpecVB, Rs: G0}, 0, true},
	}
	for _, c := range cases {
		d, known := c.in.AWPDelta()
		if d != c.delta || known != c.known {
			t.Errorf("%s: AWPDelta = %d,%v want %d,%v", c.in, d, known, c.delta, c.known)
		}
	}
}

func TestRegReadsWrites(t *testing.T) {
	has := func(rs []Reg, r Reg) bool {
		for _, x := range rs {
			if x == r {
				return true
			}
		}
		return false
	}
	// list turns a (fixed array, count) result into the slice it names.
	list := func(rs [2]Reg, n int) []Reg { return rs[:n] }
	add := Instruction{Op: OpADD, Rd: R0, Rs: R1, Rt: G0}
	if !has(list(add.RegReads()), R1) || !has(list(add.RegReads()), G0) || has(list(add.RegReads()), R0) {
		t.Fatalf("ADD reads %v", list(add.RegReads()))
	}
	if !has(list(add.RegWrites()), R0) {
		t.Fatalf("ADD writes %v", list(add.RegWrites()))
	}
	// Immediate ALU ops read-modify-write rd.
	addi := Instruction{Op: OpADDI, Rd: R2, Imm: 1}
	if !has(list(addi.RegReads()), R2) || !has(list(addi.RegWrites()), R2) {
		t.Fatal("ADDI must read and write rd")
	}
	// LDI only writes.
	ldi := Instruction{Op: OpLDI, Rd: R3, Imm: 1}
	if len(list(ldi.RegReads())) != 0 || !has(list(ldi.RegWrites()), R3) {
		t.Fatal("LDI effects wrong")
	}
	// Stores read the data register; loads write it.
	st := Instruction{Op: OpST, Rd: R4, Rs: G1}
	if !has(list(st.RegReads()), R4) || len(list(st.RegWrites())) != 0 {
		t.Fatal("ST effects wrong")
	}
	ld := Instruction{Op: OpLD, Rd: R4, Rs: G1}
	if has(list(ld.RegReads()), R4) || !has(list(ld.RegWrites()), R4) {
		t.Fatal("LD effects wrong")
	}
	// SWP exchanges: reads and writes both.
	swp := Instruction{Op: OpSWP, Rd: R0, Rs: G2}
	if !has(list(swp.RegReads()), R0) || !has(list(swp.RegWrites()), G2) {
		t.Fatal("SWP effects wrong")
	}
	// The analyzer asks for every word's effects; the answer must not
	// cost an allocation.
	if n := testing.AllocsPerRun(100, func() {
		_, _ = swp.RegReads()
		_, _ = add.RegWrites()
	}); n != 0 {
		t.Fatalf("RegReads/RegWrites made %.0f allocations", n)
	}
}

func TestFlagEffects(t *testing.T) {
	if !(Instruction{Op: OpCMP}).SetsFlags() || !(Instruction{Op: OpLD}).SetsFlags() {
		t.Fatal("compare/load must set flags")
	}
	if (Instruction{Op: OpST}).SetsFlags() || (Instruction{Op: OpJMP}).SetsFlags() {
		t.Fatal("store/jump must not set flags")
	}
	if !(Instruction{Op: OpBcc, Cond: CondNE}).ReadsFlags() {
		t.Fatal("BNE reads flags")
	}
	if (Instruction{Op: OpBcc, Cond: CondAL}).ReadsFlags() {
		t.Fatal("BAL does not read flags")
	}
	if !(Instruction{Op: OpMUL}).WritesH() || !(Instruction{Op: OpMFS, Spec: SpecH}).ReadsH() {
		t.Fatal("H tracking wrong")
	}
}

func TestDecodeRawAndReservedField(t *testing.T) {
	// An ADD with rt = 15 round-trips through DecodeRaw even though
	// Decode rejects it.
	w := Word(OpADD)<<18 | Word(R1)<<12 | Word(R2)<<8 | Word(15)<<4
	if _, err := Decode(w); err == nil {
		t.Fatal("Decode accepted reserved register 15")
	}
	raw := DecodeRaw(w)
	if raw.Op != OpADD || raw.Rt != RegInvalid {
		t.Fatalf("DecodeRaw = %+v", raw)
	}
	if r, bad := ReservedRegField(w); !bad || r != RegInvalid {
		t.Fatalf("ReservedRegField missed: %v %v", r, bad)
	}
	// A B-format word has no register fields at all.
	b := Word(OpBcc)<<18 | Word(CondEQ)<<12 | 0xFF0
	if _, bad := ReservedRegField(b); bad {
		t.Fatal("branch flagged for reserved register")
	}
	// DecodeRaw agrees with Decode on every legal word it accepts.
	for w := Word(0); w < 1<<18; w += 977 {
		in, err := Decode(w)
		if err != nil {
			continue
		}
		if raw := DecodeRaw(w); raw != in {
			t.Fatalf("DecodeRaw(%#06x) = %+v, Decode = %+v", uint32(w), raw, in)
		}
	}
}
