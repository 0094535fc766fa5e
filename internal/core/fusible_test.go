package core

import (
	"testing"

	"disc/internal/isa"
	"disc/internal/mem"
)

// TestFusibleSet pins the set of instructions a block session may
// execute, over every opcode: the ALU (NOP..LDHI), LD, ST and TAS
// (external accesses end the session at run time), LDM and STM only at
// a static internal address, MFS of any special register, MTS only to
// SR, H or VB, and JMP and Bcc only in a shadow position. Everything
// else — calls, returns, computed jumps, stream and interrupt control,
// illegal words — breaks a region.
func TestFusibleSet(t *testing.T) {
	const internal, external = 0x40, isa.ExternalBase
	type tc struct {
		name string
		in   isa.Instruction
		meta uint8
		want bool
	}
	var cases []tc
	// Every opcode with its natural meta: MetaShadow exactly on the
	// control transfers, as mem.Program predecodes it.
	for op := isa.Op(0); op < isa.NumOps; op++ {
		in := isa.Instruction{Op: op, Imm: internal}
		var meta uint8
		if in.IsControlTransfer() {
			meta = mem.MetaShadow
		}
		want := op <= isa.OpLDHI
		switch op {
		case isa.OpLD, isa.OpST, isa.OpTAS, isa.OpLDM, isa.OpSTM,
			isa.OpJMP, isa.OpBcc, isa.OpMFS, isa.OpMTS:
			// MTS defaults to Spec PC here: a computed jump.
			want = op != isa.OpMTS
		}
		cases = append(cases, tc{op.String(), in, meta, want})
	}
	cases = append(cases,
		tc{"LDM-external", isa.Instruction{Op: isa.OpLDM, Imm: external}, 0, false},
		tc{"STM-external", isa.Instruction{Op: isa.OpSTM, Imm: external}, 0, false},
		tc{"LDM-last-internal", isa.Instruction{Op: isa.OpLDM, Imm: isa.InternalSize - 1}, 0, true},
		tc{"JMP-no-shadow", isa.Instruction{Op: isa.OpJMP, Imm: 7}, 0, false},
		tc{"Bcc-no-shadow", isa.Instruction{Op: isa.OpBcc, Cond: isa.CondNE}, 0, false},
		tc{"BAL-shadow", isa.Instruction{Op: isa.OpBcc, Cond: isa.CondAL}, mem.MetaShadow, true},
		tc{"ADD-shadow", isa.Instruction{Op: isa.OpADD}, mem.MetaShadow, false},
		tc{"ADD-illegal", isa.Instruction{Op: isa.OpADD}, mem.MetaIllegal, false},
		tc{"NOP-illegal", isa.Instruction{Op: isa.OpNOP}, mem.MetaIllegal, false},
		tc{"ADDI-SWInc", isa.Instruction{Op: isa.OpADDI, SW: isa.SWInc}, 0, true},
		tc{"LD-SWDec", isa.Instruction{Op: isa.OpLD, SW: isa.SWDec}, 0, true},
	)
	for sp := isa.Special(0); sp < isa.NumSpecials; sp++ {
		cases = append(cases,
			tc{"MFS-" + sp.String(), isa.Instruction{Op: isa.OpMFS, Spec: sp}, 0, true},
			tc{"MTS-" + sp.String(), isa.Instruction{Op: isa.OpMTS, Spec: sp}, 0,
				sp == isa.SpecSR || sp == isa.SpecH || sp == isa.SpecVB})
	}
	for _, c := range cases {
		if got := fusible(c.in, c.meta); got != c.want {
			t.Errorf("%s (meta %#x): fusible = %v, want %v", c.name, c.meta, got, c.want)
		}
	}
}
