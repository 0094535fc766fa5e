package mem

import (
	"testing"
	"testing/quick"

	"disc/internal/isa"
)

func TestProgramLoadFetch(t *testing.T) {
	p := NewProgram()
	img := []isa.Word{0x000001, 0x000002, 0x000003}
	if err := p.Load(0x100, img); err != nil {
		t.Fatal(err)
	}
	for i, w := range img {
		if got := p.Fetch(uint16(0x100 + i)); got != w {
			t.Fatalf("Fetch(%#x) = %#x, want %#x", 0x100+i, got, w)
		}
	}
	if p.Fetch(0x0FF) != 0 {
		t.Fatal("unloaded program memory not NOP")
	}
	if p.Limit() != 0x103 {
		t.Fatalf("Limit = %#x, want 0x103", p.Limit())
	}
}

func TestProgramLoadOverflow(t *testing.T) {
	p := NewProgram()
	img := make([]isa.Word, 3)
	if err := p.Load(0xFFFE, img); err == nil {
		t.Fatal("Load accepted an image overflowing program memory")
	}
	if err := p.Load(0xFFFD, img); err != nil {
		t.Fatalf("Load rejected a fitting image: %v", err)
	}
}

func TestProgramSet(t *testing.T) {
	p := NewProgram()
	p.Set(0x42, 0xABCDEF)
	if p.Fetch(0x42) != 0xABCDEF {
		t.Fatal("Set/Fetch mismatch")
	}
	if p.Limit() != 0x43 {
		t.Fatalf("Limit = %#x after Set", p.Limit())
	}
}

// TestProgramPredecodeAgreesWithDecode: property — for any 24-bit word
// written anywhere in the image, the predecoded view is exactly what a
// live isa.Decode of the same word would produce: same instruction (or
// NOP with MetaIllegal when Decode rejects it), and MetaShadow iff the
// instruction is a control transfer. This is the contract that lets the
// core's issue stage trust the cache instead of decoding per fetch.
func TestProgramPredecodeAgreesWithDecode(t *testing.T) {
	f := func(addr uint16, raw uint32) bool {
		w := isa.Word(raw) & isa.MaxWord
		p := NewProgram()
		p.Set(addr, w)
		in, meta := p.Decoded(addr)
		live, err := isa.Decode(w)
		if err != nil {
			return meta&MetaIllegal != 0 && in.Op == isa.OpNOP
		}
		if in != live || meta&MetaIllegal != 0 {
			return false
		}
		return (meta&MetaShadow != 0) == live.IsControlTransfer()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestProgramSetRedecodes: overwriting a word refreshes its cached
// decode — the cache can never go stale relative to the raw words.
func TestProgramSetRedecodes(t *testing.T) {
	p := NewProgram()
	p.Set(7, 0xFFFFFF) // no such opcode: illegal
	if _, meta := p.Decoded(7); meta&MetaIllegal == 0 {
		t.Fatal("undecodable word not marked MetaIllegal")
	}
	p.Set(7, 0) // NOP
	if in, meta := p.Decoded(7); meta != 0 || in.Op != isa.OpNOP {
		t.Fatalf("re-Set word kept stale predecode: meta=%#x op=%v", meta, in.Op)
	}
}

// TestProgramDecodedWildPC: a fetch at or past the loaded image reads
// as an illegal word, while Fetch keeps its total raw view. This is the
// hardware rule that makes a wild PC trip the illegal-instruction
// condition instead of sliding through 64 K of empty-memory NOPs.
func TestProgramDecodedWildPC(t *testing.T) {
	p := NewProgram()
	if err := p.Load(0x100, []isa.Word{0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	if _, meta := p.Decoded(0x102); meta&MetaIllegal != 0 {
		t.Fatal("last loaded word marked illegal")
	}
	for _, pc := range []uint16{0x103, 0x1000, 0xFFFF} {
		in, meta := p.Decoded(pc)
		if meta&MetaIllegal == 0 || in.Op != isa.OpNOP {
			t.Fatalf("Decoded(%#x) outside image = (%v, %#x), want illegal NOP", pc, in.Op, meta)
		}
	}
	if p.Fetch(0xFFFF) != 0 {
		t.Fatal("Fetch lost its total raw view")
	}
}

func TestInternalReadWrite(t *testing.T) {
	m := NewInternal()
	m.Write(0, 0x1234)
	m.Write(isa.InternalSize-1, 0x5678)
	if m.Read(0) != 0x1234 || m.Read(isa.InternalSize-1) != 0x5678 {
		t.Fatal("read/write mismatch")
	}
}

func TestInternalContains(t *testing.T) {
	m := NewInternal()
	if !m.Contains(0) || !m.Contains(isa.InternalSize-1) {
		t.Fatal("Contains rejects in-range address")
	}
	if m.Contains(isa.InternalSize) || m.Contains(isa.ExternalBase) {
		t.Fatal("Contains accepts out-of-range address")
	}
}

func TestTestAndSetSemantics(t *testing.T) {
	m := NewInternal()
	m.Write(10, 0x0001)
	old := m.TestAndSet(10)
	if old != 0x0001 {
		t.Fatalf("TAS returned %#x, want old value 0x0001", old)
	}
	if m.Read(10) != 0x8001 {
		t.Fatalf("TAS left %#x, want 0x8001", m.Read(10))
	}
	// A second TAS sees the lock bit — the semaphore "taken" case.
	if old := m.TestAndSet(10); old&0x8000 == 0 {
		t.Fatalf("second TAS returned %#x without lock bit", old)
	}
}

// TestTASIdempotentOnce: property — after one TAS the top bit is always
// set and the low 15 bits are preserved.
func TestTASProperty(t *testing.T) {
	f := func(addr uint16, v uint16) bool {
		a := addr % isa.InternalSize
		m := NewInternal()
		m.Write(a, v)
		old := m.TestAndSet(a)
		return old == v && m.Read(a) == v|0x8000
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotIsCopy(t *testing.T) {
	m := NewInternal()
	m.Write(5, 42)
	snap := m.Snapshot()
	if snap[5] != 42 {
		t.Fatal("snapshot missed a write")
	}
	snap[5] = 0
	if m.Read(5) != 42 {
		t.Fatal("mutating the snapshot changed the memory")
	}
}

// TestProgramVersion pins the mutation-version contract the block
// engine's table invalidation relies on: every Load and every Set
// bumps the version, and mere reads never do.
func TestProgramVersion(t *testing.T) {
	p := NewProgram()
	v0 := p.Version()
	if err := p.Load(0, []isa.Word{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	v1 := p.Version()
	if v1 == v0 {
		t.Fatalf("Load did not bump version (still %d)", v1)
	}
	p.Set(1, 42)
	v2 := p.Version()
	if v2 == v1 {
		t.Fatalf("Set did not bump version (still %d)", v2)
	}
	p.Fetch(1)
	p.Decoded(1)
	_ = p.Limit()
	if p.Version() != v2 {
		t.Fatalf("read-only access bumped version: %d -> %d", v2, p.Version())
	}
	// A second load over the same range still counts as a mutation —
	// the table compiled against the old contents must go stale even if
	// the words happen to match.
	if err := p.Load(0, []isa.Word{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if p.Version() == v2 {
		t.Fatalf("reload did not bump version")
	}
}

// TestProgramLoadPastLimitLeavesNOPGap: a Load at a base past the
// current limit raises the limit to the end of the new image, and the
// words it skips read as the empty-memory NOPs of a fresh store — raw
// 0 from Fetch, and a legal NOP (not the wild-PC illegal word) from
// Decoded, since they now lie below the limit.
func TestProgramLoadPastLimitLeavesNOPGap(t *testing.T) {
	p := NewProgram()
	if err := p.Load(0, []isa.Word{0xFFFFFF, 0xFFFFFF}); err != nil {
		t.Fatal(err)
	}
	if err := p.Load(0x100, []isa.Word{0xFFFFFF}); err != nil {
		t.Fatal(err)
	}
	if p.Limit() != 0x101 {
		t.Fatalf("Limit = %#x, want 0x101", p.Limit())
	}
	for pc := uint16(2); pc < 0x100; pc++ {
		if w := p.Fetch(pc); w != 0 {
			t.Fatalf("Fetch(%#x) in the gap = %#x, want 0", pc, w)
		}
		if in, meta := p.Decoded(pc); meta != 0 || in != (isa.Instruction{}) {
			t.Fatalf("Decoded(%#x) in the gap = (%+v, %#x), want plain NOP", pc, in, meta)
		}
	}
	if _, meta := p.Decoded(0x100); meta&MetaIllegal == 0 {
		t.Fatal("loaded illegal word lost MetaIllegal")
	}
}

// TestProgramSetExtends: Set past the limit extends the store to cover
// the written word, with NOPs in between and the wild-PC rule past it.
func TestProgramSetExtends(t *testing.T) {
	p := NewProgram()
	if err := p.Load(0, []isa.Word{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	p.Set(0x80, 0xABCDEF)
	if p.Limit() != 0x81 {
		t.Fatalf("Limit = %#x after Set(0x80), want 0x81", p.Limit())
	}
	if p.Fetch(0x80) != 0xABCDEF || p.Fetch(2) != 3 {
		t.Fatal("Set past the limit lost a word")
	}
	if in, meta := p.Decoded(0x7F); meta != 0 || in != (isa.Instruction{}) {
		t.Fatalf("Decoded(0x7F) = (%+v, %#x), want plain NOP", in, meta)
	}
	if _, meta := p.Decoded(0x81); meta&MetaIllegal == 0 {
		t.Fatal("Decoded past the extended limit is not illegal")
	}
	p.Set(0x10, 7) // below the limit: no change to it
	if p.Limit() != 0x81 || p.Fetch(0x10) != 7 {
		t.Fatalf("Set below the limit: Limit = %#x, Fetch = %#x", p.Limit(), p.Fetch(0x10))
	}
}

// TestProgramSetStateShrinkThenGrow: SetState to a smaller image drops
// everything past its limit, and a later Set that raises the limit back
// over the dropped region finds exactly what a fresh store given the
// same SetState and Set would hold: no stale word or predecode
// survives.
func TestProgramSetStateShrinkThenGrow(t *testing.T) {
	const top = 0x200
	big := make([]isa.Word, top)
	for i := range big {
		big[i] = isa.Word(0x9E3779*uint32(i+1)) & isa.MaxWord // legal, illegal and branch words alike
	}
	p := NewProgram()
	if err := p.Load(0, big); err != nil {
		t.Fatal(err)
	}
	small := ProgramState{Words: []isa.Word{5, 6, 7, 8}, Limit: 4}
	v := p.Version()
	if err := p.SetState(small); err != nil {
		t.Fatal(err)
	}
	if p.Version() == v {
		t.Fatal("SetState did not bump version")
	}
	if p.Limit() != 4 {
		t.Fatalf("Limit = %d after SetState, want 4", p.Limit())
	}
	if _, meta := p.Decoded(4); meta&MetaIllegal == 0 {
		t.Fatal("Decoded past the shrunk limit is not illegal")
	}
	p.Set(top-1, 0x123456)

	fresh := NewProgram()
	if err := fresh.SetState(small); err != nil {
		t.Fatal(err)
	}
	fresh.Set(top-1, 0x123456)
	if p.Limit() != fresh.Limit() {
		t.Fatalf("Limit = %#x, fresh store %#x", p.Limit(), fresh.Limit())
	}
	for pc := uint16(0); pc <= top; pc++ {
		if p.Fetch(pc) != fresh.Fetch(pc) {
			t.Fatalf("Fetch(%#x) = %#x, fresh store %#x", pc, p.Fetch(pc), fresh.Fetch(pc))
		}
		in, meta := p.Decoded(pc)
		fin, fmeta := fresh.Decoded(pc)
		if in != fin || meta != fmeta {
			t.Fatalf("Decoded(%#x) = (%+v, %#x), fresh store (%+v, %#x)", pc, in, meta, fin, fmeta)
		}
	}
	if got := p.State(); len(got.Words) != top || got.Limit != top {
		t.Fatalf("State after regrowth: %d words, limit %d", len(got.Words), got.Limit)
	}
}

// TestProgramFetchPastLimit: Fetch is total — past the limit, and on an
// empty store, it reads 0 without a panic.
func TestProgramFetchPastLimit(t *testing.T) {
	p := NewProgram()
	for _, pc := range []uint16{0, 1, 0x7FFF, 0xFFFF} {
		if w := p.Fetch(pc); w != 0 {
			t.Fatalf("empty store Fetch(%#x) = %#x", pc, w)
		}
		if _, meta := p.Decoded(pc); meta&MetaIllegal == 0 {
			t.Fatalf("empty store Decoded(%#x) is not illegal", pc)
		}
	}
	p.Set(0xFFFF, 9)
	if p.Fetch(0xFFFF) != 9 || p.Fetch(0xFFFE) != 0 || p.Limit() != ProgramSize {
		t.Fatal("Set at the top of program memory")
	}
}

// TestProgramAscendingSetIsLinear: writing all 64 K words one ascending
// Set at a time grows the store geometrically. Reallocating to the
// exact new length on every call would cost 3 allocations per Set
// (196 608 here) and copy quadratically; doubling costs 3 per
// power of two, 17 each for words, code and meta.
func TestProgramAscendingSetIsLinear(t *testing.T) {
	const budget = 3*17 + 1 // + the Program itself
	n := testing.AllocsPerRun(1, func() {
		p := NewProgram()
		for pc := 0; pc < ProgramSize; pc++ {
			p.Set(uint16(pc), isa.Word(pc))
		}
		if p.Limit() != ProgramSize {
			t.Fatalf("Limit = %d after filling program memory", p.Limit())
		}
	})
	if n > budget {
		t.Fatalf("ascending Set over %d words made %.0f allocations, budget %d", ProgramSize, n, budget)
	}
}

// TestProgramSetStateSameSize: restoring an image of the store's own
// size (a fork target or a resumed machine with the same program)
// reuses its storage — no allocation — and still replaces every word
// and predecode.
func TestProgramSetStateSameSize(t *testing.T) {
	p := NewProgram()
	if err := p.Load(0, []isa.Word{0xFFFFFF, 0xFFFFFF, 0xFFFFFF}); err != nil {
		t.Fatal(err)
	}
	s := ProgramState{Words: []isa.Word{0, 0, 0}, Limit: 3}
	if n := testing.AllocsPerRun(10, func() {
		if err := p.SetState(s); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("same-size SetState made %.0f allocations", n)
	}
	for pc := uint16(0); pc < 3; pc++ {
		if in, meta := p.Decoded(pc); p.Fetch(pc) != 0 || meta != 0 || in != (isa.Instruction{}) {
			t.Fatalf("word %d kept its pre-restore content", pc)
		}
	}
}
