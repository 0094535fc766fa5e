// Package mem implements the two DISC1 memories of the Harvard
// architecture (§3.7): the 24-bit-wide program memory reached over the
// program bus, and the 2 KB shared internal data memory that all
// instruction streams address with zero wait states.
//
// Program memory addresses the full 64 K words, but it stores only the
// loaded range, together with a predecoded shadow of that range; every
// address past it reads as an empty-memory NOP.
//
// External memory and peripherals are NOT here — anything at or above
// isa.ExternalBase goes through the asynchronous bus interface in
// package bus, which is what gives DISC its wait-state/reactivation
// behaviour.
package mem

import (
	"fmt"

	"disc/internal/isa"
)

// ProgramSize is the number of 24-bit words in program memory (16-bit
// word-addressed PC).
const ProgramSize = 1 << 16

// Meta bits attached to each predecoded instruction. They answer the
// two questions the issue stage would otherwise re-derive every cycle:
// "did this word decode?" and "does it open a branch shadow?".
const (
	// MetaIllegal marks a word that failed isa.Decode (or a fetch past
	// the loaded image — see Decoded). The cached instruction is a NOP;
	// the machine counts IllegalInstr and executes it as such.
	MetaIllegal uint8 = 1 << iota
	// MetaShadow marks a control transfer (isa.Instruction.
	// IsControlTransfer): issuing it puts the stream in a branch shadow.
	MetaShadow
)

// Program is the instruction store fetched over the 24-bit program bus.
// It is written at load time and read-only to executing streams, which
// is what permits a same-cycle instruction fetch and data access.
//
// The address space is the full 64 K words of §3.7, but storage covers
// only the loaded range: words, code and meta are slices whose length
// is the load limit, and every address at or past it reads as the
// empty-memory NOP (word 0) a fresh store would hold. Load and Set
// extend the slices; SetState refills them, reallocating at its limit
// when that differs. A 55-word image therefore costs about a kilobyte
// here, not the 1.3 MB of three fixed 64 K arrays.
//
// Because the store is immutable while streams execute (the Harvard
// property — there is no instruction that writes program memory),
// Program also keeps a predecoded shadow of every loaded word: Load and
// Set run each word through isa.Decode once and cache the result, so
// the core's issue stage reads a ready-made isa.Instruction instead of
// decoding 24-bit fields tens of millions of times per run. isa.Decode
// remains the single source of truth; the cache is generated through
// it and can never disagree with it.
//
// Invariant: words, code and meta always have the same length, and
// their spare capacity past that length is zero. Every backing array
// is freshly allocated (hence zeroed) and no length ever shrinks in
// place, so reslicing into the spare capacity exposes exactly the NOPs
// of a fresh store.
type Program struct {
	words   []isa.Word
	code    []isa.Instruction
	meta    []uint8
	version uint32 // bumped on every Load/Set/SetState, see Version
}

// NewProgram returns an empty program memory: every address reads as
// NOP (word 0) and nothing is allocated until a word is loaded. The
// zero isa.Instruction is exactly Decode(0) — a plain NOP — so zeroed
// storage is a consistent predecode of zeroed words.
func NewProgram() *Program { return &Program{} }

// extend raises the store's length to n, leaving the new words as
// NOPs. When the backing arrays are full it reallocates them to
// capacity c (c >= n).
func (p *Program) extend(n, c int) {
	if n <= len(p.words) {
		return
	}
	p.words = extendTo(p.words, n, c)
	p.code = extendTo(p.code, n, c)
	p.meta = extendTo(p.meta, n, c)
}

// extendTo returns s lengthened to n, reallocated to capacity c if s
// cannot hold n. The reslice path relies on the zeroed spare capacity
// the Program invariant guarantees.
func extendTo[T any](s []T, n, c int) []T {
	if n <= cap(s) {
		return s[:n]
	}
	t := make([]T, n, c)
	copy(t, s)
	return t
}

// predecode refreshes the cached decode of the word at pc, which must
// be below the limit.
func (p *Program) predecode(pc uint16) {
	in, err := isa.Decode(p.words[pc])
	if err != nil {
		p.code[pc] = isa.Instruction{Op: isa.OpNOP}
		p.meta[pc] = MetaIllegal
		return
	}
	p.code[pc] = in
	var m uint8
	if in.IsControlTransfer() {
		m |= MetaShadow
	}
	p.meta[pc] = m
}

// Load copies an assembled image into program memory starting at base.
// Words between the old limit and base, if any, stay NOPs.
func (p *Program) Load(base uint16, image []isa.Word) error {
	end := int(base) + len(image)
	if end > ProgramSize {
		return fmt.Errorf("mem: image of %d words at %#04x overflows program memory", len(image), base)
	}
	p.extend(end, end)
	copy(p.words[base:], image)
	for i := range image {
		p.predecode(base + uint16(i))
	}
	p.version++
	return nil
}

// Fetch returns the instruction word at pc. Program memory wraps like
// the 16-bit PC does, so Fetch is total: past the load limit it reads
// the empty-memory NOP, 0.
func (p *Program) Fetch(pc uint16) isa.Word {
	if int(pc) >= len(p.words) {
		return 0
	}
	return p.words[pc]
}

// Decoded returns the predecoded instruction at pc and its meta bits.
// A wild PC — at or past the loaded image — reads as an illegal word:
// the returned NOP carries MetaIllegal so the machine raises the
// existing illegal-instruction condition instead of silently executing
// the empty-memory NOPs it would find there. (Fetch keeps the raw
// total-function view for the monitor and disassembler.)
//
// The issue stage calls this every cycle: the limit compare proves
// code's index in range, and reslicing meta to len(code) lets it prove
// meta's too.
func (p *Program) Decoded(pc uint16) (isa.Instruction, uint8) {
	code := p.code
	if int(pc) >= len(code) {
		return isa.Instruction{Op: isa.OpNOP}, MetaIllegal
	}
	return code[pc], p.meta[:len(code)][pc]
}

// Set writes a single instruction word (used by tests and the monitor).
// Writing past the limit extends the store; the backing arrays grow
// geometrically, so a run of ascending Sets copies linearly overall.
func (p *Program) Set(pc uint16, w isa.Word) {
	n := int(pc) + 1
	p.extend(n, min(max(n, 2*cap(p.words)), ProgramSize))
	p.words[pc] = w
	p.predecode(pc)
	p.version++
}

// Limit returns one past the highest address ever loaded (since the
// last SetState).
func (p *Program) Limit() uint32 { return uint32(len(p.words)) }

// Version counts store mutations: it increments on every Load, Set and
// SetState. Caches derived from program memory — the core's compiled
// block table in particular — record the version they were built
// against and treat a mismatch as "image changed, rebuild or bail". A
// fresh Program is version 0.
func (p *Program) Version() uint32 { return p.version }

// ProgramState is the serializable content of program memory: the raw
// words up to the load limit. The predecode cache is derived state and
// deliberately absent — SetState regenerates it through isa.Decode, so
// a snapshot can never smuggle in a decode that disagrees with the ISA.
type ProgramState struct {
	Words []isa.Word
	Limit uint32
}

// State captures the loaded portion of program memory.
func (p *Program) State() ProgramState {
	w := make([]isa.Word, len(p.words))
	copy(w, p.words)
	return ProgramState{Words: w, Limit: p.Limit()}
}

// SetState replaces the whole program store with a captured image and
// re-predecodes it. A store whose limit differs from the captured one
// is reallocated at exactly the captured limit, so everything past it
// reads as a fresh store would, even if a later Set raises the limit
// back over a region the old image held. One whose limit matches — a
// restore into a machine holding an image of the same size — reuses
// its storage, since every word below the limit is overwritten. The
// version counter is BUMPED, not restored: version is a local mutation
// counter for derived caches, and a restore is a mutation — any block
// table compiled against the pre-restore image must observe a mismatch
// and invalidate (DESIGN.md §13).
func (p *Program) SetState(s ProgramState) error {
	if s.Limit > ProgramSize || uint64(len(s.Words)) != uint64(s.Limit) {
		return fmt.Errorf("mem: program state limit %d with %d words is malformed", s.Limit, len(s.Words))
	}
	if n := len(s.Words); n != len(p.words) {
		p.words, p.code, p.meta = nil, nil, nil
		p.extend(n, n)
	}
	copy(p.words, s.Words)
	for pc := range p.words {
		p.predecode(uint16(pc))
	}
	p.version++
	return nil
}

// Internal is the 2 KB on-chip data memory shared between all
// instruction streams (§3.7). Accesses are zero-wait and, because the
// machine executes one instruction per cycle, read-modify-write
// instructions (TAS, SWP against memory) are atomic — which is exactly
// the property §3.6.2 relies on for semaphores.
type Internal struct {
	words [isa.InternalSize]uint16
}

// NewInternal returns zeroed internal memory.
func NewInternal() *Internal { return &Internal{} }

// Contains reports whether addr falls in the internal address window.
func (m *Internal) Contains(addr uint16) bool {
	return addr < isa.InternalSize
}

// Read returns the word at addr. addr must satisfy Contains.
func (m *Internal) Read(addr uint16) uint16 {
	return m.words[addr]
}

// Write stores v at addr. addr must satisfy Contains.
func (m *Internal) Write(addr uint16, v uint16) {
	m.words[addr] = v
}

// TestAndSet atomically returns the word at addr and sets its top bit,
// the semaphore primitive of §3.6.2.
func (m *Internal) TestAndSet(addr uint16) uint16 {
	old := m.words[addr]
	m.words[addr] = old | 0x8000
	return old
}

// Snapshot copies the memory contents (for tests and checkpointing).
func (m *Internal) Snapshot() []uint16 {
	out := make([]uint16, isa.InternalSize)
	copy(out, m.words[:])
	return out
}

// SetState restores contents previously captured by Snapshot.
func (m *Internal) SetState(words []uint16) error {
	if len(words) != isa.InternalSize {
		return fmt.Errorf("mem: internal state has %d words, memory holds %d", len(words), isa.InternalSize)
	}
	copy(m.words[:], words)
	return nil
}
