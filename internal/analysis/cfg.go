package analysis

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"disc/internal/asm"
	"disc/internal/interrupt"
	"disc/internal/isa"
)

// instr is one assembled word annotated for analysis: the CFG's nodes
// are individual instructions (granularity one), which keeps joins,
// branch shadows and LI's two-word expansion exact with no block
// splitting bookkeeping.
type instr struct {
	addr uint16
	word isa.Word
	data bool // emitted by .word/.space
	in   isa.Instruction
	// tgt and fall are the indices in analyzer.code of the static
	// target (JMP, CALL, Bcc) and of addr+1, or -1 where there is no
	// such target or the address holds no assembled word.
	tgt, fall int32
	bad       error // decode failure
}

// entryKind ranks how much the analyzer knows about machine state at
// an analysis entry point; higher kinds carry stricter initial state.
type entryKind uint8

const (
	entryNone   entryKind = iota
	entryLabel            // unreferenced label: lenient root
	entryCall             // CALL target: fresh frame, R0 = return PC
	entryVector           // interrupt vector slot: R0=saved SR, R1=return PC
	entryStream           // explicit stream start: nothing defined
)

// analyzer holds one run's state. Every per-address table is a dense
// slice indexed like code, the image's assembled words in ascending
// address order, and at maps an address to that index. Nothing is
// sized to the 64K address space or keyed by a hash map, so a run's
// allocations track the findings and blocks it reports, not the
// image's size. The fixpoint passes seed their worklists by walking
// entry in index order, which is address order: with widening (value
// pass) and first-report-wins diagnostics (window, usedef), seeding
// order is observable.
type analyzer struct {
	im     *asm.Image
	opts   Options
	labels labelIndex

	code     []instr     // assembled words, ascending address, first section wins
	entry    []entryKind // analysis root kind per word, entryNone if not a root
	reach    []bool
	findings []Finding

	// Value-pass fixpoint results, consumed by the livelock pass and
	// the block-summary layer.
	vals  []*vstate // final in-state per word; nil where the pass never reached
	fates []int8    // final fate per conditional branch, fateVaries elsewhere
}

func newAnalyzer(im *asm.Image, opts Options) *analyzer {
	a := &analyzer{im: im, opts: opts, labels: newLabelIndex(im.Labels)}
	n := 0
	for _, sec := range im.Sections {
		n += len(sec.Words)
	}
	a.code = make([]instr, 0, n)
	for _, sec := range im.Sections {
		for i, w := range sec.Words {
			a.code = append(a.code, instr{addr: sec.Base + uint16(i), word: w})
		}
	}
	// Stable, so of two overlapping sections the earlier keeps the
	// word; the overlap itself is reported by checkOverlap. Images
	// usually list their sections in address order already.
	byAddr := func(x, y instr) int { return cmp.Compare(x.addr, y.addr) }
	if !slices.IsSortedFunc(a.code, byAddr) {
		slices.SortStableFunc(a.code, byAddr)
	}
	a.code = slices.CompactFunc(a.code, func(x, y instr) bool { return x.addr == y.addr })
	for i := range a.code {
		ins := &a.code[i]
		ins.data = im.Data[ins.addr]
		ins.in, ins.bad = isa.Decode(ins.word)
		ins.tgt, ins.fall = -1, -1
		if t, ok := ins.in.StaticTarget(ins.addr); ok && ins.bad == nil {
			ins.tgt = a.at(t)
		}
		// addr+1 can only sit at the next index, or wrap to index 0.
		if next := (i + 1) % len(a.code); a.code[next].addr == ins.addr+1 {
			ins.fall = int32(next)
		}
	}
	a.entry = make([]entryKind, len(a.code))
	a.reach = make([]bool, len(a.code))
	return a
}

// at returns the index in a.code of the word assembled at addr, or -1.
func (a *analyzer) at(addr uint16) int32 {
	i := sort.Search(len(a.code), func(i int) bool { return a.code[i].addr >= addr })
	if i < len(a.code) && a.code[i].addr == addr {
		return int32(i)
	}
	return -1
}

func (a *analyzer) streams() int {
	if a.opts.Streams <= 0 {
		return isa.NumStreams
	}
	return a.opts.Streams
}

// checkOverlap reports sections whose address ranges collide — the
// loader would silently let the later one win.
func (a *analyzer) checkOverlap() {
	type span struct{ lo, hi uint32 } // [lo,hi), 32-bit to survive wrap
	var spans []span
	for _, sec := range a.im.Sections {
		s := span{uint32(sec.Base), uint32(sec.Base) + uint32(len(sec.Words))}
		for _, o := range spans {
			if s.lo < o.hi && o.lo < s.hi {
				a.findingf(PassCFG, Error, sec.Base,
					"section %04x..%04x overlaps section %04x..%04x",
					s.lo, s.hi-1, o.lo, o.hi-1)
				break
			}
		}
		spans = append(spans, s)
	}
}

// checkDecode flags words that cannot execute: non-data words are the
// program's instructions and must decode; data words are checked later
// only if control can reach them.
func (a *analyzer) checkDecode() {
	for i := range a.code {
		ins := &a.code[i]
		if ins.data || ins.bad == nil {
			continue
		}
		a.decodeFinding(ins)
	}
}

// decodeFinding reports why one word cannot execute, naming the
// reserved register field when that is the cause.
func (a *analyzer) decodeFinding(ins *instr) {
	if r, bad := isa.ReservedRegField(ins.word); bad {
		a.findingf(PassDecode, Error, ins.addr,
			"reserved register field %d in %s encoding %#06x (§3.7: register 15 is illegal)",
			uint8(r), ins.in.Op, uint32(ins.word))
		return
	}
	a.findingf(PassDecode, Error, ins.addr, "illegal encoding %#06x: %v", uint32(ins.word), ins.bad)
}

// noSuccs is the successor pair of a word control cannot pass.
var noSuccs = [2]int32{-1, -1}

// succs returns the static successors of an instruction that land on
// assembled words, as indices into a.code: the jump, branch or call
// target first, then the fall-through, -1 for an absent edge. A CALL's
// target is included; passes that follow one frame use frameSuccs.
func (ins *instr) succs() [2]int32 {
	if ins.bad != nil {
		return noSuccs // cannot execute past an illegal instruction
	}
	switch ins.in.Flow() {
	case isa.FlowJump:
		return [2]int32{ins.tgt, -1}
	case isa.FlowCond, isa.FlowCall:
		return [2]int32{ins.tgt, ins.fall}
	case isa.FlowIndirect, isa.FlowReturn, isa.FlowHalt:
		return noSuccs
	}
	return [2]int32{-1, ins.fall} // FlowFall, FlowCallIndirect
}

// frameSuccs returns the successors that continue the instruction's own
// frame when its conditional branch (if any) has the given fate: a
// CALL's target is analyzed as its own entryCall root, and a branch
// proven never (always) taken loses its taken (fall-through) edge. A
// target that coincides with the fall-through keeps both edges.
func (ins *instr) frameSuccs(fate int8) [2]int32 {
	s := ins.succs()
	if s[0] == s[1] {
		return s
	}
	switch ins.in.Flow() {
	case isa.FlowCall:
		s[0] = -1
	case isa.FlowCond:
		switch fate {
		case fateNever:
			s[0] = -1
		case fateAlways:
			s[1] = -1
		}
	}
	return s
}

// vectorSlots yields the assembled interrupt-vector slots (bits 7..1 of
// each stream; bit 0 is background and never vectors) by index.
func (a *analyzer) vectorSlots(visit func(i int32, stream int, bit uint8)) {
	if a.opts.NoVectors {
		return
	}
	for s := 0; s < a.streams(); s++ {
		for bit := uint8(1); bit < isa.NumIRBits; bit++ {
			if i := a.at(interrupt.Vector(a.opts.VectorBase, uint8(s), bit)); i >= 0 {
				visit(i, s, bit)
			}
		}
	}
}

// findEntries resolves the analysis roots: explicit stream entries,
// assembled vector slots, every CALL target, and finally any label
// that no other root reaches (a routine or stream body whose caller
// the image does not show). Reachability is grown incrementally so a
// label inside already-covered code does not become a separate root —
// that is what keeps loop-header labels from seeding bogus
// depth-conflict reports.
func (a *analyzer) findEntries() {
	explicit := false
	add := func(i int32, k entryKind) {
		if k > a.entry[i] {
			a.entry[i] = k
		}
	}
	for _, e := range a.opts.Entries {
		i := a.at(e)
		if i < 0 {
			a.findingf(PassCFG, Error, e, "entry %04x: no assembled code at this address", e)
			continue
		}
		add(i, entryStream)
		explicit = true
	}
	for _, name := range a.opts.EntryLabels {
		addr, ok := a.im.Labels[name]
		if !ok {
			// No position: the finding is about the options, not any
			// assembled word.
			a.findings = append(a.findings, Finding{
				Pass: PassCFG, Severity: Error,
				Msg: fmt.Sprintf("entry label %q is not defined", name),
			})
			continue
		}
		i := a.at(addr)
		if i < 0 {
			a.findingf(PassCFG, Error, addr, "entry label %q: no assembled code at %04x", name, addr)
			continue
		}
		add(i, entryStream)
		explicit = true
	}
	a.vectorSlots(func(i int32, stream int, bit uint8) {
		add(i, entryVector)
		a.checkVectorSlot(&a.code[i], stream, bit)
	})
	// A label-less image (hex round-trips strip all symbols) would
	// otherwise have no roots at all and every finding would drown in
	// "unreachable code": treat each section base as a lenient root.
	if !explicit && !a.hasCodeLabels() {
		for _, sec := range a.im.Sections {
			if i := a.at(sec.Base); i >= 0 {
				add(i, entryLabel)
			}
		}
	}
	for i := range a.code {
		ins := &a.code[i]
		if !ins.data && ins.bad == nil && ins.in.Flow() == isa.FlowCall && ins.tgt >= 0 {
			add(ins.tgt, entryCall)
		}
	}
	for i, k := range a.entry {
		if k != entryNone {
			a.grow(int32(i))
		}
	}
	// Labels nothing reaches become lenient roots, in address order for
	// deterministic output.
	for _, l := range a.labels {
		if i := a.at(l.addr); i >= 0 && !a.reach[i] {
			add(i, entryLabel)
			a.grow(i)
		}
	}
}

// hasCodeLabels reports whether any label names an assembled address.
func (a *analyzer) hasCodeLabels() bool {
	for _, l := range a.labels {
		if a.at(l.addr) >= 0 {
			return true
		}
	}
	return false
}

// grow extends the reachable set with everything transitively reachable
// from word i.
func (a *analyzer) grow(i int32) {
	work := []int32{i}
	for len(work) > 0 {
		cur := work[len(work)-1]
		work = work[:len(work)-1]
		if a.reach[cur] {
			continue
		}
		a.reach[cur] = true
		for _, s := range a.code[cur].succs() {
			if s >= 0 {
				work = append(work, s)
			}
		}
	}
}

// checkVectorSlot validates one assembled interrupt-vector slot: the
// hardware redirects the stream's next fetch straight at it (§3.6.3),
// so it must hold an executable instruction, not table data or a
// leftover encoding.
func (a *analyzer) checkVectorSlot(ins *instr, stream int, bit uint8) {
	switch {
	case ins.data:
		a.findingf(PassVector, Error, ins.addr,
			"interrupt vector slot (stream %d, bit %d) holds .word data, not code", stream, bit)
	case ins.bad != nil:
		a.findingf(PassVector, Error, ins.addr,
			"interrupt vector slot (stream %d, bit %d) does not decode: %v", stream, bit, ins.bad)
	}
}

// checkFlowEdges validates every reachable instruction's control-flow
// edges: static branch targets must land on assembled words, and
// fallthrough must not run off the end of the image into the NOP sled
// of uninitialised program memory.
func (a *analyzer) checkFlowEdges() {
	for i := range a.code {
		ins := &a.code[i]
		if !a.reach[i] || ins.bad != nil {
			continue
		}
		if ins.data {
			a.findingf(PassReach, Warning, ins.addr,
				".word data is reachable as code (executes as %s)", ins.in)
		}
		if t, ok := ins.in.StaticTarget(ins.addr); ok && ins.tgt < 0 {
			a.findingf(PassCFG, Error, ins.addr,
				"%s targets %04x, outside the assembled image", ins.in.Op, t)
		}
		switch ins.in.Flow() {
		case isa.FlowFall, isa.FlowCond, isa.FlowCall, isa.FlowCallIndirect:
			if ins.fall < 0 {
				a.findingf(PassCFG, Warning, ins.addr,
					"control falls off the assembled image after %s", ins.in.Op)
			}
		}
	}
}

// checkDecodeReachableData reports reachable data words that cannot
// even decode — they would raise illegal-instruction at run time.
// (Reachable data that does decode already got the reach warning.)
func (a *analyzer) checkDecodeReachableData() {
	for i := range a.code {
		if ins := &a.code[i]; ins.data && a.reach[i] && ins.bad != nil {
			a.decodeFinding(ins)
		}
	}
}

// checkUnreachable reports maximal runs of code words no entry reaches.
func (a *analyzer) checkUnreachable() {
	a.checkDecodeReachableData()
	runStart, runLen := uint16(0), 0
	flush := func() {
		if runLen > 0 {
			a.findingf(PassReach, Warning, runStart, "unreachable code (%d words)", runLen)
			runLen = 0
		}
	}
	prev := uint16(0)
	for i := range a.code {
		addr := a.code[i].addr
		if a.code[i].data || a.reach[i] {
			flush()
			continue
		}
		if runLen > 0 && addr == prev+1 {
			runLen++
		} else {
			flush()
			runStart, runLen = addr, 1
		}
		prev = addr
	}
	flush()
}
