package analysis

import (
	"slices"
	"sort"

	"disc/internal/asm"
	"disc/internal/isa"
)

// Block-summary layer. Partitions the reachable code into basic blocks
// and derives, per block, the machine-readable side-effect facts a
// block-compiled executor needs before it may run a block without
// checking the world in between instructions:
//
//   - does the block touch the asynchronous bus (and how many sites)?
//   - can it change any stream's interrupt state or runnability?
//   - does it write H or the SR flags (per-stream context a JIT must
//     keep coherent)?
//   - its net stack-window delta, when statically known;
//   - a worst-case ABI stall bound derived from the bus timeout model.
//
// A block with no bus access, no IRQ-visible or stream-control effect
// and a known window delta is EventFree: executing it emits no
// interleave-visible event of its own, which is precisely the license
// ROADMAP item 2's block engine needs. (Interrupts arriving from
// outside can still preempt the stream mid-block — that is the
// engine's check at block entry, not a property of the block.)

// BusRange describes one attached bus device span for the stall-bound
// and unmapped-address analyses. Wait is the device's worst-case
// per-access wait in bus cycles; 0 means unknown.
type BusRange struct {
	Base uint16 `json:"base"`
	Size uint16 `json:"size"`
	Wait int    `json:"wait"`
}

// StallUnbounded marks a stall bound that no static argument limits
// (an access that may reach an unknown device with no bus timeout).
const StallUnbounded int64 = -1

// BlockSummary is the per-block fact record. Addresses are inclusive:
// the block spans Start..End in program memory.
type BlockSummary struct {
	Start uint16 `json:"start"`
	End   uint16 `json:"end"`
	Len   int    `json:"len"`
	// Label is the nearest preceding label of Start, "name+off" form.
	Label string `json:"label,omitempty"`
	// Succs are the statically known successor block leaders.
	Succs []uint16 `json:"succs,omitempty"`

	// BusAccesses counts memory sites that may engage the ABI;
	// InternalAccesses counts sites proven to stay in internal memory.
	BusAccesses      int `json:"bus_accesses"`
	InternalAccesses int `json:"internal_accesses"`

	IRQVisible    bool `json:"irq_visible"`
	StreamControl bool `json:"stream_control"`
	WritesH       bool `json:"writes_h"`
	WritesSR      bool `json:"writes_sr"`

	// NetWindowDelta is the block's total AWP movement when DeltaKnown;
	// an MTS AWP inside the block makes it unknowable.
	NetWindowDelta int  `json:"net_window_delta"`
	DeltaKnown     bool `json:"delta_known"`

	// EventFree: executing the block emits no ABI, interrupt or
	// stream-control event and moves the window by exactly
	// NetWindowDelta.
	EventFree bool `json:"event_free"`

	// StallBound is the worst-case cycles the block can spend blocked
	// on the ABI (own accesses plus contention), StallUnbounded when no
	// static bound exists, 0 for bus-free blocks.
	StallBound int64 `json:"stall_bound"`

	// bridge is the static target of the block's final transfer when
	// that transfer is proven taken on every execution (JMP, or Bcc
	// with an always fate); bridged reports whether there is one. It
	// feeds FusibleSpans and stays out of the pinned JSON schema.
	bridge  uint16
	bridged bool
}

// StreamProfile aggregates block facts over everything reachable from
// one strict entry — the static load-delay profile of that stream.
type StreamProfile struct {
	Entry           uint16 `json:"entry"`
	Label           string `json:"label,omitempty"`
	Blocks          int    `json:"blocks"`
	EventFreeBlocks int    `json:"event_free_blocks"`
	BusAccessSites  int    `json:"bus_access_sites"`
	// MaxBlockStall is the worst single-block stall bound on the
	// stream's paths; Bounded is false when any reachable access has no
	// static bound.
	MaxBlockStall int64 `json:"max_block_stall"`
	Bounded       bool  `json:"bounded"`
}

// SummarySchema identifies the Summary JSON layout; bump on any
// incompatible change (the disclint golden test pins it).
const SummarySchema = "disc-absint/1"

// Summary is the machine-readable result of one Summarize run.
type Summary struct {
	Schema     string          `json:"schema"`
	Streams    int             `json:"streams"`
	BusTimeout int             `json:"bus_timeout"`
	Blocks     []BlockSummary  `json:"blocks"`
	Profiles   []StreamProfile `json:"profiles,omitempty"`

	// fates lists the value pass's proven conditional-branch verdicts
	// (see BranchFate) in ascending address order; branches whose
	// direction varies are left out. It stays unexported: callers read
	// it through BranchFate, not the pinned JSON schema.
	fates []branchFateAt
}

type branchFateAt struct {
	pc   uint16
	fate Fate
}

// BranchFate reports the value pass's verdict for the conditional
// branch at pc. Addresses that are not reachable conditional branches
// report FateVaries — the answer that licenses nothing.
func (s *Summary) BranchFate(pc uint16) Fate {
	i := sort.Search(len(s.fates), func(i int) bool { return s.fates[i].pc >= pc })
	if i < len(s.fates) && s.fates[i].pc == pc {
		return s.fates[i].fate
	}
	return FateVaries
}

// BlockAt returns the block containing pc, or nil.
func (s *Summary) BlockAt(pc uint16) *BlockSummary {
	i := sort.Search(len(s.Blocks), func(i int) bool { return s.Blocks[i].End >= pc })
	if i < len(s.Blocks) && s.Blocks[i].Start <= pc && pc <= s.Blocks[i].End {
		return &s.Blocks[i]
	}
	return nil
}

// Summarize runs the full analysis pipeline and additionally builds
// the block-summary layer. The Report is identical to Analyze's.
func Summarize(im *asm.Image, opts Options) (*Summary, *Report) {
	a := newAnalyzer(im, opts)
	rep := a.runPasses()
	return a.buildSummary(), rep
}

// leaders marks the block leaders among the assembled words: the
// analysis roots, and whatever follows or is targeted by a reachable
// control transfer.
func (a *analyzer) leaders() []bool {
	l := make([]bool, len(a.code))
	for i, k := range a.entry {
		if k != entryNone {
			l[i] = true
		}
	}
	for i := range a.code {
		ins := &a.code[i]
		if !a.reach[i] || ins.bad != nil || ins.data || ins.in.Flow() == isa.FlowFall {
			continue
		}
		for _, s := range [2]int32{ins.fall, ins.tgt} {
			if s >= 0 {
				l[s] = true
			}
		}
	}
	return l
}

// buildSummary partitions reachable code into blocks and summarizes
// each. It requires runPasses to have run (reachability, value states
// and fates are inputs).
func (a *analyzer) buildSummary() *Summary {
	sum := &Summary{
		Schema:     SummarySchema,
		Streams:    a.streams(),
		BusTimeout: a.opts.BusTimeout,
	}
	for i, f := range a.fates {
		if f != fateVaries {
			sum.fates = append(sum.fates, branchFateAt{a.code[i].addr, Fate(f)})
		}
	}
	// Partition: a block starts at a leader, after a control transfer
	// and wherever reachable code is not contiguous.
	lead := a.leaders()
	var spans [][2]int32 // first and last word of each block
	open := false
	for i := range a.code {
		ins := &a.code[i]
		if !a.reach[i] || ins.bad != nil || ins.data {
			open = false
			continue
		}
		if !open || lead[i] || ins.addr != a.code[i-1].addr+1 {
			spans = append(spans, [2]int32{int32(i), int32(i)})
			open = true
		}
		spans[len(spans)-1][1] = int32(i)
		if ins.in.Flow() != isa.FlowFall {
			open = false
		}
	}

	// Blocks stays nil, not empty, for an image without reachable code.
	sum.Blocks = slices.Grow(sum.Blocks, len(spans))
	succs := make([]uint16, 0, 2*len(spans)) // backs every block's Succs
	for _, sp := range spans {
		start, end := a.code[sp[0]].addr, a.code[sp[1]].addr
		b := BlockSummary{Start: start, End: end, Len: int(sp[1]-sp[0]) + 1, DeltaKnown: true, Label: a.labels.at(start)}
		for i := sp[0]; i <= sp[1]; i++ {
			a.accumulate(&b, i)
		}
		n := len(succs)
		for _, s := range a.code[sp[1]].succs() {
			if s >= 0 {
				succs = append(succs, a.code[s].addr)
			}
		}
		if len(succs) > n {
			b.Succs = succs[n:len(succs):len(succs)]
			slices.Sort(b.Succs)
		}
		a.finishBlock(&b, sp[1])
		sum.Blocks = append(sum.Blocks, b)
	}
	a.buildProfiles(sum, spans)
	return sum
}

// accumulate folds one instruction's effects into its block summary.
func (a *analyzer) accumulate(b *BlockSummary, i int32) {
	in := a.code[i].in
	if _, _, _, isMem := in.MemAccess(); isMem {
		ea := topv()
		if st := a.vals[i]; st != nil {
			if v, ok := eaInterval(in, st); ok {
				ea = v
			}
		}
		if classifyEA(ea) == memInternal {
			b.InternalAccesses++
		} else {
			b.BusAccesses++
			b.StallBound = addStall(b.StallBound, a.stallPerAccess(ea))
		}
	}
	if in.IRQVisible() {
		b.IRQVisible = true
	}
	if in.StreamControl() {
		b.StreamControl = true
	}
	if in.WritesH() {
		b.WritesH = true
	}
	if in.SetsFlags() {
		b.WritesSR = true
	}
	delta, known := in.AWPDelta()
	if !known {
		b.DeltaKnown = false
	} else {
		b.NetWindowDelta += delta
	}
}

// finishBlock computes the derived fields once the block, ending at
// word i, is complete.
func (a *analyzer) finishBlock(b *BlockSummary, i int32) {
	b.EventFree = b.BusAccesses == 0 && !b.IRQVisible && !b.StreamControl && b.DeltaKnown
	last := &a.code[i]

	// Record proven-taken static transfers for FusibleSpans bridging: an
	// unconditional jump, or a conditional branch the value pass proved
	// always taken, makes everything between the transfer and its target
	// dead fall-through. Calls don't qualify — they come back.
	switch last.in.Flow() {
	case isa.FlowJump:
		b.bridge, b.bridged = last.in.StaticTarget(b.End)
	case isa.FlowCond:
		if a.fates[i] == fateAlways {
			b.bridge, b.bridged = last.in.StaticTarget(b.End)
		}
	}
}

// addStall accumulates per-access bounds, propagating unboundedness.
func addStall(total, access int64) int64 {
	if total == StallUnbounded || access == StallUnbounded {
		return StallUnbounded
	}
	return total + access
}

// stallPerAccess bounds the cycles one possibly-external access can
// stall its stream, from the §3.6.1 protocol and the bus timeout
// model:
//
//	own        the access's own device occupancy — the worst Wait of
//	           any configured range the address interval can hit
//	           (unmapped addresses fault after one cycle); unknown
//	           waits and unconfigured maps fall back to the bus
//	           timeout, and with no timeout either, the bound is
//	           StallUnbounded;
//	contention each of the other streams may hold the bus ahead of
//	           this access for its own worst occupancy, plus the
//	           PipeDepth re-traversal the busy-flag retry costs.
//
//	bound = own + (streams-1) * (hold + PipeDepth)
func (a *analyzer) stallPerAccess(ea ival) int64 {
	t := int64(a.opts.BusTimeout)
	capT := func(v int64) int64 {
		if v == StallUnbounded {
			if t > 0 {
				return t
			}
			return StallUnbounded
		}
		if t > 0 && v > t {
			return t
		}
		return v
	}

	// Own occupancy: worst wait among ranges the interval can hit.
	own := int64(0)
	known := len(a.opts.BusRanges) > 0
	for _, r := range a.opts.BusRanges {
		if r.Size == 0 {
			continue
		}
		last := uint32(r.Base) + uint32(r.Size) - 1
		if uint32(ea.lo) > last || uint32(ea.hi) < uint32(r.Base) {
			continue
		}
		w := int64(r.Wait)
		if w < 1 {
			known = false // a hit on a device of unknown latency
			continue
		}
		if w > own {
			own = w
		}
	}
	if own < 1 {
		own = 1 // Bus.Start clamps AccessCycles to >= 1
	}
	if !known {
		own = StallUnbounded
	}
	own = capT(own)

	// Hold: the worst occupancy any other stream's access can pin the
	// bus for.
	hold := int64(0)
	holdKnown := len(a.opts.BusRanges) > 0
	for _, r := range a.opts.BusRanges {
		w := int64(r.Wait)
		if w < 1 {
			holdKnown = false
			continue
		}
		if w > hold {
			hold = w
		}
	}
	if !holdKnown {
		hold = StallUnbounded
	}
	hold = capT(hold)

	if own == StallUnbounded || hold == StallUnbounded {
		return StallUnbounded
	}
	return own + int64(a.streams()-1)*(hold+int64(isa.PipeDepth))
}

// buildProfiles aggregates block facts per strict entry (explicit
// stream entries), walking everything the stream can execute —
// including callees, which run on the stream even though the depth and
// use-def passes analyze them as separate roots.
func (a *analyzer) buildProfiles(sum *Summary, spans [][2]int32) {
	reached := make([]bool, len(a.code))
	var work []int32
	for e, k := range a.entry {
		if k != entryStream {
			continue
		}
		clear(reached)
		work = append(work[:0], int32(e))
		for len(work) > 0 {
			i := work[len(work)-1]
			work = work[:len(work)-1]
			ins := &a.code[i]
			if reached[i] || ins.bad != nil || ins.data {
				continue
			}
			reached[i] = true
			// succs excludes indirect targets; call targets it includes.
			for _, s := range ins.succs() {
				if s >= 0 {
					work = append(work, s)
				}
			}
		}
		entry := a.code[e].addr
		p := StreamProfile{Entry: entry, Bounded: true}
		if name, off, ok := a.labels.nearest(entry); ok && off == 0 {
			p.Label = name
		}
		for bi := range sum.Blocks {
			b := &sum.Blocks[bi]
			if !reached[spans[bi][0]] {
				continue
			}
			p.Blocks++
			if b.EventFree {
				p.EventFreeBlocks++
			}
			p.BusAccessSites += b.BusAccesses
			if b.StallBound == StallUnbounded {
				p.Bounded = false
			} else if b.StallBound > p.MaxBlockStall {
				p.MaxBlockStall = b.StallBound
			}
		}
		sum.Profiles = append(sum.Profiles, p)
	}
}
