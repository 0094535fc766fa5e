package analysis

// Fusion planning: the bridge from the block-summary layer to the
// core's block-compiled executor. The summary side decides *where*
// fusion is worth attempting — maximal chains of address-contiguous
// EventFree blocks, bridged across proven-dead gaps — and hands the
// executor plain address spans; the executor re-qualifies every
// instruction when compiling (and checks the machine state at every
// session entry), so a span here is a performance hint with no
// correctness weight.

// Span is one inclusive program-address range [Start, End].
type Span struct {
	Start, End uint16
}

// Len returns the number of instructions the span covers.
func (s Span) Len() int { return int(s.End) - int(s.Start) + 1 }

// MaxBridgeGap bounds how many statically-dead instructions a fusible
// span may vault over when a chain ends in a proven-taken forward
// transfer. Short gaps (a skipped error arm, a dead fall-through) are
// where bridging pays; a long dead stretch would bloat the compiled
// region with bail stubs for code that never runs.
const MaxBridgeGap = 8

// FusibleSpans returns the address spans a block-compiling executor
// should consider, in address order: runs of address-contiguous
// EventFree blocks totalling at least minLen instructions. Contiguity
// matters because a fused session crosses fall-through block
// boundaries freely — a branch target that lands mid-span simply
// starts the session there — while any non-EventFree block (a bus
// access site, an IRQ- or stream-visible instruction, an unknowable
// window delta) ends the chain: past it the summary can no longer
// promise the absence of interleave-visible events.
//
// Two chains may additionally be *bridged* into one span when the
// first ends in a transfer proven taken on every execution — an
// unconditional jump, or a conditional branch with an always fate —
// whose static target is exactly the second chain's start, at most
// MaxBridgeGap addresses ahead. The instructions in between are dead
// fall-through: they never run, so their events (or their being
// unreachable garbage) cannot matter. Bridged gap instructions do not
// count toward minLen; only live blocks do.
//
// EventFree deliberately says nothing about *incoming* events — an
// interrupt can arrive mid-span at any time. Ruling that out is the
// executor's session-entry check against live machine state, not a
// static property, which is why the static and dynamic halves of the
// qualification split exactly here. Likewise a conditional branch
// inside a span may disagree with its static fate on a perturbed
// machine: the executor compiles branches against live flags and bails
// through §3.6.1 if control leaves the compiled space, so a wrong
// bridge costs a session, never an architectural divergence.
func (s *Summary) FusibleSpans(minLen int) []Span {
	// Pass 1: maximal contiguous chains, with their live-instruction
	// counts (a chain's span length equals its count here; bridging
	// below grows spans without growing counts).
	type chain struct {
		span Span
		n    int
		last *BlockSummary // the chain's final block, whose bridge it may take
	}
	var chains []chain
	i := 0
	for i < len(s.Blocks) {
		if !s.Blocks[i].EventFree {
			i++
			continue
		}
		start := s.Blocks[i].Start
		end := s.Blocks[i].End
		n := s.Blocks[i].Len
		j := i + 1
		for j < len(s.Blocks) && s.Blocks[j].EventFree && s.Blocks[j].Start == end+1 {
			end = s.Blocks[j].End
			n += s.Blocks[j].Len
			j++
		}
		chains = append(chains, chain{Span{Start: start, End: end}, n, &s.Blocks[j-1]})
		i = j
	}

	// Pass 2: bridge across proven-dead gaps, then apply minLen.
	var out []Span
	for k := 0; k < len(chains); k++ {
		c := chains[k]
		for k+1 < len(chains) {
			next := chains[k+1]
			gap := int(next.span.Start) - int(c.span.End) - 1
			if !c.last.bridged || c.last.bridge != next.span.Start || gap < 1 || gap > MaxBridgeGap {
				break
			}
			c.span.End = next.span.End
			c.n += next.n
			c.last = next.last
			k++
		}
		if c.n >= minLen {
			out = append(out, c.span)
		}
	}
	return out
}
