package analysis

import "disc/internal/isa"

// Static-livelock pass. A stream stuck in a loop that never performs a
// memory access, never touches the interrupt structure and never
// yields control cannot be observed or influenced by anything except
// a vectored interrupt — and if the loop is its handler's level, not
// even that. The paper's scheduler keeps donating the stream's slots
// into pure register spin (§3.4): the machine does not hang, but the
// stream is dead weight forever.
//
// The pass runs Tarjan's SCC algorithm over the reachable instruction
// graph with provably-dead branch edges pruned (value pass fates) and
// reports every strongly connected component that
//
//   - actually cycles (≥2 nodes, or a self-loop),
//   - has no edge leaving the component, and
//   - contains no escape: a memory access (another stream or device
//     can change memory and thereby the loop's future), an
//     IRQ-visible or stream-control instruction, a CALL/CALR (the
//     callee is analyzed separately and may yield), or an indirect
//     control transfer (target unknowable).
//
// Memory accesses count as escapes deliberately: a spin on an internal
// semaphore word (TAS/LD polling) is a legitimate §3.6.2 idiom whose
// exit condition another stream controls, not a livelock.

// escapes reports whether the instruction gives the loop an observable
// exit or effect channel.
func escapes(in isa.Instruction) bool {
	if in.Op.IsMemory() || in.IRQVisible() || in.StreamControl() {
		return true
	}
	switch in.Flow() {
	case isa.FlowCall, isa.FlowCallIndirect, isa.FlowIndirect, isa.FlowReturn, isa.FlowHalt:
		return true
	}
	return false
}

// livelockPass finds yield-free cycles and reports each once, at the
// lowest address of the component.
func (a *analyzer) livelockPass() {
	n := len(a.code)
	// Graph over reachable, decodable instructions only.
	inGraph := make([]bool, n)
	for i := range a.code {
		ins := &a.code[i]
		inGraph[i] = a.reach[i] && ins.bad == nil && !ins.data
	}
	// Edges drop provably dead branch edges (value pass fates) and call
	// targets, which are separate roots: the loop body is the
	// fall-through path.
	edges := func(v int32) [2]int32 {
		out := a.code[v].frameSuccs(a.fates[v])
		for k, s := range out {
			if s >= 0 && !inGraph[s] {
				out[k] = -1
			}
		}
		return out
	}

	// Iterative Tarjan. order and low count from 1 so that 0 marks an
	// unvisited node; comp is the component a popped node landed in.
	order := make([]int32, n)
	low := make([]int32, n)
	comp := make([]int32, n)
	onStack := make([]bool, n)
	next, ncomp := int32(0), int32(0)

	type frame struct {
		v    int32
		succ [2]int32
		i    int
	}
	// Straight-line code makes the DFS as deep as the image is long, so
	// both stacks start at full size rather than grow there.
	stack := make([]int32, 0, n)
	call := make([]frame, 0, n)
	push := func(v int32) {
		next++
		order[v], low[v] = next, next
		stack = append(stack, v)
		onStack[v] = true
		call = append(call, frame{v: v, succ: edges(v)})
	}
	for root := range a.code {
		if !inGraph[root] || order[root] != 0 {
			continue
		}
		push(int32(root))
		for len(call) > 0 {
			f := &call[len(call)-1]
			if f.i < len(f.succ) {
				w := f.succ[f.i]
				f.i++
				switch {
				case w < 0:
				case order[w] == 0:
					push(w)
				case onStack[w]:
					low[f.v] = min(low[f.v], order[w])
				}
				continue
			}
			// f exhausted: pop.
			v := f.v
			call = call[:len(call)-1]
			if len(call) > 0 {
				p := &call[len(call)-1]
				low[p.v] = min(low[p.v], low[v])
			}
			if low[v] == order[v] {
				ncomp++
				k := len(stack)
				for {
					k--
					w := stack[k]
					onStack[w] = false
					comp[w] = ncomp
					if w == v {
						break
					}
				}
				a.checkLivelock(stack[k:], comp, edges)
				stack = stack[:k]
			}
		}
	}
}

// checkLivelock reports one strongly connected component, whose
// members all carry the same number in comp, when it cycles, has no
// exit edge and contains no escape.
func (a *analyzer) checkLivelock(members, comp []int32, edges func(int32) [2]int32) {
	c := comp[members[0]]
	// Must actually cycle.
	cycles := len(members) > 1
	if !cycles {
		for _, s := range edges(members[0]) {
			if s == members[0] {
				cycles = true
			}
		}
	}
	if !cycles {
		return
	}
	first := members[0]
	for _, v := range members {
		if escapes(a.code[v].in) {
			return
		}
		for _, s := range edges(v) {
			if s >= 0 && comp[s] != c {
				return // an exit edge
			}
		}
		first = min(first, v)
	}
	a.findingf(PassLivelock, Warning, a.code[first].addr,
		"busy loop with no IRQ-visible yield: this %d-instruction cycle performs no memory access, WAITI, or interrupt-visible operation and has no exit edge (static livelock)",
		len(members))
}
