// Package stackwin implements the DISC stack-window register file of
// §3.5 (Figures 3.4 and 3.5).
//
// Each instruction stream owns one window file. The Active Window
// Pointer (AWP) names the physical register that is currently R0; Rn is
// the register at AWP−n, so the visible window is the top WindowSize
// registers of a stack that moves up and down "as demands require".
// Unlike RISC-I register windows the per-call allocation is variable:
// any instruction can carry an AWP increment or decrement, applied when
// the instruction completes.
//
// The physical file is finite. The Bottom Of Stack pointer (BOS) tracks
// the last empty word below the live registers; when the distance from
// BOS to AWP approaches the physical capacity the file raises an
// overflow event, which the machine turns into the automatically
// generated stack-overflow interrupt the paper mentions in §3.6.3. A
// software handler (or the test harness) then spills registers and
// advances BOS. Decrementing into or below the window floor raises an
// underflow event.
package stackwin

import (
	"fmt"

	"disc/internal/isa"
)

// DefaultDepth is the number of physical registers per stream's window
// file when no explicit depth is configured.
const DefaultDepth = 64

// Event reports a stack-window fault produced by a pointer adjustment.
type Event uint8

// Possible adjustment outcomes.
const (
	EventNone Event = iota
	EventOverflow
	EventUnderflow
)

func (e Event) String() string {
	switch e {
	case EventNone:
		return "none"
	case EventOverflow:
		return "overflow"
	case EventUnderflow:
		return "underflow"
	}
	return fmt.Sprintf("Event(%d)", uint8(e))
}

// File is one stream's stack-window register file.
//
// AWP and BOS are virtual (monotonic) positions mapped onto the
// physical file modulo its depth, which models a circular register file
// with spill/fill performed by software between BOS advances.
type File struct {
	regs  []uint16
	depth int
	mask  int // depth-1 when depth is a power of two, else 0
	guard int // overflow fires when live span exceeds depth-guard

	awp int // virtual position of R0
	bos int // virtual position of the last empty word below the stack
}

// New returns a window file with the given physical depth. Depths
// smaller than twice the visible window are rejected because the
// machine could not even complete an interrupt entry sequence.
func New(depth int) (*File, error) {
	if depth < 2*isa.WindowSize {
		return nil, fmt.Errorf("stackwin: depth %d < minimum %d", depth, 2*isa.WindowSize)
	}
	f := &File{
		regs:  make([]uint16, depth),
		depth: depth,
		guard: isa.WindowSize,
	}
	if depth&(depth-1) == 0 {
		f.mask = depth - 1
	}
	f.Reset()
	return f, nil
}

// MustNew is New for static configurations known to be valid.
func MustNew(depth int) *File {
	f, err := New(depth)
	if err != nil {
		panic(err)
	}
	return f
}

// Reset restores the power-on state: AWP sits one full window above the
// bottom so R0..R7 are all addressable, BOS at the floor.
func (f *File) Reset() {
	for i := range f.regs {
		f.regs[i] = 0
	}
	f.awp = isa.WindowSize - 1
	f.bos = -1
}

// State is the serializable content of a window file: the physical
// registers plus the two virtual pointers. Depth, mask and guard are
// configuration, re-derived by New on the restore side.
type State struct {
	Regs []uint16
	AWP  int
	BOS  int
}

// State returns a deep copy of the file's mutable state.
func (f *File) State() State {
	regs := make([]uint16, len(f.regs))
	copy(regs, f.regs)
	return State{Regs: regs, AWP: f.awp, BOS: f.bos}
}

// SetState restores state previously captured from a file of the same
// depth. A register-count mismatch is a configuration mismatch the
// caller must have ruled out, so it is reported as an error rather
// than silently truncated.
func (f *File) SetState(s State) error {
	if len(s.Regs) != f.depth {
		return fmt.Errorf("stackwin: state has %d registers, file depth is %d", len(s.Regs), f.depth)
	}
	copy(f.regs, s.Regs)
	f.awp = s.AWP
	f.bos = s.BOS
	return nil
}

// Depth returns the physical register count.
func (f *File) Depth() int { return f.depth }

// AWP returns the virtual active window pointer (R0's position).
func (f *File) AWP() int { return f.awp }

// BOS returns the virtual bottom-of-stack pointer.
func (f *File) BOS() int { return f.bos }

// SetAWP moves the active window pointer absolutely (MTS AWP). It
// reports the same events Adjust would.
func (f *File) SetAWP(v int) Event {
	f.awp = v
	return f.check()
}

// SetBOS moves the bottom-of-stack pointer (MTS BOS), typically from a
// spill handler after it has written the lowest live registers to
// memory, or from a fill handler restoring them.
func (f *File) SetBOS(v int) { f.bos = v }

// phys maps a virtual position onto the circular physical file. Every
// register read and write funnels through here, so the power-of-two
// case (the default depth, and every depth the experiments use) takes
// a mask instead of the integer divide — v & mask is the correct
// non-negative residue even for negative v in two's complement.
func (f *File) phys(v int) int {
	if f.mask != 0 {
		return v & f.mask
	}
	m := v % f.depth
	if m < 0 {
		m += f.depth
	}
	return m
}

// visible has one element per visible register. Read and Write index
// it to check n: a register outside the window is an index-out-of-range
// panic, which keeps both small enough for the compiler to inline into
// the pipeline's operand reads and writebacks.
var visible [isa.WindowSize]struct{}

// Read returns the value of visible register Rn (n in 0..WindowSize-1).
// An n outside the window panics.
func (f *File) Read(n int) uint16 {
	_ = visible[n]
	return f.regs[f.phys(f.awp-n)]
}

// Write stores v into visible register Rn. An n outside the window
// panics.
func (f *File) Write(n int, v uint16) {
	_ = visible[n]
	f.regs[f.phys(f.awp-n)] = v
}

// ReadAt returns the value at an absolute virtual position (used by
// spill handlers and by tests to observe caller frames).
func (f *File) ReadAt(v int) uint16 { return f.regs[f.phys(v)] }

// WriteAt stores at an absolute virtual position.
func (f *File) WriteAt(v int, x uint16) { f.regs[f.phys(v)] = x }

// Adjust moves AWP by delta (positive = window moves up, Figure 3.5)
// and reports any fault. Movement always happens — the fault is a
// notification, mirroring hardware where the interrupt arrives while
// the pointer has already moved and a guard band keeps live state safe.
func (f *File) Adjust(delta int) Event {
	f.awp += delta
	return f.check()
}

func (f *File) check() Event {
	live := f.awp - f.bos // number of registers between BOS and R0
	switch {
	case live > f.depth-f.guard:
		return EventOverflow
	case live < isa.WindowSize:
		return EventUnderflow
	}
	return EventNone
}

// Live returns the number of registers currently between BOS and AWP.
func (f *File) Live() int { return f.awp - f.bos }

// Push adjusts AWP up by one and writes v into the new R0 — the CALL
// return-address sequence of §3.5.
func (f *File) Push(v uint16) Event {
	ev := f.Adjust(1)
	f.Write(0, v)
	return ev
}

// Pop reads R0 and adjusts AWP down by one — the final step of RET.
func (f *File) Pop() (uint16, Event) {
	v := f.Read(0)
	ev := f.Adjust(-1)
	return v, ev
}

// Window returns a copy of the visible window, index i holding Ri.
func (f *File) Window() [isa.WindowSize]uint16 {
	var w [isa.WindowSize]uint16
	for i := 0; i < isa.WindowSize; i++ {
		w[i] = f.Read(i)
	}
	return w
}
