package stackwin

import (
	"testing"
	"testing/quick"

	"disc/internal/isa"
)

func TestNewRejectsTinyDepth(t *testing.T) {
	if _, err := New(isa.WindowSize); err == nil {
		t.Fatal("New accepted a depth smaller than two windows")
	}
	if f, err := New(2 * isa.WindowSize); err != nil || f == nil {
		t.Fatalf("New rejected minimal legal depth: %v", err)
	}
}

func TestInitialState(t *testing.T) {
	f := MustNew(DefaultDepth)
	if f.AWP() != isa.WindowSize-1 {
		t.Fatalf("initial AWP = %d, want %d", f.AWP(), isa.WindowSize-1)
	}
	for i := 0; i < isa.WindowSize; i++ {
		if f.Read(i) != 0 {
			t.Fatalf("R%d not zero at reset", i)
		}
	}
}

// TestIncrementRenaming verifies Figure 3.5: after an AWP increment the
// old R0 is visible as R1, old R1 as R2, and so on.
func TestIncrementRenaming(t *testing.T) {
	f := MustNew(DefaultDepth)
	for i := 0; i < isa.WindowSize; i++ {
		f.Write(i, uint16(100+i))
	}
	if ev := f.Adjust(1); ev != EventNone {
		t.Fatalf("unexpected event %v", ev)
	}
	for i := 1; i < isa.WindowSize; i++ {
		if got := f.Read(i); got != uint16(100+i-1) {
			t.Errorf("after inc, R%d = %d, want %d (old R%d)", i, got, 100+i-1, i-1)
		}
	}
}

// TestDecrementRenaming verifies the downward move: R0 is lost and the
// previous R1 becomes R0 again.
func TestDecrementRenaming(t *testing.T) {
	f := MustNew(DefaultDepth)
	f.Adjust(4) // make head room above the floor
	for i := 0; i < isa.WindowSize; i++ {
		f.Write(i, uint16(200+i))
	}
	if ev := f.Adjust(-1); ev != EventNone {
		t.Fatalf("unexpected event %v", ev)
	}
	for i := 0; i < isa.WindowSize-1; i++ {
		if got := f.Read(i); got != uint16(200+i+1) {
			t.Errorf("after dec, R%d = %d, want %d (old R%d)", i, got, 200+i+1, i+1)
		}
	}
}

// TestIncDecInverse is the core §3.5 invariant: an increment followed by
// a decrement restores every previously visible register.
func TestIncDecInverse(t *testing.T) {
	f := MustNew(DefaultDepth)
	f.Adjust(8)
	seed := uint16(7)
	for i := 0; i < isa.WindowSize; i++ {
		f.Write(i, seed+uint16(i)*13)
	}
	before := f.Window()
	f.Adjust(1)
	f.Write(0, 0xDEAD) // callee scribbles on its fresh register
	f.Adjust(-1)
	if got := f.Window(); got != before {
		t.Fatalf("inc+dec did not restore the window:\nbefore %v\n after %v", before, got)
	}
}

func TestPushPopRoundTrip(t *testing.T) {
	f := MustNew(DefaultDepth)
	f.Adjust(4)
	f.Write(0, 0xAAAA)
	f.Push(0x1234)
	if f.Read(0) != 0x1234 || f.Read(1) != 0xAAAA {
		t.Fatalf("push layout wrong: R0=%#x R1=%#x", f.Read(0), f.Read(1))
	}
	v, ev := f.Pop()
	if v != 0x1234 || ev != EventNone {
		t.Fatalf("pop = %#x, %v", v, ev)
	}
	if f.Read(0) != 0xAAAA {
		t.Fatalf("pop did not restore R0, got %#x", f.Read(0))
	}
}

// TestCallReturnSequence models the full §3.5 procedure protocol:
// CALL pushes the return address; the callee allocates n locals with
// embedded increments; RET n walks AWP back to the return cell, loads
// PC, and decrements once more, landing exactly where the caller was.
func TestCallReturnSequence(t *testing.T) {
	f := MustNew(DefaultDepth)
	f.Adjust(8)
	callerAWP := f.AWP()
	f.Write(0, 0xC0DE) // caller live value

	const retPC = 0x0042
	f.Push(retPC) // CALL
	locals := 5
	f.Adjust(locals) // callee allocates variable-size frame
	for i := 0; i < locals; i++ {
		f.Write(i, uint16(0xF000+i))
	}

	// RET locals: step back over the frame to the return-address cell.
	f.Adjust(-locals)
	if got := f.Read(0); got != retPC {
		t.Fatalf("return cell holds %#x, want %#x", got, retPC)
	}
	f.Adjust(-1)
	if f.AWP() != callerAWP {
		t.Fatalf("AWP after return = %d, want %d", f.AWP(), callerAWP)
	}
	if f.Read(0) != 0xC0DE {
		t.Fatalf("caller R0 clobbered: %#x", f.Read(0))
	}
}

func TestOverflowEvent(t *testing.T) {
	f := MustNew(3 * isa.WindowSize) // depth 24, guard 8 -> live span > 16 faults
	// Initial live span is 8; grow it past depth-guard.
	if ev := f.Adjust(8); ev != EventNone {
		t.Fatalf("grow to the limit: got %v", ev)
	}
	if ev := f.Adjust(1); ev != EventOverflow {
		t.Fatalf("expected overflow, got %v", ev)
	}
	// Spill handler advances BOS; the same span is now legal again.
	f.SetBOS(f.BOS() + 4)
	if ev := f.Adjust(1); ev != EventNone {
		t.Fatalf("after spill, got %v", ev)
	}
}

func TestUnderflowEvent(t *testing.T) {
	f := MustNew(DefaultDepth)
	if ev := f.Adjust(-1); ev != EventUnderflow {
		t.Fatalf("expected underflow, got %v", ev)
	}
}

func TestGuardBandPreservesWindowOnOverflow(t *testing.T) {
	// Even when the overflow event fires, the visible window must still
	// read back what was written (the guard band's purpose).
	f := MustNew(2 * isa.WindowSize)
	for i := 0; i < isa.WindowSize; i++ {
		f.Write(i, uint16(i)+1)
	}
	ev := f.Adjust(1)
	if ev != EventOverflow {
		t.Fatalf("expected overflow, got %v", ev)
	}
	for i := 1; i < isa.WindowSize; i++ {
		if f.Read(i) != uint16(i-1)+1 {
			t.Fatalf("guard band violated at R%d", i)
		}
	}
}

func TestSetAWPAbsolute(t *testing.T) {
	f := MustNew(DefaultDepth)
	f.Write(0, 0x5555)
	saved := f.AWP()
	f.SetAWP(saved + 10)
	f.Write(0, 0x6666)
	f.SetAWP(saved)
	if f.Read(0) != 0x5555 {
		t.Fatalf("absolute AWP restore lost R0: %#x", f.Read(0))
	}
}

// TestVisibleWindowBoundsPanic: a register number outside R0..R7 must
// panic on both Read and Write, never reach a register of another
// frame.
func TestVisibleWindowBoundsPanic(t *testing.T) {
	f := MustNew(DefaultDepth)
	mustPanic := func(op string, n int, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s(%d) did not panic", op, n)
			}
		}()
		fn()
	}
	for _, n := range []int{-1, isa.WindowSize, 100} {
		mustPanic("Read", n, func() { f.Read(n) })
		mustPanic("Write", n, func() { f.Write(n, 0xBEEF) })
	}
	for i := 0; i < f.Depth(); i++ {
		if v := f.ReadAt(i); v != 0 {
			t.Fatalf("an out-of-window Write reached position %d (=%#x)", i, v)
		}
	}
}

// TestPushPopInverseProperty: any sequence of pushes followed by the
// same number of pops returns the values in LIFO order and restores AWP.
func TestPushPopInverseProperty(t *testing.T) {
	prop := func(vals []uint16) bool {
		if len(vals) > 24 {
			vals = vals[:24]
		}
		f := MustNew(DefaultDepth)
		f.SetBOS(f.BOS()) // no-op; keep default
		f.Adjust(8)
		start := f.AWP()
		for _, v := range vals {
			f.Push(v)
		}
		for i := len(vals) - 1; i >= 0; i-- {
			got, _ := f.Pop()
			if got != vals[i] {
				return false
			}
		}
		return f.AWP() == start
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestLiveAccounting: Live() always equals AWP-BOS regardless of the
// mix of adjust operations.
func TestLiveAccounting(t *testing.T) {
	prop := func(deltas []int8) bool {
		f := MustNew(DefaultDepth)
		for _, d := range deltas {
			f.Adjust(int(d % 4))
		}
		return f.Live() == f.AWP()-f.BOS()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestResetClearsState(t *testing.T) {
	f := MustNew(DefaultDepth)
	f.Adjust(5)
	f.Write(0, 99)
	f.Reset()
	if f.AWP() != isa.WindowSize-1 || f.Read(0) != 0 {
		t.Fatal("Reset did not restore power-on state")
	}
}

func TestEventString(t *testing.T) {
	if EventNone.String() != "none" || EventOverflow.String() != "overflow" || EventUnderflow.String() != "underflow" {
		t.Fatal("event strings wrong")
	}
}
