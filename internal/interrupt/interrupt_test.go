package interrupt

import (
	"testing"
	"testing/quick"

	"disc/internal/rng"
)

func TestInactiveAtReset(t *testing.T) {
	u := New()
	if u.Active() {
		t.Fatal("fresh unit is active")
	}
	if _, ok := u.Highest(); ok {
		t.Fatal("fresh unit has a pending bit")
	}
}

func TestRequestActivates(t *testing.T) {
	u := New()
	wasInactive, err := u.Request(Background)
	if err != nil || !wasInactive {
		t.Fatalf("Request(0) = %v, %v", wasInactive, err)
	}
	if !u.Active() {
		t.Fatal("stream not active after background request")
	}
	wasInactive, _ = u.Request(3)
	if wasInactive {
		t.Fatal("second request claims stream was inactive")
	}
}

func TestRequestClearBounds(t *testing.T) {
	u := New()
	if _, err := u.Request(8); err == nil {
		t.Fatal("Request(8) accepted")
	}
	if err := u.Clear(8); err == nil {
		t.Fatal("Clear(8) accepted")
	}
}

func TestClearLastBitHalts(t *testing.T) {
	u := New()
	u.Request(Background)
	u.Clear(Background)
	if u.Active() {
		t.Fatal("stream active after last bit cleared")
	}
}

func TestMaskSuppressesActivity(t *testing.T) {
	u := New()
	u.Request(2)
	u.SetMR(0x01) // mask everything but background
	if u.Active() {
		t.Fatal("masked request still schedules the stream")
	}
	if _, ok := u.Dispatch(); ok {
		t.Fatal("masked request dispatched")
	}
	u.SetMR(0xFF)
	if !u.Active() {
		t.Fatal("unmasking did not reactivate")
	}
}

func TestHighestPriorityWins(t *testing.T) {
	u := New()
	u.Request(1)
	u.Request(5)
	u.Request(3)
	bit, ok := u.Highest()
	if !ok || bit != 5 {
		t.Fatalf("Highest = %d, %v; want 5", bit, ok)
	}
}

func TestDispatchRules(t *testing.T) {
	u := New()
	u.Request(Background)
	if _, ok := u.Dispatch(); ok {
		t.Fatal("background alone must not vector")
	}
	u.Request(2)
	bit, ok := u.Dispatch()
	if !ok || bit != 2 {
		t.Fatalf("Dispatch = %d,%v; want 2,true", bit, ok)
	}
	prev := u.Enter(2)
	if prev != Background || u.Level() != 2 {
		t.Fatalf("Enter: prev=%d level=%d", prev, u.Level())
	}
	// Same or lower level must not preempt.
	u.Request(1)
	if _, ok := u.Dispatch(); ok {
		t.Fatal("lower level preempted a running handler")
	}
	// Strictly higher level preempts.
	u.Request(7)
	bit, ok = u.Dispatch()
	if !ok || bit != 7 {
		t.Fatalf("Dispatch at level 2 = %d,%v; want 7,true", bit, ok)
	}
}

func TestNestedEnterExit(t *testing.T) {
	u := New()
	u.Request(Background)
	u.Request(2)
	prev2 := u.Enter(2)
	u.Request(5)
	prev5 := u.Enter(5)
	if u.Level() != 5 {
		t.Fatalf("level = %d, want 5", u.Level())
	}
	u.Exit(prev5)
	if u.Level() != 2 {
		t.Fatalf("after exit, level = %d, want 2", u.Level())
	}
	if u.Test(5) {
		t.Fatal("Exit did not clear the serviced bit")
	}
	if !u.Test(2) {
		t.Fatal("Exit cleared the wrong bit")
	}
	u.Exit(prev2)
	if u.Level() != Background || u.Test(2) {
		t.Fatal("second Exit did not restore background")
	}
	if !u.Active() {
		t.Fatal("background bit lost during nesting")
	}
}

func TestExitAtBackgroundKeepsBit0(t *testing.T) {
	u := New()
	u.Request(Background)
	u.Exit(Background) // RETI executed at background level: no bit cleared
	if !u.Test(Background) {
		t.Fatal("Exit at background cleared bit 0")
	}
}

func TestVectorLayout(t *testing.T) {
	if v := Vector(0x100, 0, 1); v != 0x101 {
		t.Fatalf("Vector(0x100,0,1) = %#x", v)
	}
	if v := Vector(0x100, 3, 7); v != 0x100+3*8+7 {
		t.Fatalf("Vector(0x100,3,7) = %#x", v)
	}
	// Streams must not share vectors.
	seen := map[uint16]bool{}
	for s := uint8(0); s < 4; s++ {
		for b := uint8(0); b < 8; b++ {
			v := Vector(0x200, s, b)
			if seen[v] {
				t.Fatalf("vector collision at %#x", v)
			}
			seen[v] = true
		}
	}
}

// Property: after Enter(b)/Exit(prev), the unit's level is restored and
// bit b is clear, regardless of other pending traffic.
func TestEnterExitInverseProperty(t *testing.T) {
	f := func(others uint8, bit uint8) bool {
		b := bit%7 + 1 // vectored level 1..7
		u := New()
		u.SetIR(others)
		u.Request(b)
		prev := u.Enter(b)
		u.Exit(prev)
		return u.Level() == prev && !u.Test(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Highest always returns the top set bit of IR&MR.
func TestHighestMatchesPendingProperty(t *testing.T) {
	f := func(ir, mr uint8) bool {
		u := New()
		u.SetIR(ir)
		u.SetMR(mr)
		bit, ok := u.Highest()
		p := ir & mr
		if p == 0 {
			return !ok
		}
		top := uint8(7)
		for p>>top == 0 {
			top--
		}
		return ok && bit == top
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// unitOp is one method call on a Unit; mutates says whether it must
// advance Version.
type unitOp struct {
	name    string
	mutates bool
	call    func(u *Unit)
}

func unitOps() []unitOp {
	return []unitOp{
		{"Request", true, func(u *Unit) { u.Request(3) }},
		{"Request(background)", true, func(u *Unit) { u.Request(Background) }},
		{"Request(out of range)", false, func(u *Unit) { u.Request(8) }},
		{"Clear", true, func(u *Unit) { u.Clear(3) }},
		{"Clear(unset bit)", true, func(u *Unit) { u.Clear(7) }},
		{"Clear(out of range)", false, func(u *Unit) { u.Clear(8) }},
		{"SetIR", true, func(u *Unit) { u.SetIR(0x25) }},
		{"SetIR(same value)", true, func(u *Unit) { u.SetIR(u.IR()) }},
		{"SetMR", true, func(u *Unit) { u.SetMR(0xF3) }},
		{"SetMR(same value)", true, func(u *Unit) { u.SetMR(u.MR()) }},
		{"SetLevel", true, func(u *Unit) { u.SetLevel(4) }},
		{"Enter", true, func(u *Unit) { u.Enter(5) }},
		{"Exit", true, func(u *Unit) { u.Exit(Background) }},
		{"Reset", true, func(u *Unit) { u.Reset() }},
		{"SetState", true, func(u *Unit) { u.SetState(State{IR: 0x81, MR: 0x7F, Level: 2}) }},
		{"SetObserver", false, func(u *Unit) { u.SetObserver(nil, nil) }},
		{"IR", false, func(u *Unit) { u.IR() }},
		{"MR", false, func(u *Unit) { u.MR() }},
		{"Level", false, func(u *Unit) { u.Level() }},
		{"Pending", false, func(u *Unit) { u.Pending() }},
		{"Active", false, func(u *Unit) { u.Active() }},
		{"Test", false, func(u *Unit) { u.Test(3) }},
		{"Highest", false, func(u *Unit) { u.Highest() }},
		{"Dispatch", false, func(u *Unit) { u.Dispatch() }},
		{"State", false, func(u *Unit) { u.State() }},
		{"Version", false, func(u *Unit) { u.Version() }},
	}
}

// TestSharedEpochContract pins what the machine relies on when it
// checks one epoch instead of every unit's version: on a group of units
// sharing a counter, every call advances the counter exactly when it
// advances that unit's Version (by the same amount), read-only calls
// move neither, and the other unit's version never moves. An unshared
// twin driven through the same calls ends in the same registers and
// versions, so sharing changes nothing a unit reports.
func TestSharedEpochContract(t *testing.T) {
	var epoch uint32
	units := [2]*Unit{NewShared(&epoch), NewShared(&epoch)}
	twins := [2]*Unit{New(), New()}
	ops := unitOps()
	step := func(k int, op unitOp) {
		t.Helper()
		u, other := units[k], units[1-k]
		v0, o0, e0 := u.Version(), other.Version(), epoch
		op.call(u)
		op.call(twins[k])
		dv, de := u.Version()-v0, epoch-e0
		if de != dv {
			t.Fatalf("%s on unit %d: epoch moved %d, version moved %d", op.name, k, de, dv)
		}
		if op.mutates != (dv == 1) || dv > 1 {
			t.Fatalf("%s on unit %d: version moved %d, want mutation=%v", op.name, k, dv, op.mutates)
		}
		if other.Version() != o0 {
			t.Fatalf("%s on unit %d moved the other unit's version", op.name, k)
		}
		for i := range units {
			if units[i].State() != twins[i].State() || units[i].Version() != twins[i].Version() {
				t.Fatalf("%s on unit %d: shared unit %d = %+v v%d, unshared twin = %+v v%d", op.name, k, i,
					units[i].State(), units[i].Version(), twins[i].State(), twins[i].Version())
			}
		}
	}
	// Every method on either unit, then a seeded sequence so each call
	// also runs from states the fixed order never reaches.
	for k := range units {
		for _, op := range ops {
			step(k, op)
		}
	}
	src := rng.New(0xE90C)
	for i := 0; i < 2000; i++ {
		step(src.Intn(2), ops[src.Intn(len(ops))])
	}
}
