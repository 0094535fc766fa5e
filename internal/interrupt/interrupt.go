// Package interrupt implements the per-stream interrupt structure of
// §3.6.3: every instruction stream owns an 8-bit Interrupt Register
// (IR) and Mask Register (MR). Bit 7 is the highest priority, bit 0 is
// the background (normal run) level and is the only non-vectored bit.
//
// The IR is the stream's activity word: a stream is schedulable exactly
// when it has some unmasked request bit set, so setting a bit starts a
// stream and clearing the last bit halts it — interrupts, stream
// start/stop and inter-stream synchronization are all the same
// mechanism, which is what makes DISC's single-cycle "context switch"
// possible.
//
// Request bits can be set by any stream (SIGNAL), by external devices
// or by the hardware itself (stack overflow), but are cleared only by
// the owning stream (CLRI, RETI, HALT, WAITI), as the paper specifies.
package interrupt

import (
	"fmt"
	"math/bits"

	"disc/internal/isa"
)

// Background is the bit number of the non-vectored background level.
const Background = 0

// StackFault is the IR bit the machine raises for stack-window
// overflow/underflow, the "automatically generated" interrupt of
// §3.6.3. Bit 6 leaves bit 7 free for an external highest-priority
// source.
const StackFault = 6

// BusFault is the IR bit the machine raises on the issuing stream when
// its external access fails (unmapped address, bounded-wait timeout or
// device fault) and the machine was configured to trap bus faults.
// Below StackFault — a wedged stack is worse news than a flaky device —
// but above every ordinary device source.
const BusFault = 5

// Unit is one stream's interrupt register pair plus its current
// execution level.
type Unit struct {
	ir    uint8
	mr    uint8
	level uint8 // 0 = background, 1..7 = servicing that vectored level
	ver   uint32
	// epoch, when set, is a counter shared by a group of units (one
	// machine's streams): every mutation of any unit in the group
	// advances it, so the owner can tell "nothing moved anywhere" with
	// one compare instead of polling each unit's version.
	epoch *uint32

	// Observability hooks (nil when tracing is off — the only cost then
	// is one predictable nil check per mutation, never per cycle).
	// onRaise fires after a successful Request; onAck fires when the
	// owning stream clears a set bit (Clear or Exit's level clear).
	onRaise func(bit uint8, wasInactive bool)
	onAck   func(bit uint8)
}

// New returns a Unit with all requests clear and all levels unmasked.
func New() *Unit { return &Unit{mr: 0xFF} }

// NewShared is New with the unit's mutations also counted in *epoch,
// a counter the caller shares among several units. epoch advances
// exactly when Version does, whichever unit of the group moved.
func NewShared(epoch *uint32) *Unit { return &Unit{mr: 0xFF, epoch: epoch} }

// bump records one mutation: the unit's version and, when the unit is
// shared, the group's epoch.
func (u *Unit) bump() {
	u.ver++
	if u.epoch != nil {
		*u.epoch++
	}
}

// SetObserver installs (or, with nils, removes) the unit's event
// hooks: raise fires after every successful Request — wasInactive
// reports that the request woke a halted stream — and ack fires when
// the owning stream consumes a set bit (CLRI/WAITI/HALT via Clear, or
// RETI's level clear via Exit). Whole-register writes (SetIR, Reset)
// do not fire hooks: they are loader/debugger operations, not
// interrupt traffic.
func (u *Unit) SetObserver(raise func(bit uint8, wasInactive bool), ack func(bit uint8)) {
	u.onRaise = raise
	u.onAck = ack
}

// Version returns a counter that advances on every mutation of the
// unit (requests, clears, mask writes, level changes). The machine's
// event-driven scheduler uses it as a cheap change detector: a
// stream's readiness is recomputed only when its interrupt state
// actually moved, instead of polling IR/MR/level every cycle — and
// because every mutation path bumps the counter, even code that holds
// a raw *Unit (tests, the rt measurement harness, external device
// glue) cannot leave the scheduler with a stale view. A unit built
// with NewShared advances its group's epoch on exactly the same
// mutations, so the machine checks one epoch before any version.
func (u *Unit) Version() uint32 { return u.ver }

// Reset restores power-on state (ir=0: stream halted; mr=0xFF).
func (u *Unit) Reset() { u.ir, u.mr, u.level = 0, 0xFF, 0; u.bump() }

// IR returns the interrupt request register.
func (u *Unit) IR() uint8 { return u.ir }

// MR returns the mask register.
func (u *Unit) MR() uint8 { return u.mr }

// SetIR overwrites the request register (MTS IR; also used at reset by
// the loader to start stream 0 at the background level).
func (u *Unit) SetIR(v uint8) { u.ir = v; u.bump() }

// SetMR overwrites the mask register (SETMR / MTS MR).
func (u *Unit) SetMR(v uint8) { u.mr = v; u.bump() }

// Level returns the level the stream is currently executing at.
func (u *Unit) Level() uint8 { return u.level }

// SetLevel restores a saved level (the SR write-back in RETI).
func (u *Unit) SetLevel(l uint8) { u.level = l & 0x7; u.bump() }

// State is the serializable register content of a Unit: the request
// and mask registers plus the current execution level. The version
// counter and observer hooks are deliberately excluded — the version
// is a local change detector (a restore bumps it like any other
// mutation) and hooks belong to whoever attached them.
type State struct {
	IR    uint8
	MR    uint8
	Level uint8
}

// State captures the unit's registers.
func (u *Unit) State() State { return State{IR: u.ir, MR: u.mr, Level: u.level} }

// SetState restores previously captured registers. The level is masked
// to its architectural 3 bits (as SetLevel does), so arbitrary snapshot
// bytes cannot construct an unrepresentable level. The version counter
// advances so cached readiness derived from the old registers is
// invalidated.
func (u *Unit) SetState(s State) {
	u.ir = s.IR
	u.mr = s.MR
	u.level = s.Level & 0x7
	u.bump()
}

// Request sets request bit n. It reports whether the stream was
// inactive before — the caller uses this to wake a halted stream.
func (u *Unit) Request(n uint8) (wasInactive bool, err error) {
	if n >= isa.NumIRBits {
		return false, fmt.Errorf("interrupt: request bit %d out of range", n)
	}
	wasInactive = !u.Active()
	u.ir |= 1 << n
	u.bump()
	if u.onRaise != nil {
		u.onRaise(n, wasInactive)
	}
	return wasInactive, nil
}

// Clear clears request bit n (owner-only operations route here).
func (u *Unit) Clear(n uint8) error {
	if n >= isa.NumIRBits {
		return fmt.Errorf("interrupt: clear bit %d out of range", n)
	}
	wasSet := u.ir&(1<<n) != 0
	u.ir &^= 1 << n
	u.bump()
	if wasSet && u.onAck != nil {
		u.onAck(n)
	}
	return nil
}

// Pending returns the set of unmasked pending requests.
func (u *Unit) Pending() uint8 { return u.ir & u.mr }

// Active reports whether the stream is schedulable: §3.6.3, "when no
// bit of the IS is set, the instruction stream will not be scheduled".
func (u *Unit) Active() bool { return u.Pending() != 0 }

// Test reports whether request bit n is set (masked or not).
func (u *Unit) Test(n uint8) bool { return u.ir&(1<<n) != 0 }

// Highest returns the highest-priority unmasked pending bit. The
// machine's dispatcher asks this on every issue, so it is a single
// leading-bit count rather than a loop over the 8 IR bits.
func (u *Unit) Highest() (bit uint8, ok bool) {
	p := u.Pending()
	if p == 0 {
		return 0, false
	}
	return uint8(bits.Len8(p)) - 1, true
}

// Dispatch reports whether a vectored interrupt should be taken now:
// the highest pending unmasked bit must be vectored (1..7) and strictly
// higher than the level already being serviced. It does not change any
// state; the machine performs the entry sequence and then calls Enter.
func (u *Unit) Dispatch() (bit uint8, ok bool) {
	b, ok := u.Highest()
	if !ok || b == Background || b <= u.level {
		return 0, false
	}
	return b, true
}

// Enter records that the stream has started servicing level bit and
// returns the level that was previously active so the machine can push
// it with the return PC.
func (u *Unit) Enter(bit uint8) (prev uint8) {
	prev = u.level
	u.level = bit & 0x7
	u.bump()
	return prev
}

// Exit ends servicing of the current level: the level's request bit is
// cleared (only the owner reaches Exit) and the saved level is
// restored. It is the register-side half of RETI.
func (u *Unit) Exit(savedLevel uint8) {
	if u.level != Background {
		wasSet := u.ir&(1<<u.level) != 0
		u.ir &^= 1 << u.level
		if wasSet && u.onAck != nil {
			u.onAck(u.level)
		}
	}
	u.level = savedLevel & 0x7
	u.bump()
}

// Vector returns the program-memory address of the handler for the
// given stream and bit, relative to the stream-file's vector base:
// VB + 8*stream + bit (§3.6.3, vectored to avoid source polling).
func Vector(vb uint16, stream, bit uint8) uint16 {
	return vb + uint16(stream)*isa.NumIRBits + uint16(bit)
}
