package core

import (
	"fmt"
	"math"
	"strings"

	"disc/internal/obs"
)

// This file adds machine-level liveness detection: a watchdog that
// distinguishes a cleanly finished program (every stream halted, pipe
// drained, bus quiet) from a wedged one (streams still waiting on
// something that will never arrive), and a hard cycle limit that turns
// a runaway program into an error instead of a hang.
//
// Progress is observed, not inferred: a cycle makes progress when an
// instruction issues, the bus is moving an access, a stream's pending
// interrupt word changes, or a stall period is still counting down.
// When none of those happen for a full window the machine can never
// recover on its own — nothing internal will change state — so the
// watchdog converts the situation into a DeadlockError naming each
// blocked stream and what it is waiting for.

// StreamDiag is one stream's state in a deadlock diagnosis.
type StreamDiag struct {
	Stream  int
	State   StreamState
	Active  bool   // has an unmasked IR bit
	PC      uint16 // fetch PC at diagnosis time
	WaitBit uint8  // IRQWait only: the bit WAITI blocks on
	Stalled bool   // frozen by StallStream / the fault injector
}

func (d StreamDiag) String() string {
	switch {
	case d.Stalled:
		return fmt.Sprintf("IS%d stalled at pc=%#04x (injected)", d.Stream, d.PC)
	case d.State == StateIRQWait:
		return fmt.Sprintf("IS%d waiting on IR bit %d at pc=%#04x", d.Stream, d.WaitBit, d.PC)
	case d.State == StateBusWait:
		return fmt.Sprintf("IS%d waiting on the bus at pc=%#04x", d.Stream, d.PC)
	case !d.Active:
		return fmt.Sprintf("IS%d halted", d.Stream)
	}
	return fmt.Sprintf("IS%d runnable at pc=%#04x", d.Stream, d.PC)
}

// DeadlockError reports that no stream made progress for Window cycles
// while at least one stream was still waiting for something.
type DeadlockError struct {
	Cycle   uint64       // machine cycle at diagnosis
	Window  uint64       // progress-free cycles observed
	Streams []StreamDiag // every stream, in order

	// PostMortem holds the flight recorder's last events per stream
	// when a recorder was attached, "" otherwise. It is diagnosis
	// payload, not part of Error() — callers print it separately.
	PostMortem string
}

func (e *DeadlockError) Error() string {
	var blocked []string
	for _, d := range e.Streams {
		if d.Stalled || d.State != StateRun || !d.Active {
			blocked = append(blocked, d.String())
		}
	}
	return fmt.Sprintf("deadlock at cycle %d: no progress for %d cycles; %s",
		e.Cycle, e.Window, strings.Join(blocked, "; "))
}

// CycleLimitError reports that the hard cycle budget ran out with the
// machine still making progress — a runaway program, not a deadlock.
type CycleLimitError struct {
	Limit int

	// PostMortem holds the flight recorder's last events per stream
	// when a recorder was attached, "" otherwise.
	PostMortem string
}

func (e *CycleLimitError) Error() string {
	return fmt.Sprintf("cycle limit: still running after %d cycles", e.Limit)
}

// Diagnose snapshots every stream's schedulability for error reports.
func (m *Machine) Diagnose() []StreamDiag {
	out := make([]StreamDiag, len(m.streams))
	for i, s := range m.streams {
		out[i] = StreamDiag{
			Stream:  i,
			State:   s.state,
			Active:  s.intr.Active(),
			PC:      s.pc,
			WaitBit: s.waitBit,
			Stalled: s.stallUntil > m.cycle,
		}
	}
	return out
}

// wedged reports whether the machine is idle in the bad sense: nothing
// can issue, but some stream is still waiting for an event (WAITI with
// no signaller, a bus access that never completes, an injected stall).
// A machine where every stream simply halted is finished, not wedged.
func (m *Machine) wedged() bool {
	if !m.Idle() {
		return false
	}
	for _, s := range m.streams {
		if s.state != StateRun {
			return true
		}
		if s.intr.Active() && s.stallUntil > m.cycle {
			return true
		}
	}
	return false
}

// Guard steps a machine while watching for progress. Build one with
// NewGuard, then call StepN (or Step) until done or an error; RunGuarded,
// discsim, discserve and the fault injector all drive this loop, so
// diagnosis logic exists once.
type Guard struct {
	m       *Machine
	window  uint64 // progress-free cycles that trigger the deadlock verdict
	barren  uint64 // progress-free cycles seen so far
	issued  uint64 // last observed issue counter
	irWords uint64 // IR-word fingerprint at the end of the last cycle
	epoch   uint32 // machine's interrupt epoch when irWords was taken
}

// NewGuard wraps m with a stall watchdog. A window of 0 disables the
// watchdog (only explicit cycle limits apply then).
func (m *Machine) NewGuard(window uint64) *Guard {
	return &Guard{m: m, window: window, issued: m.stats.Issued, irWords: m.irFingerprint(), epoch: m.intrEpoch}
}

// irFingerprint folds every stream's pending-interrupt word into one
// value; a change means an external event arrived and the machine may
// be able to move again.
func (m *Machine) irFingerprint() uint64 {
	var f uint64
	for i, s := range m.streams {
		f |= uint64(s.intr.IR()) << (8 * uint(i))
	}
	return f
}

// Step advances one cycle. done=true means the machine went cleanly
// idle; a non-nil error is a *DeadlockError. Exactly one of the three
// outcomes (running, done, error) holds after each call.
func (g *Guard) Step() (done bool, err error) {
	_, done, err = g.StepN(1)
	return done, err
}

// StepN advances up to max cycles and returns the cycles run. It stops
// early, at the first cycle with a verdict: done when the machine went
// cleanly idle, or a *DeadlockError. So one call covers a whole budget,
// and any split of a budget into calls makes the same dispatches and
// reaches the same verdict at the same cycle.
//
// Each dispatch follows stepBlock's rule, so with a block table
// attached the loop advances by fused sessions and drains skip batches
// in place. A dispatch that issued an instruction is progress, and only
// the IR fingerprint is carried forward for the next cycle, recomputed
// only when the machine's interrupt epoch moved (no IR word changes
// without a unit mutation); a cycle that issued nothing takes the full
// check. The watchdog counts those barren cycles — always single
// cycles, since a fused session issues by construction and a machine
// quiet enough to go barren never qualifies for one. A jumped idle gap issues nothing either, but its bus access
// is still in flight when it ends, which is progress: the check resets
// the count exactly as each of the gap's cycles would have.
func (g *Guard) StepN(max int) (n int, done bool, err error) {
	m := g.m
	for n < max {
		n += m.stepBlock(max - n)
		if m.stats.Issued != g.issued {
			g.issued = m.stats.Issued
			if m.intrEpoch != g.epoch {
				g.epoch = m.intrEpoch
				g.irWords = m.irFingerprint()
			}
			g.barren = 0
			continue
		}
		if g.progressed() {
			g.barren = 0
			continue
		}
		g.barren++
		if m.Idle() && !m.wedged() {
			return n, true, nil
		}
		if g.window > 0 && g.barren >= g.window {
			return n, false, &DeadlockError{Cycle: m.cycle, Window: g.barren, Streams: m.Diagnose(),
				PostMortem: m.PostMortem(obs.DefaultPostMortemEvents)}
		}
	}
	return n, false, nil
}

// progressed reports whether a cycle that issued nothing still made
// progress: the bus is moving an access, a stream's pending interrupt
// word changed, or a stall is still counting down — the stream will
// thaw by itself when the period elapses, so it is not a deadlock yet.
// The epoch only says whether to look: a mask- or level-only write
// moves it without changing any IR word, and is not progress.
func (g *Guard) progressed() bool {
	m := g.m
	if m.intrEpoch != g.epoch {
		g.epoch = m.intrEpoch
		if f := m.irFingerprint(); f != g.irWords {
			g.irWords = f
			return true
		}
	}
	if m.bus.Busy() {
		return true
	}
	for _, s := range m.streams {
		if s.stallUntil > m.cycle {
			return true
		}
	}
	return false
}

// RunGuarded steps until the machine goes cleanly idle, a deadlock is
// diagnosed, or maxCycles elapse. maxCycles 0 means unlimited;
// stallWindow 0 disables the deadlock watchdog. It returns the cycles
// executed and a nil error, a *DeadlockError, or a *CycleLimitError.
// With a block table attached the loop advances by fused sessions.
func (m *Machine) RunGuarded(maxCycles int, stallWindow uint64) (int, error) {
	budget := maxCycles
	if budget == 0 {
		budget = math.MaxInt
	}
	n, done, err := m.NewGuard(stallWindow).StepN(budget)
	if done || err != nil {
		return n, err
	}
	return n, &CycleLimitError{Limit: maxCycles, PostMortem: m.PostMortem(obs.DefaultPostMortemEvents)}
}
