// Package bus implements the DISC1 Asynchronous Bus Interface (ABI)
// and the peripheral devices that hang off the 16-bit asynchronous data
// bus (§3.6.1, §3.7).
//
// DISC is a load/store machine, but a load or store to external space
// must not stop the other instruction streams. The ABI therefore works
// like a one-entry pseudo-DMA engine: the executing stream posts the
// effective address (and, for a load, the destination register), enters
// a wait state, and the ABI runs the access by itself, counting the
// device's wait states. When the access completes the ABI writes the
// data directly into the destination register file and reactivates all
// waiting streams. A second stream that requests the bus while it is
// busy is also flushed into a wait state and retries after reactivation
// — the paper's "busy flag" protocol, reproduced here exactly because
// Tables 4.2/4.3 depend on its contention behaviour.
package bus

import (
	"fmt"
	"sort"

	"disc/internal/obs"
)

// Request is one posted external access.
type Request struct {
	Stream int    // requesting instruction stream
	Write  bool   // store (true) or load (false)
	Addr   uint16 // effective address on the data bus
	Data   uint16 // store data
	Dest   uint8  // load destination register field (opaque to the bus)
	Tag    uint64 // issuing-cycle tag, for latency accounting
}

// Completion reports a finished access back to the machine.
type Completion struct {
	Req  Request
	Data uint16 // load result (undefined for stores)
	Err  error  // non-nil *BusError for failed accesses (see error.go)
}

// Device is a peripheral or external memory reachable over the data
// bus. Addr values passed in are offsets from the device's base.
type Device interface {
	Name() string
	// AccessCycles returns how many bus cycles the access occupies.
	// Zero-cycle devices are promoted to one cycle: the bus is
	// synchronous at the cycle level even when the device is fast.
	AccessCycles(offset uint16, write bool) int
	Read(offset uint16) uint16
	Write(offset uint16, v uint16)
}

// Ticker is implemented by devices that advance with machine cycles
// (timers, ADC sampling, UART drains).
type Ticker interface {
	Tick()
}

// Quieter is an optional refinement of Ticker: Quiet reports that the
// device's Tick is currently a no-op AND will stay one until a bus
// access changes the device's state (a disabled timer, an ADC with no
// conversion in flight). The block engine uses it to prove that
// skipping TickDevices over a fused session — which contains no bus
// access by construction — cannot change any device outcome. A ticker
// that does not implement Quieter is conservatively assumed never
// quiet.
type Quieter interface {
	Quiet() bool
}

// CatchUpTicker is implemented by tickers that keep a cycle count (or
// other clock-derived bookkeeping) even while quiet — fault-injection
// wrappers timestamp their observations, for example. When the block
// engine skips TickDevices over a fused session it calls CatchUp(n)
// at session end so such bookkeeping lands exactly where n individual
// Ticks would have put it; a quiet ticker without CatchUpTicker is
// assumed to carry no clock-derived state at all (its Tick is a pure
// no-op while quiet), which Quiet already promises.
type CatchUpTicker interface {
	Ticker
	CatchUp(n uint64)
}

type mapping struct {
	base uint16
	size uint16
	dev  Device
}

// Bus is the ABI plus the address decoder for the external data space.
type Bus struct {
	maps     []mapping
	tickers  []Ticker        // devices that keep time, in address order
	catchups []CatchUpTicker // tickers with clock-derived bookkeeping

	busy      bool
	current   Request
	remaining int
	elapsed   int // cycles the in-flight access has consumed
	timeout   int // bounded-wait budget; 0 = wait forever

	// statistics
	BusyCycles   uint64 // cycles the bus spent occupied
	Accesses     uint64 // completed accesses
	Rejections   uint64 // requests that found the bus busy
	ErrAccesses  uint64 // accesses to unmapped addresses
	Timeouts     uint64 // accesses abandoned by the bounded-wait budget
	DeviceFaults uint64 // accesses the device itself refused

	// Observability: the flight recorder and a clock for stamping
	// events (the bus keeps no cycle counter of its own). Both nil when
	// tracing is off; Start/Tick pay one nil check per access event —
	// never per idle cycle.
	rec *obs.Recorder
	now func() uint64
}

// New returns an empty bus; attach devices before use.
func New() *Bus { return &Bus{} }

// SetTimeout installs the bounded-wait budget: an access still
// incomplete after n bus cycles is abandoned and completes with
// ErrTimeout instead of occupying the bus (and wedging its stream)
// forever. Zero restores the paper's unbounded protocol. The budget is
// configuration, not state — Reset preserves it.
func (b *Bus) SetTimeout(n int) {
	if n < 0 {
		n = 0
	}
	b.timeout = n
}

// Timeout returns the bounded-wait budget (0 = unbounded).
func (b *Bus) Timeout() int { return b.timeout }

// SetRecorder attaches (or, with nils, detaches) the flight recorder.
// now supplies the machine cycle for event timestamps. The bus emits
// the access-level half of the ABI taxonomy — start, complete,
// timeout, fault — while the machine emits the stream-level half
// (wait-state entry, busy-retry).
func (b *Bus) SetRecorder(rec *obs.Recorder, now func() uint64) {
	b.rec = rec
	b.now = now
	if b.rec != nil && b.now == nil {
		b.now = func() uint64 { return 0 }
	}
}

// emit stamps and records one bus event; callers guard with rec != nil.
// cause is KindBusFault's B field (0 = unmapped, 1 = device refused).
func (b *Bus) emit(kind obs.Kind, r Request, data uint16, elapsed int, cause uint8) {
	write := uint8(0)
	if r.Write {
		write = 1
	}
	b.rec.Emit(obs.Event{
		Cycle: b.now(), Kind: kind, Stream: int8(r.Stream),
		Addr: r.Addr, Data: data, A: write, B: cause, Aux: uint64(elapsed),
	})
}

// Attach maps dev at [base, base+size). Overlapping ranges are
// rejected so the address decode stays unambiguous.
func (b *Bus) Attach(base, size uint16, dev Device) error {
	if size == 0 {
		return fmt.Errorf("bus: device %s mapped with zero size", dev.Name())
	}
	end := uint32(base) + uint32(size)
	if end > 1<<16 {
		return fmt.Errorf("bus: device %s at %#x+%#x exceeds the address space", dev.Name(), base, size)
	}
	for _, m := range b.maps {
		mEnd := uint32(m.base) + uint32(m.size)
		if uint32(base) < mEnd && end > uint32(m.base) {
			return fmt.Errorf("bus: device %s overlaps %s", dev.Name(), m.dev.Name())
		}
	}
	b.maps = append(b.maps, mapping{base, size, dev})
	sort.Slice(b.maps, func(i, j int) bool { return b.maps[i].base < b.maps[j].base })
	// Rebuild the ticker list in the same address order so TickDevices
	// keeps its deterministic sequence without re-asserting the Ticker
	// interface on every device every cycle.
	b.tickers = b.tickers[:0]
	b.catchups = b.catchups[:0]
	for _, m := range b.maps {
		if t, ok := m.dev.(Ticker); ok {
			b.tickers = append(b.tickers, t)
			if c, ok := m.dev.(CatchUpTicker); ok {
				b.catchups = append(b.catchups, c)
			}
		}
	}
	return nil
}

// CatchUp replays n skipped TickDevices calls into every ticker that
// keeps clock-derived bookkeeping (CatchUpTicker). It is only sound
// when every ticker was Quiet for the whole skipped span — exactly the
// precondition Quiescent certifies and the block engine maintains —
// because for plain quiet tickers the skipped Ticks were no-ops by
// definition and need no replay.
func (b *Bus) CatchUp(n uint64) {
	for _, c := range b.catchups {
		c.CatchUp(n)
	}
}

// NeedsTick reports whether any attached device keeps time. A machine
// with only passive devices (or none) can skip TickDevices entirely —
// the common case in the Table 4.x compute-bound workloads.
func (b *Bus) NeedsTick() bool { return len(b.tickers) > 0 }

// Quiescent reports that every time-keeping device is in a state
// where ticking it is a provable no-op (see Quieter). While it holds,
// any stretch of cycles free of bus accesses can skip TickDevices
// without changing a single device outcome — the license the block
// engine's session-entry check relies on.
func (b *Bus) Quiescent() bool {
	for _, t := range b.tickers {
		q, ok := t.(Quieter)
		if !ok || !q.Quiet() {
			return false
		}
	}
	return true
}

// lookup finds the device covering addr.
func (b *Bus) lookup(addr uint16) (Device, uint16, bool) {
	for _, m := range b.maps {
		if addr >= m.base && uint32(addr) < uint32(m.base)+uint32(m.size) {
			return m.dev, addr - m.base, true
		}
	}
	return nil, 0, false
}

// Busy reports whether an access is in flight. A stream seeing true
// must flush its instruction and wait (§4.1's contention rule).
func (b *Bus) Busy() bool { return b.busy }

// Start posts a request. It returns false (and counts a rejection)
// when the bus is already occupied.
func (b *Bus) Start(r Request) bool {
	if b.busy {
		b.Rejections++
		return false
	}
	b.busy = true
	b.current = r
	b.elapsed = 0
	if dev, off, ok := b.lookup(r.Addr); ok {
		c := dev.AccessCycles(off, r.Write)
		if c < 1 {
			c = 1
		}
		b.remaining = c
	} else {
		b.remaining = 1 // unmapped accesses fault after one cycle
	}
	if b.rec != nil {
		b.emit(obs.KindBusStart, r, 0, 0, 0)
	}
	return true
}

// Tick advances the in-flight access by one bus cycle. When the access
// completes it is performed against the device and reported; an access
// exceeding the bounded-wait budget is abandoned with ErrTimeout
// instead. Otherwise Tick returns ok=false.
func (b *Bus) Tick() (Completion, bool) {
	if !b.busy {
		return Completion{}, false
	}
	b.BusyCycles++
	b.elapsed++
	b.remaining--
	if b.remaining > 0 {
		if b.timeout > 0 && b.elapsed >= b.timeout {
			// Bounded wait exceeded: abandon the handshake. The device
			// never saw the access complete, so a store is lost and a
			// load returns the 0xFFFF open-bus value.
			b.busy = false
			b.Accesses++
			b.Timeouts++
			if b.rec != nil {
				b.emit(obs.KindBusTimeout, b.current, 0xFFFF, b.elapsed, 0)
			}
			return Completion{Req: b.current, Data: 0xFFFF,
				Err: &BusError{Cause: ErrTimeout, Req: b.current, Elapsed: b.elapsed}}, true
		}
		return Completion{}, false
	}
	b.busy = false
	b.Accesses++
	r := b.current
	dev, off, ok := b.lookup(r.Addr)
	if !ok {
		b.ErrAccesses++
		if b.rec != nil {
			b.emit(obs.KindBusFault, r, 0xFFFF, b.elapsed, 0)
		}
		return Completion{Req: r, Data: 0xFFFF, Err: &BusError{Cause: ErrUnmapped, Req: r, Elapsed: b.elapsed}}, true
	}
	if f, isF := dev.(Faulter); isF && f.AccessFault(off, r.Write) {
		b.DeviceFaults++
		if b.rec != nil {
			b.emit(obs.KindBusFault, r, 0xFFFF, b.elapsed, 1)
		}
		return Completion{Req: r, Data: 0xFFFF, Err: &BusError{Cause: ErrDeviceFault, Req: r, Elapsed: b.elapsed}}, true
	}
	if r.Write {
		dev.Write(off, r.Data)
		if b.rec != nil {
			b.emit(obs.KindBusComplete, r, 0, b.elapsed, 0)
		}
		return Completion{Req: r}, true
	}
	data := dev.Read(off)
	if b.rec != nil {
		b.emit(obs.KindBusComplete, r, data, b.elapsed, 0)
	}
	return Completion{Req: r, Data: data}, true
}

// QuietTicks returns how many of the next Tick calls are certain to
// return ok=false: the in-flight access neither completes nor exceeds
// the bounded-wait budget before the Tick after them. An idle bus
// reports 0 — there is no access to advance.
func (b *Bus) QuietTicks() int {
	if !b.busy {
		return 0
	}
	// Completion is the Tick that takes remaining to 0; a timeout is
	// the first Tick that leaves elapsed >= timeout with remaining > 0.
	q := b.remaining - 1
	if b.timeout > 0 {
		q = min(q, b.timeout-b.elapsed-1)
	}
	return max(q, 0)
}

// SkipTicks advances the in-flight access by k bus cycles at once,
// leaving the ABI exactly as k Tick calls that each returned ok=false
// would. k must not exceed QuietTicks; the machine uses it to jump
// over cycles in which nothing but the bus handshake moves.
func (b *Bus) SkipTicks(k int) {
	if k < 0 || k > b.QuietTicks() {
		panic(fmt.Sprintf("bus: SkipTicks(%d) with %d quiet ticks left", k, b.QuietTicks()))
	}
	b.BusyCycles += uint64(k)
	b.elapsed += k
	b.remaining -= k
}

// TickDevices advances every attached device that keeps time.
func (b *Bus) TickDevices() {
	for _, t := range b.tickers {
		t.Tick()
	}
}

// Devices returns the attached devices in address order.
func (b *Bus) Devices() []Device {
	out := make([]Device, len(b.maps))
	for i, m := range b.maps {
		out[i] = m.dev
	}
	return out
}

// DeviceMapping is one entry of the address decode table, exposed for
// the snapshot layer: a restored machine must pair each serialized
// device-state blob with the device at the same base address.
type DeviceMapping struct {
	Base uint16
	Size uint16
	Dev  Device
}

// Mappings returns the decode table in address order.
func (b *Bus) Mappings() []DeviceMapping {
	out := make([]DeviceMapping, len(b.maps))
	for i, m := range b.maps {
		out[i] = DeviceMapping{Base: m.base, Size: m.size, Dev: m.dev}
	}
	return out
}

// State is the serializable mutable state of the ABI itself: the
// in-flight access (if any) and the statistics counters. Device
// contents are captured separately, per device; the decode table and
// the bounded-wait budget are configuration.
type State struct {
	Busy      bool
	Current   Request
	Remaining int
	Elapsed   int

	BusyCycles   uint64
	Accesses     uint64
	Rejections   uint64
	ErrAccesses  uint64
	Timeouts     uint64
	DeviceFaults uint64
}

// State captures the ABI mid-handshake. An idle bus reports a zero
// handshake even though the last completed access leaves residue in the
// internal fields — that residue is architecturally dead, and dropping
// it makes State a canonical form (two buses in the same architectural
// state capture equal States).
func (b *Bus) State() State {
	s := State{
		BusyCycles: b.BusyCycles, Accesses: b.Accesses, Rejections: b.Rejections,
		ErrAccesses: b.ErrAccesses, Timeouts: b.Timeouts, DeviceFaults: b.DeviceFaults,
	}
	if b.busy {
		s.Busy = true
		s.Current = b.current
		s.Remaining = b.remaining
		s.Elapsed = b.elapsed
	}
	return s
}

// SetState restores a captured ABI state. An idle bus gets its
// handshake counters zeroed regardless of what the snapshot claims, and
// a busy one is given at least one remaining cycle, so corrupt input
// cannot produce an access that never completes or completes at a
// negative cycle count.
func (b *Bus) SetState(s State) {
	b.busy = s.Busy
	b.current = s.Current
	if !s.Busy {
		b.current = Request{}
		b.remaining, b.elapsed = 0, 0
	} else {
		b.remaining, b.elapsed = s.Remaining, s.Elapsed
		if b.remaining < 1 {
			b.remaining = 1
		}
		if b.elapsed < 0 {
			b.elapsed = 0
		}
	}
	b.BusyCycles = s.BusyCycles
	b.Accesses = s.Accesses
	b.Rejections = s.Rejections
	b.ErrAccesses = s.ErrAccesses
	b.Timeouts = s.Timeouts
	b.DeviceFaults = s.DeviceFaults
}

// Reset aborts any in-flight access and clears statistics. The
// bounded-wait budget is configuration and survives.
func (b *Bus) Reset() {
	b.busy = false
	b.current = Request{}
	b.remaining, b.elapsed = 0, 0
	b.BusyCycles, b.Accesses, b.Rejections, b.ErrAccesses = 0, 0, 0, 0
	b.Timeouts, b.DeviceFaults = 0, 0
}
