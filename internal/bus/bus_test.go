package bus

import (
	"testing"
)

func TestAttachOverlapRejected(t *testing.T) {
	b := New()
	if err := b.Attach(0x1000, 0x100, NewRAM("a", 256, 2)); err != nil {
		t.Fatal(err)
	}
	if err := b.Attach(0x10FF, 0x10, NewRAM("b", 16, 2)); err == nil {
		t.Fatal("overlapping attach accepted")
	}
	if err := b.Attach(0x1100, 0x10, NewRAM("c", 16, 2)); err != nil {
		t.Fatalf("adjacent attach rejected: %v", err)
	}
	if err := b.Attach(0x2000, 0, NewRAM("z", 1, 1)); err == nil {
		t.Fatal("zero-size attach accepted")
	}
	if err := b.Attach(0xFFFF, 2, NewRAM("w", 2, 1)); err == nil {
		t.Fatal("attach past the address space accepted")
	}
}

func TestReadAfterWaitCycles(t *testing.T) {
	b := New()
	ram := NewRAM("ext", 64, 3)
	ram.Poke(5, 0xBEEF)
	if err := b.Attach(0x400, 64, ram); err != nil {
		t.Fatal(err)
	}
	if !b.Start(Request{Stream: 1, Addr: 0x405, Dest: 2}) {
		t.Fatal("Start refused on idle bus")
	}
	if !b.Busy() {
		t.Fatal("bus not busy after Start")
	}
	for i := 0; i < 2; i++ {
		if _, ok := b.Tick(); ok {
			t.Fatalf("completed after %d cycles, want 3", i+1)
		}
	}
	c, ok := b.Tick()
	if !ok {
		t.Fatal("no completion on cycle 3")
	}
	if c.Data != 0xBEEF || c.Req.Stream != 1 || c.Req.Dest != 2 || c.Err != nil {
		t.Fatalf("bad completion %+v", c)
	}
	if b.Busy() {
		t.Fatal("bus still busy after completion")
	}
	if b.BusyCycles != 3 || b.Accesses != 1 {
		t.Fatalf("stats: busy=%d acc=%d", b.BusyCycles, b.Accesses)
	}
}

func TestWriteCommitsAtCompletion(t *testing.T) {
	b := New()
	ram := NewRAM("ext", 64, 2)
	b.Attach(0x400, 64, ram)
	b.Start(Request{Stream: 0, Write: true, Addr: 0x400, Data: 0x1234})
	if ram.Peek(0) != 0 {
		t.Fatal("write committed before access time elapsed")
	}
	b.Tick()
	if ram.Peek(0) != 0 {
		t.Fatal("write committed one cycle early")
	}
	if _, ok := b.Tick(); !ok {
		t.Fatal("write never completed")
	}
	if ram.Peek(0) != 0x1234 {
		t.Fatal("write lost")
	}
}

func TestBusyRejection(t *testing.T) {
	b := New()
	b.Attach(0x400, 16, NewRAM("ext", 16, 4))
	if !b.Start(Request{Stream: 0, Addr: 0x400}) {
		t.Fatal("first Start failed")
	}
	if b.Start(Request{Stream: 1, Addr: 0x401}) {
		t.Fatal("second Start accepted while busy")
	}
	if b.Rejections != 1 {
		t.Fatalf("Rejections = %d", b.Rejections)
	}
}

func TestUnmappedAccessFaults(t *testing.T) {
	b := New()
	b.Start(Request{Stream: 0, Addr: 0x9999})
	c, ok := b.Tick()
	if !ok {
		t.Fatal("unmapped access never completed")
	}
	if c.Err == nil || c.Data != 0xFFFF {
		t.Fatalf("unmapped completion %+v", c)
	}
	if b.ErrAccesses != 1 {
		t.Fatalf("ErrAccesses = %d", b.ErrAccesses)
	}
}

func TestZeroWaitPromotedToOneCycle(t *testing.T) {
	b := New()
	b.Attach(0x400, 8, NewGPIO("g", 0))
	b.Start(Request{Addr: 0x400})
	if _, ok := b.Tick(); !ok {
		t.Fatal("zero-wait device should complete on the first tick")
	}
}

func TestTimerCountdownAndIRQ(t *testing.T) {
	var gotStream, gotBit uint8 = 0xFF, 0xFF
	fired := 0
	irq := func(s, b uint8) { gotStream, gotBit, fired = s, b, fired+1 }
	tm := NewTimer("t0", 2, irq, 2, 5)
	tm.Write(TimerCount, 3)
	tm.Write(TimerCtrl, 3) // run + irq enable
	for i := 0; i < 2; i++ {
		tm.Tick()
		if fired != 0 {
			t.Fatalf("timer fired after %d ticks", i+1)
		}
	}
	tm.Tick()
	if fired != 1 || gotStream != 2 || gotBit != 5 {
		t.Fatalf("irq: fired=%d stream=%d bit=%d", fired, gotStream, gotBit)
	}
	if tm.Read(TimerStatus)&1 == 0 {
		t.Fatal("status not set after expiry")
	}
	tm.Write(TimerStatus, 0)
	if tm.Read(TimerStatus)&1 != 0 {
		t.Fatal("status write did not clear expiry")
	}
}

func TestTimerAutoReload(t *testing.T) {
	tm := NewTimer("t0", 1, nil, 0, 0)
	tm.Write(TimerReload, 2)
	tm.Write(TimerCount, 2)
	tm.Write(TimerCtrl, 1)
	for i := 0; i < 10; i++ {
		tm.Tick()
	}
	if tm.Expirations != 5 {
		t.Fatalf("Expirations = %d, want 5", tm.Expirations)
	}
}

func TestTimerStoppedDoesNotCount(t *testing.T) {
	tm := NewTimer("t0", 1, nil, 0, 0)
	tm.Write(TimerCount, 2)
	for i := 0; i < 5; i++ {
		tm.Tick()
	}
	if tm.Read(TimerCount) != 2 {
		t.Fatal("stopped timer counted")
	}
}

func TestUARTLoopback(t *testing.T) {
	u := NewUART("u0", 6)
	u.Write(UARTData, 'H')
	u.Write(UARTData, 'i')
	if string(u.TX) != "Hi" {
		t.Fatalf("TX = %q", u.TX)
	}
	if u.Read(UARTStatus)&1 != 0 {
		t.Fatal("rx-ready with empty queue")
	}
	u.Feed('o', 'k')
	if u.Read(UARTStatus)&1 == 0 {
		t.Fatal("rx-ready not set")
	}
	if u.Read(UARTData) != 'o' || u.Read(UARTData) != 'k' {
		t.Fatal("rx order wrong")
	}
	if u.Read(UARTData) != 0 {
		t.Fatal("empty rx should read 0")
	}
}

func TestUARTIRQOnFeed(t *testing.T) {
	fired := false
	u := NewUART("u0", 6)
	u.WireIRQ(func(s, b uint8) { fired = s == 1 && b == 3 }, 1, 3)
	u.Feed('x')
	if !fired {
		t.Fatal("feed did not raise the wired IRQ")
	}
}

func TestADCConversion(t *testing.T) {
	a := NewADC("adc", 4, 10, func(n int) uint16 { return uint16(100 + n) })
	var irqs int
	a.WireIRQ(func(s, b uint8) { irqs++ }, 0, 2)
	if a.Read(ADCStatus) != 0 {
		t.Fatal("done before any conversion")
	}
	a.Write(ADCCtrl, 1)
	for i := 0; i < 9; i++ {
		a.Tick()
	}
	if a.Read(ADCStatus) != 0 {
		t.Fatal("conversion completed early")
	}
	a.Tick()
	if a.Read(ADCStatus) != 1 || a.Read(ADCData) != 100 {
		t.Fatalf("after conversion: status=%d data=%d", a.Read(ADCStatus), a.Read(ADCData))
	}
	if irqs != 1 {
		t.Fatalf("irqs = %d", irqs)
	}
	// Second conversion produces the next sample.
	a.Write(ADCCtrl, 1)
	for i := 0; i < 10; i++ {
		a.Tick()
	}
	if a.Read(ADCData) != 101 {
		t.Fatalf("second sample = %d", a.Read(ADCData))
	}
}

func TestStepperPosition(t *testing.T) {
	s := NewStepper("step", 3)
	for i := 0; i < 5; i++ {
		s.Write(StepperCmd, 1)
	}
	s.Write(StepperCmd, 0xFFFF)
	if s.Position() != 4 {
		t.Fatalf("position = %d, want 4", s.Position())
	}
	if s.Read(StepperPos) != 4 || s.Steps != 6 {
		t.Fatalf("reg=%d steps=%d", s.Read(StepperPos), s.Steps)
	}
}

func TestTickDevicesReachesAllTickers(t *testing.T) {
	b := New()
	tm := NewTimer("t", 1, nil, 0, 0)
	tm.Write(TimerCount, 1)
	tm.Write(TimerCtrl, 1)
	a := NewADC("a", 1, 1, nil)
	a.Write(ADCCtrl, 1)
	b.Attach(0xF000, 4, tm)
	b.Attach(0xF010, 4, a)
	b.Attach(0xF020, 8, NewGPIO("g", 1)) // non-ticker must be skipped safely
	b.TickDevices()
	if tm.Expirations != 1 {
		t.Fatal("timer not ticked")
	}
	if a.Read(ADCStatus) != 1 {
		t.Fatal("adc not ticked")
	}
}

func TestResetClearsInFlight(t *testing.T) {
	b := New()
	b.Attach(0x400, 8, NewRAM("r", 8, 5))
	b.Start(Request{Addr: 0x400})
	b.Reset()
	if b.Busy() || b.BusyCycles != 0 {
		t.Fatal("Reset left state behind")
	}
}

func TestRequestString(t *testing.T) {
	if got := (Request{Stream: 2, Addr: 0xF000}).String(); got != "LD IS2 @0xf000" {
		t.Fatalf("String() = %q", got)
	}
	if got := (Request{Stream: 1, Write: true, Addr: 0x400}).String(); got != "ST IS1 @0x0400" {
		t.Fatalf("String() = %q", got)
	}
}

func TestWatchdogBitesWithoutKick(t *testing.T) {
	var bites int
	w := NewWatchdog("wd", 2, 10, func(s, b uint8) {
		if s == 1 && b == 7 {
			bites++
		}
	}, 1, 7)
	// Disabled: never bites.
	for i := 0; i < 30; i++ {
		w.Tick()
	}
	if bites != 0 {
		t.Fatal("disabled watchdog bit")
	}
	w.Write(WatchdogCtrl, 1)
	for i := 0; i < 11; i++ {
		w.Tick()
	}
	if bites != 1 {
		t.Fatalf("bites = %d after timeout", bites)
	}
	// It rearms and bites again if still not kicked.
	for i := 0; i < 11; i++ {
		w.Tick()
	}
	if bites != 2 {
		t.Fatalf("bites = %d after second timeout", bites)
	}
}

func TestWatchdogKickedNeverBites(t *testing.T) {
	w := NewWatchdog("wd", 2, 10, func(s, b uint8) { t.Fatal("bit despite kicks") }, 0, 7)
	w.Write(WatchdogCtrl, 1)
	for i := 0; i < 100; i++ {
		if i%5 == 0 {
			w.Write(WatchdogKick, 1)
		}
		w.Tick()
	}
	if w.Read(WatchdogLeft) == 0 {
		t.Fatal("countdown at zero despite kicks")
	}
	if w.Read(WatchdogCtrl) != 1 {
		t.Fatal("ctrl readback wrong")
	}
}

// TestQuiescent pins the Quieter contract the block engine's session
// entry leans on: an idle board is quiescent, any ticker with work in
// flight breaks quiescence, and every transition in or out runs
// through a bus-visible device write.
func TestQuiescent(t *testing.T) {
	b := New()
	if !b.Quiescent() {
		t.Fatal("empty bus not quiescent")
	}
	tm := NewTimer("t", 1, nil, 0, 4)
	adc := NewADC("a", 1, 5, nil)
	wd := NewWatchdog("w", 1, 100, nil, 0, 7)
	if err := b.Attach(0xF000, 4, tm); err != nil {
		t.Fatal(err)
	}
	if err := b.Attach(0xF010, 4, adc); err != nil {
		t.Fatal(err)
	}
	if err := b.Attach(0xF020, 4, wd); err != nil {
		t.Fatal(err)
	}
	if !b.NeedsTick() {
		t.Fatal("tickers attached but NeedsTick is false")
	}
	if !b.Quiescent() {
		t.Fatal("all-idle board not quiescent")
	}

	// Arm the timer: count + run bit. Not quiet until it expires.
	tm.Write(TimerCount, 3)
	tm.Write(TimerCtrl, 1)
	if b.Quiescent() {
		t.Fatal("running timer counted as quiescent")
	}
	for i := 0; i < 3; i++ {
		b.TickDevices()
	}
	if !b.Quiescent() {
		t.Fatal("expired no-reload timer still not quiescent")
	}

	// A conversion in flight breaks quiescence until it completes.
	adc.Write(ADCCtrl, 1)
	if b.Quiescent() {
		t.Fatal("converting ADC counted as quiescent")
	}
	for i := 0; i < 5; i++ {
		b.TickDevices()
	}
	if !b.Quiescent() {
		t.Fatal("finished ADC still not quiescent")
	}

	// An armed watchdog is never quiet: its whole job is to bite while
	// software does nothing.
	wd.Write(WatchdogCtrl, 1)
	if b.Quiescent() {
		t.Fatal("armed watchdog counted as quiescent")
	}
	wd.Write(WatchdogCtrl, 0)
	if !b.Quiescent() {
		t.Fatal("disarmed watchdog still not quiescent")
	}
}

// TestQuieterRestStates pins the rest-state reporting of the devices
// with no autonomous time behaviour — UART, GPIO, Stepper — which must
// be unconditionally quiet in every reachable state: nothing the clock
// does can change them, so a board carrying them must not suppress
// fused sessions.
func TestQuieterRestStates(t *testing.T) {
	u := NewUART("u", 3)
	if !u.Quiet() {
		t.Fatal("idle UART not quiet")
	}
	u.Feed('x', 'y') // pending rx bytes hold still until a bus read
	if !u.Quiet() {
		t.Fatal("UART with queued rx not quiet (rx only drains on bus reads)")
	}
	u.Write(UARTData, 'z')
	if !u.Quiet() {
		t.Fatal("UART after tx not quiet (tx completes immediately)")
	}

	g := NewGPIO("g", 1)
	g.Write(3, 0xBEEF)
	if !g.Quiet() {
		t.Fatal("latched GPIO not quiet")
	}

	s := NewStepper("s", 2)
	s.Write(StepperCmd, 1)
	s.Write(StepperCmd, 0xFFFF)
	if !s.Quiet() {
		t.Fatal("stepper between commands not quiet")
	}

	// None of the three keeps time: attaching them must not create
	// ticker work, and the board stays quiescent throughout.
	b := New()
	for i, dev := range []Device{u, g, s} {
		if err := b.Attach(0xF000+uint16(i)*16, 8, dev); err != nil {
			t.Fatal(err)
		}
	}
	if b.NeedsTick() {
		t.Fatal("clockless devices registered as tickers")
	}
	if !b.Quiescent() {
		t.Fatal("UART+GPIO+Stepper board not quiescent")
	}
}

// catchTicker records Tick and CatchUp calls for the Bus.CatchUp test.
type catchTicker struct {
	GPIO          // embedded for Device plumbing
	ticks, caught uint64
}

func (c *catchTicker) Tick()            { c.ticks++ }
func (c *catchTicker) CatchUp(n uint64) { c.caught += n }

// TestBusCatchUp: CatchUp reaches exactly the tickers that declare
// clock-derived bookkeeping, and reaches them with the full skipped
// span.
func TestBusCatchUp(t *testing.T) {
	b := New()
	ct := &catchTicker{GPIO: *NewGPIO("ct", 1)}
	tm := NewTimer("t", 1, nil, 0, 4) // plain Ticker, no CatchUp
	if err := b.Attach(0xF000, 8, ct); err != nil {
		t.Fatal(err)
	}
	if err := b.Attach(0xF010, 4, tm); err != nil {
		t.Fatal(err)
	}
	b.CatchUp(123)
	b.CatchUp(4)
	if ct.caught != 127 {
		t.Fatalf("catch-up ticker saw %d cycles, want 127", ct.caught)
	}
	if ct.ticks != 0 {
		t.Fatal("CatchUp must not call Tick")
	}
}

// TestSkipTicksMatchesTick: QuietTicks is exactly the run of Ticks
// that return ok=false, and SkipTicks(k) for any k up to it leaves the
// ABI as k such Ticks do — statistics, handshake counters and State —
// so the access completes or times out on the same later Tick, with
// the same outcome, either way. The sweep covers every wait count,
// pre-elapsed count and budget around the timeout edge (a budget of
// elapsed+1 leaves no quiet tick), plus unmapped and idle buses.
func TestSkipTicksMatchesTick(t *testing.T) {
	type setup struct {
		addr    uint16
		wait    int
		pre     int // Ticks before the budget is installed
		timeout int
	}
	var cases []setup
	for wait := 1; wait <= 9; wait++ {
		for pre := 0; pre < wait; pre++ {
			for _, to := range []int{0, 1, 2, pre, pre + 1, pre + 2, pre + 3, wait - 1, wait, wait + 1} {
				cases = append(cases, setup{addr: 0x400, wait: wait, pre: pre, timeout: to})
			}
		}
	}
	cases = append(cases, setup{addr: 0x9999, wait: 1}, setup{addr: 0x9999, wait: 1, timeout: 1})

	build := func(c setup) *Bus {
		b := New()
		ram := NewRAM("ext", 16, c.wait)
		ram.Poke(3, 0xCAFE)
		if err := b.Attach(0x400, 16, ram); err != nil {
			t.Fatal(err)
		}
		if !b.Start(Request{Stream: 2, Addr: c.addr, Dest: 1}) {
			t.Fatal("Start refused on an idle bus")
		}
		for i := 0; i < c.pre; i++ {
			if _, ok := b.Tick(); ok {
				t.Fatalf("%+v: setup Tick %d completed", c, i)
			}
		}
		b.SetTimeout(c.timeout)
		return b
	}
	// finish ticks b until the access ends and reports after how many
	// Ticks and with what outcome.
	finish := func(b *Bus) (int, Completion) {
		for n := 1; ; n++ {
			if c, ok := b.Tick(); ok {
				return n, c
			}
			if n > 64 {
				t.Fatal("access never ended")
			}
		}
	}
	for _, c := range cases {
		q := build(c).QuietTicks()
		// Tightness: exactly q Ticks return ok=false, the next ends it.
		if n, _ := finish(build(c)); n != q+1 {
			t.Fatalf("%+v: QuietTicks = %d, but the access ended on Tick %d", c, q, n)
		}
		for k := 0; k <= q; k++ {
			ticked, skipped := build(c), build(c)
			for i := 0; i < k; i++ {
				ticked.Tick()
			}
			skipped.SkipTicks(k)
			if ticked.BusyCycles != skipped.BusyCycles || ticked.elapsed != skipped.elapsed ||
				ticked.remaining != skipped.remaining || ticked.State() != skipped.State() {
				t.Fatalf("%+v: SkipTicks(%d) left %+v, %d Ticks left %+v", c, k, skipped.State(), k, ticked.State())
			}
			if got, want := skipped.QuietTicks(), q-k; got != want {
				t.Fatalf("%+v: after SkipTicks(%d), QuietTicks = %d, want %d", c, k, got, want)
			}
			tn, tc := finish(ticked)
			sn, sc := finish(skipped)
			if tn != sn || tc.Data != sc.Data || tc.Req != sc.Req || (tc.Err == nil) != (sc.Err == nil) ||
				(tc.Err != nil && tc.Err.Error() != sc.Err.Error()) || ticked.State() != skipped.State() {
				t.Fatalf("%+v, k=%d: ticked ended after %d with %+v, skipped after %d with %+v", c, k, tn, tc, sn, sc)
			}
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%+v: SkipTicks(%d) past the quiet run did not panic", c, q+1)
				}
			}()
			build(c).SkipTicks(q + 1)
		}()
	}

	idle := New()
	if q := idle.QuietTicks(); q != 0 {
		t.Fatalf("idle bus reports %d quiet ticks", q)
	}
	idle.SkipTicks(0)
	if idle.BusyCycles != 0 || idle.State() != (State{}) {
		t.Fatalf("SkipTicks(0) on an idle bus moved it: %+v", idle.State())
	}
}
