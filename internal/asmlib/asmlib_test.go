package asmlib

import (
	"math"
	"testing"
	"testing/quick"

	"disc/internal/asm"
	"disc/internal/bus"
	"disc/internal/core"
	"disc/internal/isa"
)

// rig assembles the whole library behind per-routine entry stubs and
// returns the machine plus the entry addresses.
func rig(t testing.TB) (*core.Machine, map[string]uint16) {
	t.Helper()
	src := `
.org 0
entry_div:  CALL div16
            HALT
entry_sqrt: CALL sqrt16
            HALT
entry_cpy:  CALL memcpy
            HALT
entry_crc:  CALL crc16
            HALT
entry_fix:  CALL fixmul
            HALT
entry_pid:  CALL pid
            HALT
.org 0x100
` + PIDEquates(0x200) + All()
	im, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble library: %v", err)
	}
	m := core.MustNew(core.Config{Streams: 1})
	ram := bus.NewRAM("ext", 256, 5)
	if err := m.Bus().Attach(isa.ExternalBase, 256, ram); err != nil {
		t.Fatal(err)
	}
	if err := im.Load(m, nil); err != nil {
		t.Fatal(err)
	}
	entries := map[string]uint16{}
	for _, name := range []string{"entry_div", "entry_sqrt", "entry_cpy", "entry_crc", "entry_fix", "entry_pid"} {
		v, ok := im.Symbol(name)
		if !ok {
			t.Fatalf("missing entry %s", name)
		}
		entries[name] = v
	}
	return m, entries
}

// call runs one library invocation with the given globals.
func call(t testing.TB, m *core.Machine, entry uint16, g [4]uint16) [4]uint16 {
	t.Helper()
	for i, v := range g {
		m.SetGlobal(i, v)
	}
	if err := m.StartStream(0, entry); err != nil {
		t.Fatal(err)
	}
	if _, idle := m.RunUntilIdle(20000); !idle {
		t.Fatalf("routine at %#x did not return", entry)
	}
	return [4]uint16{m.Global(0), m.Global(1), m.Global(2), m.Global(3)}
}

func TestDiv16Cases(t *testing.T) {
	m, e := rig(t)
	cases := []struct{ a, b uint16 }{
		{100, 7}, {65535, 1}, {65535, 65535}, {0, 5}, {1, 2}, {40000, 123}, {8, 8},
	}
	for _, c := range cases {
		out := call(t, m, e["entry_div"], [4]uint16{c.a, c.b})
		if out[2] != c.a/c.b || out[3] != c.a%c.b {
			t.Errorf("%d/%d = q%d r%d, want q%d r%d", c.a, c.b, out[2], out[3], c.a/c.b, c.a%c.b)
		}
	}
}

func TestDiv16ByZero(t *testing.T) {
	m, e := rig(t)
	out := call(t, m, e["entry_div"], [4]uint16{1234, 0})
	if out[2] != 0xFFFF || out[3] != 1234 {
		t.Fatalf("div by zero: q=%#x r=%d", out[2], out[3])
	}
}

// TestDiv16Property checks the division identity a = q*b + r, r < b
// against Go for random inputs.
func TestDiv16Property(t *testing.T) {
	m, e := rig(t)
	f := func(a, b uint16) bool {
		if b == 0 {
			return true
		}
		out := call(t, m, e["entry_div"], [4]uint16{a, b})
		return out[2] == a/b && out[3] == a%b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSqrt16Cases(t *testing.T) {
	m, e := rig(t)
	for _, n := range []uint16{0, 1, 2, 3, 4, 15, 16, 17, 255, 256, 1024, 65535, 40000} {
		out := call(t, m, e["entry_sqrt"], [4]uint16{n})
		want := uint16(math.Sqrt(float64(n)))
		if out[1] != want {
			t.Errorf("sqrt(%d) = %d, want %d", n, out[1], want)
		}
	}
}

func TestSqrt16Property(t *testing.T) {
	m, e := rig(t)
	f := func(n uint16) bool {
		out := call(t, m, e["entry_sqrt"], [4]uint16{n})
		r := uint32(out[1])
		return r*r <= uint32(n) && (r+1)*(r+1) > uint32(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestMemcpyInternal(t *testing.T) {
	m, e := rig(t)
	for i := uint16(0); i < 8; i++ {
		m.Internal().Write(0x300+i, 0x1000+i)
	}
	call(t, m, e["entry_cpy"], [4]uint16{0x300, 0x340, 8})
	for i := uint16(0); i < 8; i++ {
		if got := m.Internal().Read(0x340 + i); got != 0x1000+i {
			t.Fatalf("word %d = %#x", i, got)
		}
	}
}

func TestMemcpyZeroCount(t *testing.T) {
	m, e := rig(t)
	m.Internal().Write(0x340, 0xDEAD)
	call(t, m, e["entry_cpy"], [4]uint16{0x300, 0x340, 0})
	if m.Internal().Read(0x340) != 0xDEAD {
		t.Fatal("zero-count memcpy wrote")
	}
}

// TestMemcpyToExternal pushes data through the asynchronous bus —
// every store waits on the ABI while the routine keeps its loop state
// in the stack window.
func TestMemcpyToExternal(t *testing.T) {
	m, e := rig(t)
	for i := uint16(0); i < 6; i++ {
		m.Internal().Write(0x300+i, 0xA0+i)
	}
	call(t, m, e["entry_cpy"], [4]uint16{0x300, isa.ExternalBase + 16, 6})
	// Read back through a second copy external -> internal.
	call(t, m, e["entry_cpy"], [4]uint16{isa.ExternalBase + 16, 0x380, 6})
	for i := uint16(0); i < 6; i++ {
		if got := m.Internal().Read(0x380 + i); got != 0xA0+i {
			t.Fatalf("external round trip word %d = %#x", i, got)
		}
	}
	if m.Stats().BusWaits == 0 {
		t.Fatal("external memcpy never used the bus")
	}
}

// crcRef is the Go reference: CRC-16/CCITT over 16-bit words.
func crcRef(words []uint16) uint16 {
	crc := uint16(0xFFFF)
	for _, w := range words {
		crc ^= w
		for b := 0; b < 16; b++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ 0x1021
			} else {
				crc <<= 1
			}
		}
	}
	return crc
}

func TestCRC16(t *testing.T) {
	m, e := rig(t)
	data := []uint16{0x3132, 0x3334, 0x3536, 0x3738, 0x39AB}
	for i, w := range data {
		m.Internal().Write(0x300+uint16(i), w)
	}
	out := call(t, m, e["entry_crc"], [4]uint16{0x300, uint16(len(data))})
	if want := crcRef(data); out[2] != want {
		t.Fatalf("crc = %#x, want %#x", out[2], want)
	}
	// Empty block: just the init value.
	out = call(t, m, e["entry_crc"], [4]uint16{0x300, 0})
	if out[2] != 0xFFFF {
		t.Fatalf("empty crc = %#x", out[2])
	}
}

func TestCRC16Property(t *testing.T) {
	m, e := rig(t)
	f := func(a, b, c uint16) bool {
		data := []uint16{a, b, c}
		for i, w := range data {
			m.Internal().Write(0x300+uint16(i), w)
		}
		out := call(t, m, e["entry_crc"], [4]uint16{0x300, 3})
		return out[2] == crcRef(data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestFixMul(t *testing.T) {
	m, e := rig(t)
	cases := []struct{ a, b uint16 }{
		{0x0100, 0x0100}, // 1.0 * 1.0
		{0x0180, 0x0200}, // 1.5 * 2.0
		{0x0040, 0x0040}, // 0.25 * 0.25
		{0x1000, 0x0010}, // 16.0 * 0.0625
		{0, 0x0500},
	}
	for _, c := range cases {
		out := call(t, m, e["entry_fix"], [4]uint16{c.a, c.b})
		want := uint16(uint32(c.a) * uint32(c.b) >> 8)
		if out[2] != want {
			t.Errorf("fixmul(%#x,%#x) = %#x, want %#x", c.a, c.b, out[2], want)
		}
	}
}

func TestFixMulProperty(t *testing.T) {
	m, e := rig(t)
	f := func(a, b uint16) bool {
		out := call(t, m, e["entry_fix"], [4]uint16{a, b})
		return out[2] == uint16(uint32(a)*uint32(b)>>8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// pidRef mirrors the assembly controller in Go (Q8.8, truncating).
type pidRef struct{ kp, ki, kd, i, e uint16 }

func (p *pidRef) step(sp, meas uint16) uint16 {
	e := sp - meas
	p.i += e
	fm := func(a, b uint16) uint16 { return uint16(uint32(a) * uint32(b) >> 8) }
	out := fm(p.kp, e) + fm(p.ki, p.i) + fm(p.kd, e-p.e)
	p.e = e
	return out
}

func TestPIDMatchesReference(t *testing.T) {
	m, e := rig(t)
	const base = 0x200
	kp, ki, kd := uint16(0x0200), uint16(0x0020), uint16(0x0080) // 2.0, 0.125, 0.5
	m.Internal().Write(base+0, kp)
	m.Internal().Write(base+1, ki)
	m.Internal().Write(base+2, kd)
	m.Internal().Write(base+3, 0) // integral
	m.Internal().Write(base+4, 0) // prev error
	ref := &pidRef{kp: kp, ki: ki, kd: kd}

	meas := uint16(0)
	for step := 0; step < 10; step++ {
		sp := uint16(0x0800) // setpoint 8.0
		out := call(t, m, e["entry_pid"], [4]uint16{sp, meas})
		want := ref.step(sp, meas)
		if out[2] != want {
			t.Fatalf("step %d: pid = %#x, want %#x", step, out[2], want)
		}
		// A crude plant: measurement moves an eighth of the output.
		meas += out[2] >> 3
		if meas > sp {
			meas = sp // keep the unsigned domain valid
		}
	}
	if m.Internal().Read(base+3) == 0 {
		t.Fatal("integral state never updated")
	}
}

// TestLibraryWindowDiscipline verifies the §3.5 contract: calling every
// routine must leave the caller's AWP exactly where it was.
func TestLibraryWindowDiscipline(t *testing.T) {
	m, e := rig(t)
	before := m.WindowFile(0).AWP()
	for _, entry := range []string{"entry_div", "entry_sqrt", "entry_fix", "entry_crc"} {
		call(t, m, e[entry], [4]uint16{100, 10})
		if got := m.WindowFile(0).AWP(); got != before {
			t.Fatalf("%s leaked window frames: AWP %d -> %d", entry, before, got)
		}
	}
}

func BenchmarkDiv16(b *testing.B) {
	m, e := rig(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		call(b, m, e["entry_div"], [4]uint16{40000, 123})
	}
}

func BenchmarkCRC16Block(b *testing.B) {
	m, e := rig(b)
	for i := uint16(0); i < 16; i++ {
		m.Internal().Write(0x300+i, i*31)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		call(b, m, e["entry_crc"], [4]uint16{0x300, 16})
	}
}

// TestExecutivePingPong runs two cooperative tasks inside ONE stream
// through the software executive: the yield path must preserve each
// task's registers, window position and control flow exactly, proven
// by a strict alternation of appended markers.
func TestExecutivePingPong(t *testing.T) {
	const rounds = 20
	src := ExecEquates(0x20) + `
.equ PTR,   0x3F
.equ ADONE, 0x3C
.equ BDONE, 0x3D

.org 0
taskA:
    LDI R0, ` + itoa(rounds) + `
a_loop:
    LDM R1, [PTR]
    LDI R2, 1
    ST  R2, [R1]       ; append marker 1
    ADDI R1, 1
    STM R1, [PTR]
    CALL yield
    SUBI R0, 1
    BNE a_loop
    LDI R0, 1
    STM R0, [ADONE]
a_spin:
    CALL yield         ; keep handing over so B can finish
    JMP a_spin

taskB:
    LDI R0, ` + itoa(rounds) + `
b_loop:
    LDM R1, [PTR]
    LDI R2, 2
    ST  R2, [R1]       ; append marker 2
    ADDI R1, 1
    STM R1, [PTR]
    CALL yield
    SUBI R0, 1
    BNE b_loop
    LDI R0, 1
    STM R0, [BDONE]
    HALT

.org 0x180
` + Executive
	im, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble executive: %v", err)
	}
	m := core.MustNew(core.Config{Streams: 1})
	if err := im.Load(m, nil); err != nil {
		t.Fatal(err)
	}
	taskB, _ := im.Symbol("taskB")
	// Prime the executive state: task 0 current; task 1's TCB points
	// at taskB with a window region of its own (AWP 32).
	m.Internal().Write(0x20, 0)      // EXEC_CUR
	m.Internal().Write(0x20+9+6, 32) // TCB1 AWP
	m.Internal().Write(0x20+9+7, taskB)
	m.Internal().Write(0x3F, 0x300) // sequence pointer

	m.StartStream(0, 0)
	if _, idle := m.RunUntilIdle(40000); !idle {
		t.Fatal("executive did not terminate")
	}
	if m.Internal().Read(0x3C) != 1 || m.Internal().Read(0x3D) != 1 {
		t.Fatalf("done flags: A=%d B=%d", m.Internal().Read(0x3C), m.Internal().Read(0x3D))
	}
	// Strict alternation: 1,2,1,2,...
	for i := 0; i < 2*rounds; i++ {
		want := uint16(1 + i%2)
		if got := m.Internal().Read(uint16(0x300 + i)); got != want {
			t.Fatalf("sequence[%d] = %d, want %d (context switch corrupted state)", i, got, want)
		}
	}
	if m.Internal().Read(0x300+2*rounds) != 0 {
		t.Fatal("sequence overran")
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b []byte
	for v > 0 {
		b = append([]byte{byte('0' + v%10)}, b...)
		v /= 10
	}
	return string(b)
}
