package fault

import (
	"errors"
	"fmt"
	"testing"

	"disc/internal/asm"
	"disc/internal/bus"
	"disc/internal/core"
	"disc/internal/isa"
	"disc/internal/rng"
)

// chaosProgram keeps all four streams busy with a mix of internal
// compute, external loads/stores and cross-stream signalling — enough
// surface for injected faults to land everywhere.
const chaosProgram = `
; stream 0: hammer the external device
    .org 0x000
s0:
    LI   R1, 0x400
l0:
    LD   R2, [R1+0]
    STM  R2, [0x10]
    ST   R2, [R1+1]
    JMP  l0

; stream 1: internal compute loop
    .org 0x040
s1:
    ADDI R0, 1
    ST   R0, [0x11]
    JMP  s1

; stream 2: signal stream 3 and spin
    .org 0x080
s2:
    SIGNAL 3, 1
    ADDI R0, 1
    JMP  s2

; stream 3: drain its signal bit
    .org 0x0C0
s3:
    WAITI 1
    ADDI R0, 1
    JMP  s3

; vectors for storm bits (vb 0x200): every stream, bits 1..3 -> RETI
    .org 0x201
    RETI
    .org 0x202
    RETI
    .org 0x203
    RETI
    .org 0x209
    RETI
    .org 0x20A
    RETI
    .org 0x20B
    RETI
    .org 0x211
    RETI
    .org 0x212
    RETI
    .org 0x213
    RETI
    .org 0x219
    RETI
    .org 0x21A
    RETI
    .org 0x21B
    RETI
`

var chaosImage = func() *asm.Image {
	im, err := asm.Assemble(chaosProgram)
	if err != nil {
		panic(err)
	}
	return im
}()

// runChaos builds a 4-stream machine, wraps its external RAM with a
// fault model derived from seed, arms a storm and a stream stall, and
// runs it guarded. It returns the run's outcome; the invariants —
// no panic, always an outcome (clean idle, deadlock diagnosis or cycle
// limit), never a silent hang — are what the caller asserts.
func runChaos(t *testing.T, seed uint64) (cycles int, err error, stats core.Stats) {
	t.Helper()
	src := rng.New(seed)

	m := core.MustNew(core.Config{Streams: 4, VectorBase: 0x200, TrapBusFaults: src.Bool(0.5)})
	if src.Bool(0.8) {
		m.Bus().SetTimeout(8 + src.Intn(64))
	}
	cfg := DeviceConfig{
		Seed:          rng.Child(seed, 1),
		ExtraWaitProb: src.Float64() * 0.5,
		ExtraWaitMax:  1 + src.Intn(12),
		BitFlipProb:   src.Float64() * 0.3,
		FaultProb:     src.Float64() * 0.3,
		StuckBusyProb: src.Float64() * 0.1,
		StuckBusyLen:  uint64(src.Intn(400)),
	}
	if src.Bool(0.5) {
		from := uint64(src.Intn(5000))
		cfg.Dead = append(cfg.Dead, Window{From: from, To: from + uint64(src.Intn(8000))})
	}
	d := Wrap(bus.NewRAM("ext", 32, 1+src.Intn(6)), cfg)
	if err := m.Bus().Attach(isa.ExternalBase, 32, d); err != nil {
		t.Fatal(err)
	}
	if err := chaosImage.Load(m, nil); err != nil {
		t.Fatal(err)
	}
	starts := []uint16{0x000, 0x040, 0x080, 0x0C0}
	for i, pc := range starts {
		m.StartStream(i, pc)
	}

	injectors := []Injector{
		NewStorm(StormConfig{
			Seed:    rng.Child(seed, 2),
			MeanGap: 20 + float64(src.Intn(200)),
			Streams: []int{0, 1, 2, 3},
			Bits:    []uint8{1, 2, 3},
			Burst:   1 + src.Intn(3),
		}),
		StreamStall{Stream: src.Intn(4), At: uint64(src.Intn(4000)), For: uint64(src.Intn(4000))},
	}
	n, rerr := RunGuarded(m, 20_000, 2_000, injectors...)
	return n, rerr, m.Stats()
}

// TestChaosSeeds pins a deterministic seed table so `go test` and
// `go test -race` always exercise the chaos harness even when the
// fuzzing engine is not invoked.
func TestChaosSeeds(t *testing.T) {
	for seed := uint64(0); seed < 24; seed++ {
		n, err, stats := runChaos(t, seed)
		if n <= 0 || n > 20_000 {
			t.Fatalf("seed %d: implausible cycle count %d", seed, n)
		}
		if err != nil {
			var dl *core.DeadlockError
			var cl *core.CycleLimitError
			if !errors.As(err, &dl) && !errors.As(err, &cl) {
				t.Fatalf("seed %d: unclassified outcome %v", seed, err)
			}
		}
		if stats.Cycles == 0 {
			t.Fatalf("seed %d: machine never stepped", seed)
		}
	}
}

// TestChaosReplaysIdentically is the package's determinism contract:
// the same seed yields the same outcome and the same statistics.
func TestChaosReplaysIdentically(t *testing.T) {
	for seed := uint64(0); seed < 6; seed++ {
		n1, e1, s1 := runChaos(t, seed)
		n2, e2, s2 := runChaos(t, seed)
		if n1 != n2 {
			t.Fatalf("seed %d: cycles %d vs %d", seed, n1, n2)
		}
		if (e1 == nil) != (e2 == nil) || (e1 != nil && e1.Error() != e2.Error()) {
			t.Fatalf("seed %d: outcome %v vs %v", seed, e1, e2)
		}
		if f1, f2 := fmt.Sprintf("%+v", s1), fmt.Sprintf("%+v", s2); f1 != f2 {
			t.Fatalf("seed %d: stats diverged\n%s\n%s", seed, f1, f2)
		}
	}
}

// FuzzChaos lets the fuzzing engine search for fault schedules that
// panic or hang the simulator. The harness itself bounds every run, so
// "the function returned" is the property under test.
func FuzzChaos(f *testing.F) {
	for seed := uint64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		n, err, _ := runChaos(t, seed)
		if n <= 0 || n > 20_000 {
			t.Fatalf("implausible cycle count %d", n)
		}
		if err != nil {
			var dl *core.DeadlockError
			var cl *core.CycleLimitError
			if !errors.As(err, &dl) && !errors.As(err, &cl) {
				t.Fatalf("unclassified outcome: %v", err)
			}
		}
	})
}
