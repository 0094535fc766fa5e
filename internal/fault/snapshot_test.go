package fault

// Checkpoint/restore under chaos: a snapshot taken in the middle of a
// fault storm — fault-wrapped device mid-schedule, storm mid-burst,
// streams parked on injected stalls — must restore into freshly built
// twins that continue byte-identically. The fault wrapper rides inside
// the machine snapshot (it implements the device-state contract and
// nests its inner device), while the storm's schedule position is
// carried alongside via StormState, mirroring how a checkpointing
// harness would treat machine state vs injector state.

import (
	"fmt"
	"reflect"
	"testing"

	"disc/internal/bus"
	"disc/internal/core"
	"disc/internal/isa"
	"disc/internal/rng"
)

// chaosFixture is one deterministic chaos scenario: machine, wrapped
// device and storm, all derived from seed exactly like runChaos builds
// them so the fault surface stays representative.
func chaosFixture(t *testing.T, seed uint64) (*core.Machine, *Storm) {
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
	from := uint64(2000 + src.Intn(3000))
	cfg.Dead = append(cfg.Dead, Window{From: from, To: from + uint64(src.Intn(4000))})
	d := Wrap(bus.NewRAM("ext", 32, 1+src.Intn(6)), cfg)
	if err := m.Bus().Attach(isa.ExternalBase, 32, d); err != nil {
		t.Fatal(err)
	}
	if err := chaosImage.Load(m, nil); err != nil {
		t.Fatal(err)
	}
	for i, pc := range []uint16{0x000, 0x040, 0x080, 0x0C0} {
		if err := m.StartStream(i, pc); err != nil {
			t.Fatal(err)
		}
	}
	storm := NewStorm(StormConfig{
		Seed:    rng.Child(seed, 2),
		MeanGap: 20 + float64(src.Intn(200)),
		Streams: []int{0, 1, 2, 3},
		Bits:    []uint8{1, 2, 3},
		Burst:   1 + src.Intn(3),
	})
	return m, storm
}

// TestSnapshotMidChaos runs the storm for a while, checkpoints machine
// + storm, and proves the restored twins replay the remaining fault
// schedule bit-for-bit.
func TestSnapshotMidChaos(t *testing.T) {
	for seed := uint64(0); seed < 6; seed++ {
		a, stormA := chaosFixture(t, seed)
		Run(a, 4000, stormA) // snapshot lands inside the device's dead window
		mid, err := a.Snapshot()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		stormMid := stormA.State()
		Run(a, 3000, stormA)
		want, err := a.Snapshot()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}

		b, stormB := chaosFixture(t, seed)
		if err := b.Restore(mid); err != nil {
			t.Fatalf("seed %d: restore under chaos: %v", seed, err)
		}
		stormB.SetState(stormMid)
		Run(b, 3000, stormB)
		got, err := b.Snapshot()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("seed %d: chaos run diverged after restore", seed)
		}
		if sa, sb := stormA.State(), stormB.State(); sa != sb {
			t.Fatalf("seed %d: storm schedule diverged: %+v vs %+v", seed, sa, sb)
		}
		if fa, fb := fmt.Sprintf("%+v", a.Stats()), fmt.Sprintf("%+v", b.Stats()); fa != fb {
			t.Fatalf("seed %d: statistics diverged\n%s\n%s", seed, fa, fb)
		}
	}
}

// TestFaultDeviceStateRoundTrip pins the wrapper's own codec: marshal,
// unmarshal into a twin, and require identical behavior and stats —
// including the nested inner-RAM contents.
func TestFaultDeviceStateRoundTrip(t *testing.T) {
	cfg := DeviceConfig{
		Seed:          7,
		ExtraWaitProb: 0.4, ExtraWaitMax: 6,
		BitFlipProb: 0.2, FaultProb: 0.1,
		StuckBusyProb: 0.05, StuckBusyLen: 50,
	}
	a := Wrap(bus.NewRAM("ext", 16, 2), cfg)
	// Exercise the wrapper so RNG position, cycle clock and stats move.
	for i := uint16(0); i < 200; i++ {
		a.Tick()
		a.AccessCycles(i%16, i%3 == 0)
		if i%2 == 0 {
			a.Write(i%16, i*3)
		} else {
			a.Read(i % 16)
		}
	}
	blob, err := a.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	b := Wrap(bus.NewRAM("ext", 16, 2), cfg)
	if err := b.UnmarshalState(blob); err != nil {
		t.Fatal(err)
	}
	if a.Stats != b.Stats {
		t.Fatalf("stats diverged: %+v vs %+v", a.Stats, b.Stats)
	}
	// Same RNG position → same injected behavior from here on.
	for i := uint16(0); i < 100; i++ {
		a.Tick()
		b.Tick()
		if wa, wb := a.AccessCycles(i%16, false), b.AccessCycles(i%16, false); wa != wb {
			t.Fatalf("access %d: wait states diverged (%d vs %d)", i, wa, wb)
		}
		if ra, rb := a.Read(i%16), b.Read(i%16); ra != rb {
			t.Fatalf("access %d: read data diverged (%#x vs %#x)", i, ra, rb)
		}
	}
}

// TestFaultDeviceStateRejectsGarbage: the wrapper's restore path is a
// trust boundary like every other — truncation, wrong inner length and
// capability mismatches error out, never panic.
func TestFaultDeviceStateRejectsGarbage(t *testing.T) {
	d := Wrap(bus.NewRAM("ext", 16, 2), DeviceConfig{Seed: 1})
	blob, err := d.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(blob); n++ {
		if err := d.UnmarshalState(blob[:n]); err == nil {
			t.Fatalf("accepted a %d-byte truncation of a %d-byte state", n, len(blob))
		}
	}
	// An inner-state blob for a stateless inner device must be refused.
	stateless := Wrap(stubDevice{}, DeviceConfig{Seed: 1})
	if err := stateless.UnmarshalState(blob); err == nil {
		t.Fatal("accepted inner-device state for a stateless device")
	}
}

// stubDevice is a minimal stateless bus device.
type stubDevice struct{}

func (stubDevice) Name() string                  { return "stub" }
func (stubDevice) AccessCycles(uint16, bool) int { return 1 }
func (stubDevice) Read(uint16) uint16            { return 0 }
func (stubDevice) Write(uint16, uint16)          {}
