package board

import (
	"testing"

	"disc/internal/bus"
	"disc/internal/core"
)

// TestRangesMatchAttach proves the analyzer's view is the attached
// board: every range maps one attached device of the same span, whose
// read costs the range's wait states.
func TestRangesMatchAttach(t *testing.T) {
	const ramWaits = 7
	m := core.MustNew(core.Config{Streams: 1})
	var wrapped []string
	if err := Attach(m, ramWaits, func(name string, d bus.Device) bus.Device {
		wrapped = append(wrapped, name)
		return d
	}); err != nil {
		t.Fatal(err)
	}
	if got, want := len(wrapped), len(Names()); got != want {
		t.Fatalf("wrap saw %d devices, board has %d", got, want)
	}
	maps := m.Bus().Mappings()
	ranges := Ranges(ramWaits)
	if len(maps) != len(ranges) {
		t.Fatalf("%d devices attached, %d analyzer ranges", len(maps), len(ranges))
	}
	byBase := map[uint16]bus.DeviceMapping{}
	for _, mp := range maps {
		byBase[mp.Base] = mp
	}
	for i, r := range ranges {
		mp, ok := byBase[r.Base]
		if !ok || mp.Size != r.Size {
			t.Fatalf("range %+v has no attached device of that span", r)
		}
		if mp.Dev.Name() != Names()[i] {
			t.Errorf("device at %#x is %q, want %q", r.Base, mp.Dev.Name(), Names()[i])
		}
		if c := mp.Dev.AccessCycles(0, false); c != r.Wait {
			t.Errorf("%s: read costs %d cycles, analyzer assumes wait %d", mp.Dev.Name(), c, r.Wait)
		}
	}
}
