package board

import (
	"strings"
	"testing"

	"disc/internal/analysis"
	"disc/internal/asm"
	"disc/internal/bus"
	"disc/internal/core"
)

// TestRangesMatchAttach proves the analyzer's view is the attached
// board: every range maps one attached device of the same span, whose
// read costs the range's wait states.
func TestRangesMatchAttach(t *testing.T) {
	const ramWaits = 7
	var wrapped []string
	m, err := Spec{Config: core.Config{Streams: 1}, RAMWaits: ramWaits, Wrap: func(name string, d bus.Device) bus.Device {
		wrapped = append(wrapped, name)
		return d
	}}.New()
	if err != nil {
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

// TestAnalysisFlagsUnmapped proves the analyzer's view of the default
// machine carries the board map: an external load no device answers is
// an error finding, so the -lint gate refuses it, while a load from the
// external RAM is not.
func TestAnalysisFlagsUnmapped(t *testing.T) {
	for _, tc := range []struct {
		addr     string
		unmapped bool
	}{{"0x2000", true}, {"0x0400", false}} {
		im, err := asm.Assemble("main:\n    LI R7, " + tc.addr + "\n    LD R6, [R7+0]\n    HALT\n")
		if err != nil {
			t.Fatal(err)
		}
		opts := Default().Analysis()
		opts.Streams = 1
		found := false
		for _, f := range analysis.Analyze(im, opts).Findings {
			if f.Severity == analysis.Error && strings.Contains(f.Msg, "provably unmapped") {
				found = true
			}
		}
		if found != tc.unmapped {
			t.Errorf("LD from %s: provably-unmapped finding %v, want %v", tc.addr, found, tc.unmapped)
		}
		if err := analysis.Gate(opts)(im); (err != nil) != tc.unmapped {
			t.Errorf("LD from %s: -lint gate verdict %v, want refusal %v", tc.addr, err, tc.unmapped)
		}
	}
}

// TestSpecResume proves a Spec builds the machine it describes and that
// Resume takes the geometry from a snapshot while keeping the board.
func TestSpecResume(t *testing.T) {
	spec := Spec{Config: core.Config{Streams: 2, VectorBase: 0x0300}, BusTimeout: 40, RAMWaits: 7}
	m, err := spec.New()
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Bus().Timeout(); got != 40 {
		t.Fatalf("bus timeout %d, want 40", got)
	}
	sn, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	got := Default().Resume(sn)
	if got.Config.Streams != 2 || got.Config.VectorBase != 0x0300 || got.BusTimeout != 40 || got.RAMWaits != Default().RAMWaits {
		t.Fatalf("Resume gave %+v", got)
	}
	twin, err := spec.Resume(sn).New()
	if err != nil {
		t.Fatal(err)
	}
	if err := twin.Restore(sn); err != nil {
		t.Fatalf("restore into the resumed spec's machine: %v", err)
	}
}
