// Package board defines the standard peripheral board: the devices
// discsim and discserve attach to a machine's bus, and the same spans as
// the static analyzer sees them. Both views derive from one table, so a
// snapshot taken under one tool restores under the other and the
// analyzer's wait states always match the attached devices.
package board

import (
	"disc/internal/analysis"
	"disc/internal/bus"
	"disc/internal/core"
	"disc/internal/isa"
)

// DefaultExtramWaits is the external RAM's default wait states.
const DefaultExtramWaits = 4

// device is one peripheral: its bus span, its access wait states and
// its constructor. A negative wait (extram's) stands for the board's
// ramWaits parameter.
type device struct {
	name       string
	base, size uint16
	wait       int
	build      func(name string, wait int, irq bus.IRQFunc) bus.Device
}

// devices is the board, in attach order.
var devices = []device{
	{"extram", isa.ExternalBase, 0x1000, -1, func(n string, w int, _ bus.IRQFunc) bus.Device {
		return bus.NewRAM(n, 0x1000, w)
	}},
	{"timer0", isa.IOBase + 0x00, 4, 2, func(n string, w int, irq bus.IRQFunc) bus.Device {
		return bus.NewTimer(n, w, irq, 0, 4)
	}},
	{"uart0", isa.IOBase + 0x10, 2, 6, func(n string, w int, _ bus.IRQFunc) bus.Device {
		return bus.NewUART(n, w)
	}},
	{"gpio0", isa.IOBase + 0x20, 8, 1, func(n string, w int, _ bus.IRQFunc) bus.Device {
		return bus.NewGPIO(n, w)
	}},
	{"adc0", isa.IOBase + 0x30, 4, 4, func(n string, w int, _ bus.IRQFunc) bus.Device {
		return bus.NewADC(n, w, 25, nil)
	}},
	{"step0", isa.IOBase + 0x40, 2, 3, func(n string, w int, _ bus.IRQFunc) bus.Device {
		return bus.NewStepper(n, w)
	}},
}

// waitOf returns d's wait states on a board whose RAM costs ramWaits.
func (d device) waitOf(ramWaits int) int {
	if d.wait < 0 {
		return ramWaits
	}
	return d.wait
}

// Names lists the board's device names in attach order.
func Names() []string {
	names := make([]string, len(devices))
	for i, d := range devices {
		names[i] = d.name
	}
	return names
}

// Attach attaches the board to m's bus, the timer raising its interrupt
// through m.RaiseIRQ. wrap, when non-nil, may replace each device before
// it is attached (discserve wraps devices in fault policies).
func Attach(m *core.Machine, ramWaits int, wrap func(name string, d bus.Device) bus.Device) error {
	for _, d := range devices {
		dev := d.build(d.name, d.waitOf(ramWaits), m.RaiseIRQ)
		if wrap != nil {
			dev = wrap(d.name, dev)
		}
		if err := m.Bus().Attach(d.base, d.size, dev); err != nil {
			return err
		}
	}
	return nil
}

// Ranges returns the board as the static analyzer sees it: every span a
// program can legally address externally, with its wait states.
func Ranges(ramWaits int) []analysis.BusRange {
	rs := make([]analysis.BusRange, len(devices))
	for i, d := range devices {
		rs[i] = analysis.BusRange{Base: d.base, Size: d.size, Wait: d.waitOf(ramWaits)}
	}
	return rs
}
