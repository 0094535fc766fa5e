// Package board defines the standard machine: the peripheral board
// discsim and discserve attach to a machine's bus, the same spans as the
// static analyzer sees them, and the one way a machine is built on it
// (Spec). Both views derive from one device table, so a snapshot taken
// under one tool restores under the other and the analyzer's wait states
// always match the attached devices.
package board

import (
	"disc/internal/analysis"
	"disc/internal/bus"
	"disc/internal/core"
	"disc/internal/isa"
)

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

// Spec is one machine on the standard board: discsim builds its machine
// from flags into a Spec, discserve keeps one per session, and a snapshot
// restores into the machine of the Spec it was taken on (see Resume).
type Spec struct {
	Config     core.Config
	BusTimeout int // ABI bounded-wait budget in cycles, 0 = wait forever
	RAMWaits   int // the external RAM's wait states
	// Wrap, when non-nil, may replace each device before it is attached
	// (discserve wraps devices in fault policies).
	Wrap func(name string, d bus.Device) bus.Device
}

// Default is the machine the tools assume when not told otherwise: four
// streams, the interrupt vector table at 0x0200, external RAM at four
// wait states and no bus timeout.
func Default() Spec {
	return Spec{Config: core.Config{Streams: 4, VectorBase: 0x0200}, RAMWaits: 4}
}

// Resume returns s with the machine geometry of sn: its configuration
// and bus timeout. The board itself (RAMWaits, Wrap) stays s's and must
// be the one sn was taken against.
func (s Spec) Resume(sn *core.Snapshot) Spec {
	s.Config, s.BusTimeout = sn.Cfg, sn.BusTimeout
	return s
}

// New builds the machine s describes, with the board attached and no
// program loaded.
func (s Spec) New() (*core.Machine, error) {
	m, err := core.New(s.Config)
	if err != nil {
		return nil, err
	}
	m.Bus().SetTimeout(s.BusTimeout)
	if err := attach(m, s.RAMWaits, s.Wrap); err != nil {
		return nil, err
	}
	return m, nil
}

// Analysis is the static analyzer's view of the machine s builds: the
// options discsim's -lint gate and every block engine on the board
// (discsim -block-engine, discserve's block_engine) analyze a program
// with.
func (s Spec) Analysis() analysis.Options {
	return analysis.Options{
		VectorBase: s.Config.VectorBase,
		Streams:    s.Config.Streams,
		BusTimeout: s.BusTimeout,
		BusRanges:  Ranges(s.RAMWaits),
	}
}

// attach attaches the board to m's bus, the timer raising its interrupt
// through m.RaiseIRQ, each device passed through wrap when it is set.
func attach(m *core.Machine, ramWaits int, wrap func(name string, d bus.Device) bus.Device) error {
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
