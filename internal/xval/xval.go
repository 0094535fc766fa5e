// Package xval cross-validates the two independent implementations of
// DISC in this repository: the §4.1 stochastic sequencer model and the
// cycle-accurate machine. It generates real DISC1 programs whose
// instruction statistics match a workload parameter set — the same
// aljmp jump fraction, the same external-request spacing, the same
// memory/I-O latency mix — runs them on the machine, and compares the
// measured utilization against the model's PD for the same parameters.
//
// The two implementations are not expected to coincide exactly. The
// §4.1 model is deliberately conservative (the paper itself notes its
// simplifying flush assumption "makes DISC performance worse"), in
// three ways the machine does not share:
//
//   - jumps flush every same-stream instruction in the pipe (up to
//     pipe−1 slots); the machine's fetch shadow costs 2 slots that
//     other ready streams absorb;
//   - a request that finds the bus busy is flushed at pipe *exit* and
//     must traverse the whole pipe again after reactivation, leaving
//     pipe-length dead cycles between bus transactions under
//     contention; the machine re-fetches and re-posts from EX;
//   - the flushed work around every wait costs issue slots the model
//     never recovers.
//
// The machine therefore reads consistently *higher*, by ~0.1 PD at one
// stream and up to ~0.3 under four-way bus contention. What must hold
// — and what the tests check — is that the model is a sound lower
// bound, that both improve monotonically with partitioning, and that
// the relative gains agree in direction and rough magnitude. The
// paper's published numbers come from the model, so its tables are,
// per this cross-validation, *understating* DISC.
//
// Determinism contract: both sides of each comparison are seeded
// purely from the call's seed and stream count, so Sweep fans its
// configurations across internal/parallel workers without changing a
// single digit of any result.
package xval

import (
	"fmt"
	"strings"

	"disc/internal/asm"
	"disc/internal/bus"
	"disc/internal/core"
	"disc/internal/isa"
	"disc/internal/parallel"
	"disc/internal/rng"
	"disc/internal/stoch"
	"disc/internal/workload"
)

// Result compares one configuration.
type Result struct {
	Streams   int
	MachinePD float64
	ModelPD   float64
}

// Gap returns machine PD minus model PD.
func (r Result) Gap() float64 { return r.MachinePD - r.ModelPD }

// Sweep runs the comparison for each stream count in ks, fanning the
// independent configurations across GOMAXPROCS workers.
func Sweep(p workload.Params, ks []int, cycles uint64, seed uint64) ([]Result, error) {
	if p.MeanOff > 0 || p.MeanOn > 0 {
		return nil, fmt.Errorf("xval: only always-active loads are program-generatable")
	}
	// Validate up front so rejection never depends on scheduling.
	for _, k := range ks {
		if k < 1 || k > isa.NumStreams {
			return nil, fmt.Errorf("xval: %d streams outside the machine's 1..%d", k, isa.NumStreams)
		}
	}
	return parallel.Map(0, len(ks), func(i int) (Result, error) {
		k := ks[i]
		mpd, err := runMachine(p, k, cycles, seed)
		if err != nil {
			return Result{}, err
		}
		streams := make([]workload.Load, k)
		for si := range streams {
			streams[si] = workload.Simple(p)
		}
		res, err := stoch.Run(stoch.Config{Cycles: cycles, Seed: seed + uint64(k), Streams: streams})
		if err != nil {
			return Result{}, err
		}
		return Result{Streams: k, MachinePD: mpd, ModelPD: res.PD()}, nil
	})
}

// runMachine generates one program per stream and measures utilization.
func runMachine(p workload.Params, k int, cycles uint64, seed uint64) (float64, error) {
	m, err := NewLoadMachine(p, k, seed, core.Config{})
	if err != nil {
		return 0, err
	}
	m.Run(int(cycles))
	return m.Stats().Utilization(), nil
}

// DeviceSpan records one bus attachment of a load setup, in the shape
// static analysis wants: base, size and the device's wait states.
type DeviceSpan struct {
	Base uint16
	Size uint16
	Wait int
}

// LoadSetup is a ready-to-run load machine together with everything a
// static analyzer needs to reason about it: the assembled image and
// entry point per stream, and the bus device map. The differential
// validator in internal/core replays these images through
// analysis.Summarize and checks every dynamic event against the static
// block summaries.
type LoadSetup struct {
	Machine *core.Machine
	Images  []*asm.Image // one per stream, index = stream number
	Entries []uint16     // stream start addresses
	Devices []DeviceSpan // every attached bus device
}

// NewLoadMachine builds a ready-to-run machine driving k streams with
// generated programs whose instruction statistics match workload p —
// the same construction the cross-validation sweep uses. cfg supplies
// any extra machine configuration (Reference, CheckReadiness, window
// depth...); its Streams field is overridden with k. The result is
// deterministic in (p, k, seed), which is what lets the throughput
// benchmarks and the differential equivalence tests drive the optimized
// and reference pipelines with bit-identical inputs.
func NewLoadMachine(p workload.Params, k int, seed uint64, cfg core.Config) (*core.Machine, error) {
	setup, err := NewLoadSetup(p, k, seed, cfg)
	if err != nil {
		return nil, err
	}
	return setup.Machine, nil
}

// NewLoadSetup is NewLoadMachine plus the static-analysis view: it
// returns the per-stream images, entries and device spans alongside the
// machine. The RNG consumption order is identical to what
// NewLoadMachine has always done, so (p, k, seed) still pin every bit
// of the build.
func NewLoadSetup(p workload.Params, k int, seed uint64, cfg core.Config) (*LoadSetup, error) {
	cfg.Streams = k
	m, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	setup := &LoadSetup{Machine: m}
	// External memory with tmem waits, plus a bank of I/O devices whose
	// wait states approximate the Poisson(mean_io) distribution: the
	// generator picks a device per request with a sampled latency.
	if p.TMem > 0 || p.MeanIO > 0 {
		if err := m.Bus().Attach(isa.ExternalBase, 64, bus.NewRAM("mem", 64, p.TMem)); err != nil {
			return nil, err
		}
		setup.Devices = append(setup.Devices, DeviceSpan{Base: isa.ExternalBase, Size: 64, Wait: p.TMem})
	}
	src := rng.New(seed ^ 0xABCD)
	ioWaits := []int{}
	if p.MeanIO > 0 {
		for i := 0; i < 8; i++ {
			w := src.Poisson(p.MeanIO)
			if w < 1 {
				w = 1
			}
			ioWaits = append(ioWaits, w)
			dev := bus.NewGPIO(fmt.Sprintf("io%d", i), w)
			base := isa.IOBase + uint16(i)*8
			if err := m.Bus().Attach(base, 8, dev); err != nil {
				return nil, err
			}
			setup.Devices = append(setup.Devices, DeviceSpan{Base: base, Size: 8, Wait: w})
		}
	}
	for s := 0; s < k; s++ {
		base := uint16(s) * 0x1000
		text := generate(p, src.Fork(), base, ioWaits)
		im, err := asm.Assemble(text)
		if err != nil {
			return nil, fmt.Errorf("xval: generated program does not assemble: %w", err)
		}
		if err := im.Load(m, nil); err != nil {
			return nil, err
		}
		if err := m.StartStream(s, base); err != nil {
			return nil, err
		}
		setup.Images = append(setup.Images, im)
		setup.Entries = append(setup.Entries, base)
	}
	return setup, nil
}

// generate emits a long straight-line program at base whose
// per-instruction statistics match p, closed into a loop. Jumps are
// realised as taken branches to the next address (control transfer
// cost without changing the instruction mix); external requests
// alternate between memory and an I/O device per alpha.
func generate(p workload.Params, src *rng.Source, base uint16, ioWaits []int) string {
	const bodyLen = 2000
	var b strings.Builder
	fmt.Fprintf(&b, ".org %d\n", base)
	fmt.Fprintf(&b, "xv_%04x:\n", base)
	// R7 holds the external memory base, R6 scratch.
	fmt.Fprintf(&b, "    LI R7, %d\n", isa.ExternalBase)
	toReq := -1
	if p.MeanReq > 0 {
		toReq = sample(src, p.MeanReq)
	}
	for i := 0; i < bodyLen; i++ {
		if toReq == 0 {
			if src.Bool(p.Alpha) || len(ioWaits) == 0 {
				fmt.Fprintf(&b, "    LD R6, [R7+%d]\n", src.Intn(32))
			} else {
				d := src.Intn(len(ioWaits))
				fmt.Fprintf(&b, "    LI R5, %d\n", int(isa.IOBase)+d*8)
				fmt.Fprintf(&b, "    LD R6, [R5+%d]\n", src.Intn(8))
			}
			toReq = sample(src, p.MeanReq)
			continue
		}
		if toReq > 0 {
			toReq--
		}
		if src.Bool(p.AlJmp) {
			// A taken control transfer to the fall-through address.
			lbl := fmt.Sprintf("xvj_%04x_%d", base, i)
			fmt.Fprintf(&b, "    JMP %s\n%s:\n", lbl, lbl)
			continue
		}
		fmt.Fprintf(&b, "    ADDI R%d, 1\n", src.Intn(4))
	}
	fmt.Fprintf(&b, "    JMP xv_%04x\n", base)
	return b.String()
}

func sample(src *rng.Source, mean float64) int {
	v := src.Poisson(mean)
	if v < 1 {
		v = 1
	}
	return v
}
