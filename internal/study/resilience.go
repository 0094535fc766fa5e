package study

import (
	"fmt"

	"disc/internal/asm"
	"disc/internal/bus"
	"disc/internal/core"
	"disc/internal/fault"
	"disc/internal/isa"
	"disc/internal/parallel"
	"disc/internal/report"
	"disc/internal/rng"
)

// FaultIsolation reproduces the paper's real-time isolation claim under
// injected faults: stream 0 hammers an external device whose address
// window goes hard-dead for a long period mid-run, while streams 1..3
// run independent compute loops. If the interleaved pipeline isolates
// streams the way §4 claims, the victims' throughput share must not
// drop while stream 0's device is dead — stream 0's unused slots are
// dynamically reallocated, so the victims should in fact speed up.
//
// Determinism: each replication derives its seed with rng.Child from
// the root seed and its run index, and both machine runs inside a
// replication (fault-free baseline, faulted) are pure functions of that
// seed. The fan-out across worker goroutines cannot change any value.

// FaultIsolationConfig parameterizes the study. Zero values select the
// defaults shown on each field.
type FaultIsolationConfig struct {
	Cycles   int    // machine cycles per run (default 30000)
	Seed     uint64 // root seed
	DeadFrom uint64 // dead window start, in cycles (default 2000)
	DeadFor  uint64 // dead window length (default 10000)
	Timeout  int    // ABI bounded-wait budget (default 32)
	Reps     int    // replications (default 5)
	Par      int    // worker goroutines; 0 = GOMAXPROCS
	Progress func(done, total int)
}

func (c *FaultIsolationConfig) defaults() {
	if c.Cycles <= 0 {
		c.Cycles = 30_000
	}
	if c.DeadFrom == 0 {
		c.DeadFrom = 2_000
	}
	if c.DeadFor == 0 {
		c.DeadFor = 10_000
	}
	if c.Timeout <= 0 {
		c.Timeout = 32
	}
	if c.Reps < 1 {
		c.Reps = 5
	}
}

// IsolationRow is one stream's outcome across the replications.
type IsolationRow struct {
	Stream   int
	Role     string      // "faulty" (stream 0) or "victim"
	Baseline report.Stat // throughput share (retired/cycle), fault-free
	Faulted  report.Stat // throughput share with the dead window
	Ratio    float64     // Faulted.Mean / Baseline.Mean
	WorstGap report.Stat // max cycles between retires, faulted run
}

// IsolationResult is the study outcome.
type IsolationResult struct {
	Rows      []IsolationRow
	BusFaults report.Stat // stream 0 faulted-run bus errors per rep
	Cfg       FaultIsolationConfig
}

// isolationProgram: stream 0 hammers the external device; streams 1..3
// are self-contained compute loops that never touch the bus.
const isolationProgram = `
    .org 0x000
s0: LI   R1, 0x400
h0: LD   R2, [R1+0]
    ADDI R3, 1
    JMP  h0

    .org 0x040
s1: ADDI R0, 1
    ADDI R1, 1
    ADDI R2, 1
    JMP  s1

    .org 0x080
s2: ADDI R0, 1
    ADDI R1, 1
    ADDI R2, 1
    JMP  s2

    .org 0x0C0
s3: ADDI R0, 1
    ADDI R1, 1
    ADDI R2, 1
    JMP  s3
`

var isolationStarts = map[int]string{0: "s0", 1: "s1", 2: "s2", 3: "s3"}

// isolationRun executes one machine run and reports per-stream
// throughput shares, worst retire gaps and stream 0's bus fault count.
// The device gets mild seeded flakiness (extra wait states) in both the
// baseline and the faulted run, so replications differ and the CIs mean
// something; dead=true adds the killing window on top.
func isolationRun(cfg FaultIsolationConfig, seed uint64, dead bool) (share, gap [isa.NumStreams]float64, faults float64, err error) {
	m, err := core.New(core.Config{Streams: isa.NumStreams})
	if err != nil {
		return share, gap, 0, err
	}
	m.Bus().SetTimeout(cfg.Timeout)
	dcfg := fault.DeviceConfig{
		Seed:          rng.Child(seed, 0xD),
		ExtraWaitProb: 0.2,
		ExtraWaitMax:  4,
	}
	if dead {
		dcfg.Dead = []fault.Window{{From: cfg.DeadFrom, To: cfg.DeadFrom + cfg.DeadFor}}
	}
	dev := fault.Wrap(bus.NewRAM("ext", 32, 3), dcfg)
	if err := m.Bus().Attach(isa.ExternalBase, 32, dev); err != nil {
		return share, gap, 0, err
	}
	im, err := asm.Assemble(isolationProgram)
	if err != nil {
		return share, gap, 0, err
	}
	if err := im.Load(m, isolationStarts); err != nil {
		return share, gap, 0, err
	}

	var lastRetire, worst [isa.NumStreams]uint64
	var prev [isa.NumStreams]uint64
	for c := 0; c < cfg.Cycles; c++ {
		m.Step()
		for i := 0; i < isa.NumStreams; i++ {
			if r := m.Retired(i); r != prev[i] {
				if g := m.Cycle() - lastRetire[i]; g > worst[i] {
					worst[i] = g
				}
				lastRetire[i] = m.Cycle()
				prev[i] = r
			}
		}
	}
	st := m.Stats()
	for i := 0; i < isa.NumStreams; i++ {
		share[i] = float64(st.PerStream[i].Retired) / float64(cfg.Cycles)
		gap[i] = float64(worst[i])
	}
	return share, gap, float64(st.PerStream[0].BusFaults), nil
}

// FaultIsolation runs the study: Reps paired (baseline, faulted) runs,
// fanned across Par workers, summarized per stream.
func FaultIsolation(cfg FaultIsolationConfig) (IsolationResult, error) {
	cfg.defaults()
	type rep struct {
		base, fault [isa.NumStreams]float64
		gap         [isa.NumStreams]float64
		faults      float64
	}
	runs, err := parallel.MapProgress(cfg.Par, cfg.Reps, func(j int) (rep, error) {
		seed := rng.Child(cfg.Seed, uint64(j))
		var r rep
		var err error
		if r.base, _, _, err = isolationRun(cfg, seed, false); err != nil {
			return r, err
		}
		if r.fault, r.gap, r.faults, err = isolationRun(cfg, seed, true); err != nil {
			return r, err
		}
		return r, nil
	}, cfg.Progress)
	if err != nil {
		return IsolationResult{}, err
	}

	res := IsolationResult{Cfg: cfg}
	var faultCounts []float64
	for _, r := range runs {
		faultCounts = append(faultCounts, r.faults)
	}
	res.BusFaults = report.Summarize(faultCounts)
	for i := 0; i < isa.NumStreams; i++ {
		var b, f, g []float64
		for _, r := range runs {
			b = append(b, r.base[i])
			f = append(f, r.fault[i])
			g = append(g, r.gap[i])
		}
		row := IsolationRow{
			Stream:   i,
			Role:     "victim",
			Baseline: report.Summarize(b),
			Faulted:  report.Summarize(f),
			WorstGap: report.Summarize(g),
		}
		if i == 0 {
			row.Role = "faulty"
		}
		if row.Baseline.Mean > 0 {
			row.Ratio = row.Faulted.Mean / row.Baseline.Mean
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render formats the study as the EXPERIMENTS.md table.
func (r IsolationResult) Render() string {
	rows := [][]string{}
	for _, row := range r.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("IS%d", row.Stream), row.Role,
			row.Baseline.FCI(3), row.Faulted.FCI(3),
			report.F(row.Ratio, 2) + "x",
			row.WorstGap.FCI(0),
		})
	}
	return report.Table(
		fmt.Sprintf("Isolation under faults - IS0's device dead for %d cycles (of %d), ABI timeout %d",
			r.Cfg.DeadFor, r.Cfg.Cycles, r.Cfg.Timeout),
		[]string{"stream", "role", "fault-free share", "faulted share", "ratio", "worst retire gap"},
		rows)
}
