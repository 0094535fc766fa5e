// Command experiments regenerates every table and figure of the
// paper's evaluation section, plus the extension experiments indexed in
// DESIGN.md §3. Output is plain text in the paper's table style; the
// recorded results live in EXPERIMENTS.md.
//
// Stochastic tables are replicated (-reps) and fanned across worker
// goroutines (-par) by the internal/parallel sweep engine; every run
// draws an rng.Child seed from its run index, so the output is
// byte-identical for every -par value. A progress/ETA line is drawn on
// stderr when it is a terminal (force with -progress).
//
// The replicated tables (4.2, 4.3) are resumable campaigns: with
// -journal dir every completed cell is appended to an on-disk journal,
// and a run killed at any point — kill -9 included — picks up with
// -journal dir -resume, re-running only the missing cells. Replayed
// and recomputed cells are indistinguishable, so the resumed tables
// are byte-identical to an uninterrupted run's.
//
// Usage:
//
//	experiments [-cycles n] [-seed n] [-reps n] [-par n] [-only 4.2|3.3|latency|...]
//	            [-journal dir [-resume]]
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"time"

	"disc/internal/analysis"
	"disc/internal/asm"
	"disc/internal/asmlib"
	"disc/internal/baseline"
	"disc/internal/blockc"
	"disc/internal/bus"
	"disc/internal/core"
	"disc/internal/isa"
	"disc/internal/obs"
	"disc/internal/parallel"
	"disc/internal/prof"
	"disc/internal/report"
	"disc/internal/rt"
	"disc/internal/stoch"
	"disc/internal/study"
	"disc/internal/tables"
	"disc/internal/trace"
	"disc/internal/workload"
	"disc/internal/xval"
)

var (
	cycles   = flag.Uint64("cycles", stoch.DefaultCycles, "simulated cycles per stochastic run")
	seed     = flag.Uint64("seed", 1991, "RNG seed")
	reps     = flag.Int("reps", 5, "independent replications per stochastic table cell (mean ± 95% CI)")
	par      = flag.Int("par", 0, "sweep worker goroutines; 0 = GOMAXPROCS (results never depend on -par)")
	progress = flag.Bool("progress", false, "force the progress/ETA line even when stderr is not a terminal")
	only     = flag.String("only", "", "run a single experiment (see -help for the list)")

	journalDir = flag.String("journal", "", "record sweep completions under this directory so a killed run can resume (-resume)")
	resumeRun  = flag.Bool("resume", false, "with -journal: replay completed cells from the journals instead of starting fresh")

	cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile = flag.String("memprofile", "", "write an allocation profile to this file on exit")

	traceOut = flag.String("trace-out", "", "write the cycle-accurate figure experiments (3.1-3.3) as Chrome trace-event JSON; the experiment tag is inserted before the extension when several run")
	traceBuf = flag.Int("trace-buf", obs.DefaultCapacity, "flight-recorder ring capacity in events")
	metrics  = flag.Bool("metrics", false, "print the per-stream metrics registry after each instrumented experiment")
)

// instrument attaches a flight recorder to a figure experiment's
// machine when -trace-out or -metrics ask for one, and returns the
// finisher that writes the trace / prints the registry. A no-op (and
// zero machine overhead) when observability is off.
func instrument(m *core.Machine, tag string) func() {
	if *traceOut == "" && !*metrics {
		return func() {}
	}
	rec := obs.NewRecorder(*traceBuf)
	var met *obs.Metrics
	if *metrics {
		met = rec.EnableMetrics(m.Streams())
	}
	m.SetRecorder(rec)
	return func() {
		if met != nil {
			fmt.Print(met.Render())
		}
		if *traceOut == "" {
			return
		}
		name := *traceOut
		if *only == "" {
			// A full run writes several traces: tag each file.
			ext := filepath.Ext(name)
			name = strings.TrimSuffix(name, ext) + "-" + tag + ext
		}
		f, err := os.Create(name)
		if err != nil {
			fatal(err)
		}
		if err := obs.WriteChromeTrace(f, rec.Events()); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "experiments: wrote %s (%d of %d events retained)\n",
			name, len(rec.Events()), rec.Total())
	}
}

// stopProfiles flushes any active -cpuprofile/-memprofile output; main
// installs the real flusher, and every exit path (including fatal,
// since os.Exit skips defers) calls it.
var stopProfiles = func() {}

// experiments is the dispatch table, in report order. The names are
// the contract of -only.
var experiments = []struct {
	name string
	run  func()
}{
	{"4.1", table41},
	{"4.2", func() { table42(tableOpts("Table 4.2")) }},
	{"4.3", func() { table43(tableOpts("Table 4.3")) }},
	{"3.1", figure31},
	{"3.2", figure32},
	{"3.3", figure33},
	{"3.4", figure34},
	{"latency", extraLatency},
	{"degradation", extraDegradation},
	{"deadlines", extraDeadlines},
	{"streams", extraStreamSweep},
	{"stackdepth", extraStackDepth},
	{"latencyload", extraLatencyUnderLoad},
	{"softswitch", extraSoftSwitch},
	{"xval", extraXval},
	{"fixedwin", extraFixedWindows},
	{"polling", extraPolling},
	{"isolation", extraIsolation},
	{"block", extraBlockSpeedup},
	{"gating", extraBlockGating},
}

func experimentNames() []string {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.name
	}
	return names
}

// meter returns a progress callback for long sweeps, or nil when
// stderr is not a terminal (progress lines carry wall-clock state and
// must never leak into deterministic output).
func meter(label string) func(done, total int) {
	if !*progress {
		st, err := os.Stderr.Stat()
		if err != nil || st.Mode()&os.ModeCharDevice == 0 {
			return nil
		}
	}
	return parallel.NewMeter(os.Stderr, label)
}

func tableOpts(label string) tables.Opts {
	return tables.Opts{
		Cycles: *cycles, Seed: *seed,
		Reps: *reps, Par: *par,
		Progress:   meter(label),
		JournalDir: *journalDir,
	}
}

// prepareJournalDir creates the campaign directory; a fresh (non
// -resume) run clears any journals a previous campaign left behind so
// stale completions cannot leak into its tables. With -resume the
// journals are kept and replayed — the campaign keys inside them still
// guard against resuming under changed parameters.
func prepareJournalDir(dir string, resume bool) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if resume {
		return nil
	}
	old, err := filepath.Glob(filepath.Join(dir, "*.journal"))
	if err != nil {
		return err
	}
	for _, p := range old {
		if err := os.Remove(p); err != nil {
			return err
		}
	}
	return nil
}

func main() {
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: experiments [flags]\nexperiments (-only): %s\n\n",
			strings.Join(experimentNames(), " "))
		flag.PrintDefaults()
	}
	flag.Parse()
	if *resumeRun && *journalDir == "" {
		fatal(errors.New("-resume needs -journal"))
	}
	if *journalDir != "" {
		if err := prepareJournalDir(*journalDir, *resumeRun); err != nil {
			fatal(err)
		}
	}
	stop, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		fatal(err)
	}
	stopProfiles = stop
	if *only != "" {
		for _, e := range experiments {
			if e.name == *only {
				e.run()
				stopProfiles()
				return
			}
		}
		fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q\nvalid names: %s\n",
			*only, strings.Join(experimentNames(), " "))
		stopProfiles()
		os.Exit(2)
	}
	for _, e := range experiments {
		e.run()
	}
	stopProfiles()
}

// extraPolling quantifies §1's "alleviate overhead due to polling":
// the same periodic event serviced by a polling loop versus a vectored
// interrupt into a parked stream, with a background stream measuring
// what is left of the machine.
func extraPolling() {
	fmt.Println("Extension - polling vs interrupt-driven service of a periodic")
	fmt.Println("event (period 400 cycles), with a background compute stream.")
	run := func(useIRQ bool) (uint16, uint64, uint64) {
		m := core.MustNew(core.Config{Streams: 2, VectorBase: 0x200})
		tm := bus.NewTimer("evt", 2, m.RaiseIRQ, 0, 4)
		if err := m.Bus().Attach(isa.IOBase, 4, tm); err != nil {
			fatal(err)
		}
		var src string
		if useIRQ {
			src = `
.org 0
    LI  R1, 0xF000
    LI  R0, 400
    ST  R0, [R1+0]
    ST  R0, [R1+1]
    LDI R0, 3
    ST  R0, [R1+2]
    HALT
.org 0x204
    JMP h
.org 0x280
h:  LDM R2, [0x10]
    ADDI R2, 1
    STM R2, [0x10]
    RETI
`
		} else {
			src = `
.org 0
    LI  R1, 0xF000
    LI  R0, 400
    ST  R0, [R1+0]
    ST  R0, [R1+1]
    LDI R0, 1
    ST  R0, [R1+2]
poll:
    LD  R0, [R1+3]
    CMPI R0, 0
    BEQ  poll
    ST  R0, [R1+3]
    LDM R2, [0x10]
    ADDI R2, 1
    STM R2, [0x10]
    JMP  poll
`
		}
		bg := ""
		for i := 0; i < 24; i++ {
			bg += fmt.Sprintf("    ADDI R%d, 1\n", i%6)
		}
		src += ".org 0x100\nbg:\n" + bg + "    JMP bg\n"
		im, err := asm.Assemble(src)
		if err != nil {
			fatal(err)
		}
		for _, sec := range im.Sections {
			m.LoadProgram(sec.Base, sec.Words)
		}
		m.StartStream(0, 0)
		m.StartStream(1, 0x100)
		const window = 60000
		m.Run(window)
		st := m.Stats()
		return m.Internal().Read(0x10), st.PerStream[1].Retired, st.PerStream[0].Issued
	}
	evP, bgP, svcP := run(false)
	evI, bgI, svcI := run(true)
	rows := [][]string{
		{"polling loop", fmt.Sprint(evP), fmt.Sprint(svcP), fmt.Sprint(bgP), report.F(float64(bgP)/60000, 3)},
		{"vectored interrupt", fmt.Sprint(evI), fmt.Sprint(svcI), fmt.Sprint(bgI), report.F(float64(bgI)/60000, 3)},
	}
	fmt.Println(report.Table("",
		[]string{"organization", "events", "service-stream issues", "background retired", "bg share"}, rows))
}

// extraBlockSpeedup measures what the block-compiled execution engine
// (internal/blockc + core fused sessions, DESIGN.md §13) buys in
// simulator throughput: wall-clock cycles/second on the reference,
// optimized and block-engine pipelines over identical generated Table
// 4.1 programs at one stream — the sole-ready configuration where
// sessions can fire. Every replication re-verifies bit-identical
// machine statistics between the optimized and block runs before its
// timing counts.
func extraBlockSpeedup() {
	fmt.Println("Extension - block-compiled execution: simulator throughput on")
	fmt.Println("the reference, optimized and block-engine pipelines, identical")
	fmt.Println("generated programs per load, 1 stream. Cycle-exactness is")
	fmt.Println("re-verified every replication. Wall-clock measurements run")
	fmt.Println("serially (never fanned across workers) and depend on the host;")
	fmt.Println("the recorded numbers name theirs in EXPERIMENTS.md.")
	n := int(*cycles)
	build := func(p workload.Params, cfg core.Config, rep int, attach bool) *core.Machine {
		setup, err := xval.NewLoadSetup(p, 1, *seed+uint64(rep), cfg)
		if err != nil {
			fatal(err)
		}
		if attach {
			opts := analysis.Options{Entries: []uint16{setup.Entries[0]}, Streams: 1}
			for _, d := range setup.Devices {
				opts.BusRanges = append(opts.BusRanges, analysis.BusRange{Base: d.Base, Size: d.Size, Wait: d.Wait})
			}
			blockc.Attach(setup.Machine, setup.Images[0], opts)
		}
		return setup.Machine
	}
	const windows = 4
	n = n / windows * windows
	rows := [][]string{}
	for _, p := range workload.Base() {
		p.MeanOn, p.MeanOff = 0, 0
		var refR, optR, blkR []float64
		var share, stS, brS, chS float64
		for rep := 0; rep < *reps; rep++ {
			// Build and warm all three machines before timing anything:
			// an engine timed straight after its alloc-heavy build (worse
			// for the block machine, whose attach runs analysis+compile)
			// records a fake loss from GC and scheduler aftermath. Timing
			// in short rotated windows makes the engines sample the same
			// host phases (see DESIGN.md §13 for the measured failure
			// modes).
			ref := build(p, core.Config{Reference: true}, rep, false)
			opt := build(p, core.Config{}, rep, false)
			blk := build(p, core.Config{}, rep, true)
			ms := []*core.Machine{ref, opt, blk}
			for _, m := range ms {
				m.Run(64)
			}
			runtime.GC()
			times := make([]time.Duration, len(ms))
			for w := 0; w < windows; w++ {
				for i := range ms {
					j := (w + i) % len(ms)
					start := time.Now()
					ms[j].Run(n / windows)
					times[j] += time.Since(start)
				}
			}
			refR = append(refR, float64(n)/times[0].Seconds()/1e6)
			optR = append(optR, float64(n)/times[1].Seconds()/1e6)
			blkR = append(blkR, float64(n)/times[2].Seconds()/1e6)
			if !reflect.DeepEqual(opt.Stats(), blk.Stats()) {
				fatal(fmt.Errorf("block engine diverged from optimized pipeline on %s rep %d", p.Name, rep))
			}
			bs := blk.BlockStats()
			share = float64(bs.FusedCycles) / float64(n+64)
			if bs.FusedCycles > 0 {
				stS = float64(bs.StraightCycles) / float64(bs.FusedCycles)
				brS = float64(bs.BranchCycles) / float64(bs.FusedCycles)
				chS = float64(bs.ChainCycles) / float64(bs.FusedCycles)
			}
		}
		ref, opt, blk := report.Summarize(refR), report.Summarize(optR), report.Summarize(blkR)
		rows = append(rows, []string{
			p.Name, ref.FCI(2), opt.FCI(2), blk.FCI(2),
			report.F(blk.Mean/opt.Mean, 2) + "x", report.F(share, 2),
			report.F(stS, 2) + "/" + report.F(brS, 2) + "/" + report.F(chS, 2),
		})
	}
	fmt.Println(report.Table("",
		[]string{"load", "reference Mcyc/s", "optimized Mcyc/s", "block Mcyc/s", "block/optimized", "fused share", "st/br/ch"}, rows))
}

// extraBlockGating measures the block engine's never-lose promise: on
// loads whose sessions are chronically short (external accesses every
// few instructions) the adaptive gate demotes unprofitable regions and
// the dispatch seam batch-skips its entry predicate, so the block
// engine must track the optimized pipeline within noise on every load
// while keeping the full speedup where fusion pays. The gate-off
// column isolates the gate's own contribution from the skip batching,
// which applies either way.
//
// Measurement discipline (see DESIGN.md §13 for the measured failure
// modes): all three machines per replication are built and
// warmed before anything is timed — timing an engine straight after
// its alloc-heavy analysis+compile pass records a fake loss from GC
// and scheduler aftermath — and the engines are timed in short
// rotated windows so they sample the same host phases.
func extraBlockGating() {
	fmt.Println("Extension - adaptive session gating: block-engine throughput with")
	fmt.Println("the per-region demotion gate on vs off, identical generated Table")
	fmt.Println("4.1 programs, 1 stream. Cycle-exactness is re-verified every")
	fmt.Println("replication (the gate changes dispatch policy, never architecture).")
	fmt.Println("Wall-clock measurements run serially; recorded numbers name their")
	fmt.Println("host in EXPERIMENTS.md.")
	const windows = 4
	n := int(*cycles) / windows * windows
	build := func(p workload.Params, rep int, gate bool) *core.Machine {
		setup, err := xval.NewLoadSetup(p, 1, *seed+uint64(rep), core.Config{})
		if err != nil {
			fatal(err)
		}
		opts := analysis.Options{Entries: []uint16{setup.Entries[0]}, Streams: 1}
		for _, d := range setup.Devices {
			opts.BusRanges = append(opts.BusRanges, analysis.BusRange{Base: d.Base, Size: d.Size, Wait: d.Wait})
		}
		blockc.Attach(setup.Machine, setup.Images[0], opts)
		setup.Machine.SetBlockGate(gate)
		return setup.Machine
	}
	rows := [][]string{}
	for _, p := range workload.Base() {
		p.MeanOn, p.MeanOff = 0, 0
		var optR, onR, offR []float64
		var demotes, promotes uint64
		for rep := 0; rep < *reps; rep++ {
			setup, err := xval.NewLoadSetup(p, 1, *seed+uint64(rep), core.Config{})
			if err != nil {
				fatal(err)
			}
			opt := setup.Machine
			gated := build(p, rep, true)
			ungated := build(p, rep, false)
			ms := []*core.Machine{opt, gated, ungated}
			for _, m := range ms {
				m.Run(64)
			}
			runtime.GC()
			times := make([]time.Duration, len(ms))
			for w := 0; w < windows; w++ {
				for i := range ms {
					j := (w + i) % len(ms) // rotate timing order per window
					start := time.Now()
					ms[j].Run(n / windows)
					times[j] += time.Since(start)
				}
			}
			for i, d := range times {
				r := float64(n) / d.Seconds() / 1e6
				switch i {
				case 0:
					optR = append(optR, r)
				case 1:
					onR = append(onR, r)
				case 2:
					offR = append(offR, r)
				}
			}
			if !reflect.DeepEqual(opt.Stats(), gated.Stats()) || !reflect.DeepEqual(opt.Stats(), ungated.Stats()) {
				fatal(fmt.Errorf("gated block engine diverged from optimized pipeline on %s rep %d", p.Name, rep))
			}
			bs := gated.BlockStats()
			demotes += bs.Demotes
			promotes += bs.Promotes
		}
		opt, on, off := report.Summarize(optR), report.Summarize(onR), report.Summarize(offR)
		rows = append(rows, []string{
			p.Name, opt.FCI(2), on.FCI(2), off.FCI(2),
			report.F(on.Mean/opt.Mean, 2) + "x", report.F(off.Mean/opt.Mean, 2) + "x",
			fmt.Sprintf("%d/%d", demotes, promotes),
		})
	}
	fmt.Println(report.Table("",
		[]string{"load", "optimized Mcyc/s", "gated Mcyc/s", "ungated Mcyc/s", "gated/opt", "ungated/opt", "dem/prom"}, rows))
}

// extraXval cross-validates the stochastic model against the
// cycle-accurate machine on statistically matched generated programs.
func extraXval() {
	fmt.Println("Cross-validation - the paper's stochastic model vs the")
	fmt.Println("cycle-accurate machine on generated programs with matched")
	fmt.Println("statistics (load 1). The model is a conservative lower bound;")
	fmt.Println("the published tables understate DISC by the gap shown.")
	res, err := xval.Sweep(workload.Ld1, []int{1, 2, 3, 4}, 100000, *seed)
	if err != nil {
		fatal(err)
	}
	rows := [][]string{}
	for _, r := range res {
		rows = append(rows, []string{
			fmt.Sprint(r.Streams), report.F(r.MachinePD, 3), report.F(r.ModelPD, 3),
			report.F(r.Gap(), 3),
		})
	}
	fmt.Println(report.Table("", []string{"streams", "machine PD", "model PD", "gap"}, rows))
}

// extraFixedWindows measures §2's motivation for the variable-size
// stack window against RISC-I-style fixed windows.
func extraFixedWindows() {
	fmt.Println("§2 - variable stack windows vs fixed RISC-I-style windows:")
	fmt.Println("spill/fill traffic of the same call/interrupt walk when every")
	fmt.Println("call consumes a full window instead of its actual frame.")
	p := study.DefaultStackParams()
	p.Instrs = *cycles
	rows, err := study.FixedVsVariable(p, []int{32, 48, 64, 128})
	if err != nil {
		fatal(err)
	}
	out := [][]string{}
	for _, r := range rows {
		out = append(out, []string{
			fmt.Sprint(r.Depth), report.F(r.VariableTraffic, 2),
			report.F(r.FixedTraffic, 2), report.F(r.Ratio, 1) + "x",
		})
	}
	fmt.Println(report.Table("", []string{"depth", "variable traffic", "fixed traffic", "fixed/variable"}, out))
}

// extraSoftSwitch quantifies §3.1's "all overhead for context switching
// is removed": two tasks that interleave per work quantum, implemented
// (a) inside one stream through a software executive (save/restore of
// registers, window and PC per switch), and (b) as two hardware
// streams. Identical work, measured cycles.
func extraSoftSwitch() {
	fmt.Println("Extension - software vs hardware task switching: two tasks,")
	fmt.Println("one increment per turn, strictly interleaved.")
	const rounds = 200

	taskPair := func(marker int, done string, tail string) string {
		return `
    LDI R0, ` + fmt.Sprint(rounds) + `
LBL_loop:
    LDM R1, [CNT` + fmt.Sprint(marker) + `]
    ADDI R1, 1
    STM R1, [CNT` + fmt.Sprint(marker) + `]
    CALL yield
    SUBI R0, 1
    BNE LBL_loop
    LDI R0, 1
    STM R0, [` + done + `]
` + tail
	}

	softSrc := asmlib.ExecEquates(0x20) + `
.equ CNT0, 0x38
.equ CNT1, 0x39
.equ ADONE, 0x3A
.equ BDONE, 0x3B
.org 0
taskA:` + strings.ReplaceAll(taskPair(0, "ADONE", `a_spin:
    CALL yield
    JMP a_spin
`), "LBL", "a") + `
taskB:` + strings.ReplaceAll(taskPair(1, "BDONE", "    HALT\n"), "LBL", "b") + `
.org 0x180
` + asmlib.Executive

	soft := core.MustNew(core.Config{Streams: 1})
	im, err := asm.Assemble(softSrc)
	if err != nil {
		fatal(err)
	}
	for _, sec := range im.Sections {
		soft.LoadProgram(sec.Base, sec.Words)
	}
	taskB, _ := im.Symbol("taskB")
	soft.Internal().Write(0x20+9+6, 32) // TCB1 AWP
	soft.Internal().Write(0x20+9+7, taskB)
	soft.StartStream(0, 0)
	softCycles, idle := soft.RunUntilIdle(1_000_000)
	if !idle {
		fatal(fmt.Errorf("softswitch: executive did not terminate"))
	}

	hardSrc := `
.equ CNT0, 0x30
.equ CNT1, 0x31
.org 0
ha: LDM R1, [CNT0]
    ADDI R1, 1
    STM R1, [CNT0]
    SUBI R0, 1
    CMPI R0, -` + fmt.Sprint(rounds) + `
    BNE  ha
    HALT
.org 0x100
hb: LDM R1, [CNT1]
    ADDI R1, 1
    STM R1, [CNT1]
    SUBI R0, 1
    CMPI R0, -` + fmt.Sprint(rounds) + `
    BNE  hb
    HALT
`
	hard := core.MustNew(core.Config{Streams: 2})
	im2, err := asm.Assemble(hardSrc)
	if err != nil {
		fatal(err)
	}
	for _, sec := range im2.Sections {
		hard.LoadProgram(sec.Base, sec.Words)
	}
	hard.StartStream(0, 0)
	hard.StartStream(1, 0x100)
	hardCycles, idle := hard.RunUntilIdle(1_000_000)
	if !idle {
		fatal(fmt.Errorf("softswitch: hardware run did not terminate"))
	}

	perSwitch := float64(softCycles-hardCycles) / float64(2*rounds)
	rows := [][]string{
		{"software executive (1 stream)", fmt.Sprint(softCycles)},
		{"hardware streams (2 streams)", fmt.Sprint(hardCycles)},
		{"switch overhead (cycles/switch)", report.F(perSwitch, 1)},
	}
	fmt.Println(report.Table("", []string{"configuration", "cycles"}, rows))
}

func extraStreamSweep() {
	fmt.Println("Future work (§5) - optimum number of instruction streams:")
	fmt.Println("load 1 partitioned across 1..8 ISs; the knee is where the")
	fmt.Println("marginal gain collapses (the shared bus saturates).")
	points, knee, err := study.StreamSweep(study.SweepConfig{
		Load: workload.Simple(workload.Ld1), MaxStreams: 8,
		Cycles: *cycles, Seed: *seed, PipeLen: 4, Threshold: 0.02,
		Reps: *reps, Par: *par, Progress: meter("stream sweep"),
	})
	if err != nil {
		fatal(err)
	}
	rows := [][]string{}
	for _, p := range points {
		rows = append(rows, []string{
			fmt.Sprint(p.Streams), report.F(p.PD, 3), report.F(p.CI, 3), report.F(p.Marginal, 3),
		})
	}
	fmt.Println(report.Table("", []string{"streams", "PD", "±95% CI", "marginal gain"}, rows))
	fmt.Printf("knee (marginal < 0.02): %d streams\n\n", knee)
}

func extraStackDepth() {
	fmt.Println("Future work (§5) - stack window depth, evaluated by stochastic")
	fmt.Println("means: spill/fill traffic of an RTS call/interrupt mix versus")
	fmt.Println("the physical register count per stream.")
	p := study.DefaultStackParams()
	p.Instrs = *cycles
	res, err := study.StackDepth(p, []int{16, 24, 32, 48, 64, 128})
	if err != nil {
		fatal(err)
	}
	rows := [][]string{}
	for _, r := range res {
		rows = append(rows, []string{
			fmt.Sprint(r.Depth), fmt.Sprint(r.Spills), fmt.Sprint(r.Fills),
			fmt.Sprint(r.MaxLive), report.F(r.FaultPer1k, 2), report.F(r.TrafficPct, 2),
		})
	}
	fmt.Println(report.Table("",
		[]string{"depth", "spills", "fills", "max live", "faults/1k instr", "traffic cycles/100 instr"}, rows))
}

func extraLatencyUnderLoad() {
	fmt.Println("Future work (§5) - interrupt latency measures: dispatch latency")
	fmt.Println("of a dedicated stream while 0..3 other streams saturate the")
	fmt.Println("machine, under even and prioritised partitions.")
	rows, err := study.LatencyUnderLoad([]int{0, 1, 2, 3}, 100, nil)
	if err != nil {
		fatal(err)
	}
	prio, err := study.LatencyUnderLoad([]int{3}, 100, [][]int{{1, 1, 1, 5}})
	if err != nil {
		fatal(err)
	}
	rows = append(rows, prio...)
	out := [][]string{}
	for _, r := range rows {
		out = append(out, []string{
			fmt.Sprint(r.BusyStreams), r.Shares,
			fmt.Sprint(r.Min), report.F(r.Mean, 1), fmt.Sprint(r.Max),
		})
	}
	fmt.Println(report.Table("", []string{"busy streams", "partition", "min", "mean", "max"}, out))
	fmt.Printf("conventional controller baseline: %d cycles\n\n", rt.ConventionalLatency(4, 12, 4))
}

func table41() {
	rows := tables.Table41()
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = append([]string{r.Param}, r.Values...)
	}
	fmt.Println(report.Table("Table 4.1 - Parameter Set for Typical Programs (reconstructed)",
		append([]string{"param"}, tables.Table41Columns...), out))
}

// repNote annotates replicated tables so readers know what ± means.
func repNote(title string, n int) string {
	if n < 2 {
		return title
	}
	return fmt.Sprintf("%s (mean ±95%% CI, %d replications)", title, n)
}

func table42(opts tables.Opts) {
	rows, err := tables.Table42(opts)
	if err != nil {
		fatal(err)
	}
	hdr := []string{"", "1 IS", "2 ISs", "3 ISs", "4 ISs"}
	var a, b [][]string
	for _, r := range rows {
		ra := []string{r.Load}
		rb := []string{r.Load}
		for k := 0; k < tables.MaxStreams; k++ {
			ra = append(ra, r.PDStat[k].FCI(3))
			rb = append(rb, r.DeltaStat[k].PctCI())
		}
		a = append(a, ra)
		b = append(b, rb)
	}
	fmt.Println(report.Table(repNote("Table 4.2a - Processor Utilization PD (by degree of partitioning)", opts.Reps), hdr, a))
	fmt.Println(report.Table(repNote("Table 4.2b - Delta vs standard processor", opts.Reps), hdr, b))
}

func table43(opts tables.Opts) {
	rows, err := tables.Table43(opts)
	if err != nil {
		fatal(err)
	}
	hdr := append([]string{"loads"}, tables.Table43Configs...)
	var a, b [][]string
	for _, r := range rows {
		ra := []string{r.Pair}
		rb := []string{r.Pair}
		for c := 0; c < 4; c++ {
			ra = append(ra, r.PDStat[c].FCI(3))
			rb = append(rb, r.DeltaStat[c].PctCI())
		}
		a = append(a, ra)
		b = append(b, rb)
	}
	fmt.Println(report.Table(repNote("Table 4.3a - Processor Utilization PD (load 1 with load X)", opts.Reps), hdr, a))
	fmt.Println(report.Table(repNote("Table 4.3b - Delta vs standard processor", opts.Reps), hdr, b))
}

const fourLoops = `
.org 0x000
a: ADDI R0, 1
   ADDI R1, 1
   ADDI R2, 1
   ADDI R3, 1
   ADDI R4, 1
   JMP a
.org 0x100
b: ADDI R0, 1
   ADDI R1, 1
   ADDI R2, 1
   ADDI R3, 1
   ADDI R4, 1
   JMP b
.org 0x200
c: ADDI R0, 1
   ADDI R1, 1
   ADDI R2, 1
   ADDI R3, 1
   ADDI R4, 1
   JMP c
.org 0x300
d: ADDI R0, 1
   ADDI R1, 1
   ADDI R2, 1
   ADDI R3, 1
   ADDI R4, 1
   JMP d
`

func fourStreamMachine() *core.Machine {
	m := core.MustNew(core.Config{Streams: 4})
	im, err := asm.Assemble(fourLoops)
	if err != nil {
		fatal(err)
	}
	for _, sec := range im.Sections {
		if err := m.LoadProgram(sec.Base, sec.Words); err != nil {
			fatal(err)
		}
	}
	for i, base := range []uint16{0, 0x100, 0x200, 0x300} {
		m.StartStream(i, base)
	}
	return m
}

func figure31() {
	fmt.Println("Figure 3.1 - Interleaved Pipeline (4 streams on DISC1's 4-stage pipe;")
	fmt.Println("the paper draws the generic 5-stage case). Cells are <instr><stream>.")
	m := fourStreamMachine()
	finish := instrument(m, "fig31")
	m.Run(8)
	fmt.Println(trace.Record(m, 14).RenderPipeline())
	finish()
}

func figure32() {
	fmt.Println("Figure 3.2 - Interleaved Pipeline During a Jump: while a stream's")
	fmt.Println("jump resolves, no other instruction of that stream is in the pipe;")
	fmt.Println("the other streams absorb its slots.")
	m := fourStreamMachine()
	finish := instrument(m, "fig32")
	m.Run(8)
	rec := trace.Record(m, 26)
	fmt.Println(rec.RenderPipeline())
	for s := 0; s < 4; s++ {
		if !rec.OnlyStreamInPipe(s, 0, len(rec.Records)) {
			fmt.Println("WARNING: stream", s, "had multiple in-flight instructions during a jump")
		}
	}
	finish()
}

func figure33() {
	fmt.Println("Figure 3.3 - Dynamic Instruction Stream Diagram: static partition")
	fmt.Println("T/2, T/6, T/6, T/6; IS2..IS4 run finite tasks (SUB-RET analogue),")
	fmt.Println("so their throughput dynamically reverts to IS1. Cells are tenths")
	fmt.Println("of machine throughput per interval; 'T' = the whole machine.")
	m := core.MustNew(core.Config{Streams: 4, Shares: []int{3, 1, 1, 1}})
	finish := instrument(m, "fig33")
	src := fourLoops + `
.org 0x400
fin1: LDI R0, 40
f1:   SUBI R0, 1
      BNE f1
      HALT
.org 0x500
fin2: LDI R0, 90
f2:   SUBI R0, 1
      BNE f2
      HALT
.org 0x600
fin3: LDI R0, 140
f3:   SUBI R0, 1
      BNE f3
      HALT
`
	im, err := asm.Assemble(src)
	if err != nil {
		fatal(err)
	}
	for _, sec := range im.Sections {
		m.LoadProgram(sec.Base, sec.Words)
	}
	m.StartStream(0, 0)
	m.StartStream(1, 0x400)
	m.StartStream(2, 0x500)
	m.StartStream(3, 0x600)
	series := trace.ThroughputSeries(m, 16, 100)
	fmt.Println(trace.RenderThroughput(series))
	finish()
}

func figure34() {
	fmt.Println("Figures 3.4/3.5 - Stack Window movement: a CALL pushes the return")
	fmt.Println("address into a fresh R0; callee allocations shift the visible")
	fmt.Println("window; RET n walks back and lands on the caller's frame.")
	m := core.MustNew(core.Config{Streams: 1})
	src := `
    LDI  R0, 0x11   ; caller frame
    LDI  R1, 0x22
    CALL fn
    HALT
fn: NOP+            ; allocate a local above the return address
    LDI  R0, 0x33
    RET  1
`
	im, err := asm.Assemble(src)
	if err != nil {
		fatal(err)
	}
	for _, sec := range im.Sections {
		m.LoadProgram(sec.Base, sec.Words)
	}
	m.StartStream(0, 0)
	// Print the window every time AWP moves — the Figure 3.5 movements.
	prev := m.WindowFile(0).AWP()
	show := func(tag string) {
		w := m.Window(0)
		fmt.Printf("cycle %3d %-28s AWP=%2d  R0..R3 = %04x %04x %04x %04x\n",
			m.Cycle(), tag, m.WindowFile(0).AWP(), w[0], w[1], w[2], w[3])
	}
	show("reset")
	for i := 0; i < 200 && !m.Idle(); i++ {
		m.Step()
		if awp := m.WindowFile(0).AWP(); awp != prev {
			dir := "window moved up (inc)"
			if awp < prev {
				dir = "window moved down (dec)"
			}
			show(dir)
			prev = awp
		}
	}
	show("final (caller frame intact)")
	fmt.Println()
}

func extraLatency() {
	fmt.Println("Extension E11 - Interrupt dispatch latency (cycles)")
	src := `
.org 0
bg: ADDI R0, 1
    ADDI R1, 1
    JMP bg
.org 0x20B
    RETI
`
	m := core.MustNew(core.Config{Streams: 2, VectorBase: 0x200})
	im, err := asm.Assemble(src)
	if err != nil {
		fatal(err)
	}
	for _, sec := range im.Sections {
		m.LoadProgram(sec.Base, sec.Words)
	}
	m.StartStream(0, 0)
	m.Run(20)
	samples, _, err := rt.MeasureDispatchLatency(m, 1, 3, 200, 100)
	if err != nil {
		fatal(err)
	}
	conv := rt.ConventionalLatency(4, 12, 4)
	rows := [][]string{
		{"DISC dedicated stream (min)", fmt.Sprint(samples.Min())},
		{"DISC dedicated stream (mean)", report.F(samples.Mean(), 1)},
		{"DISC dedicated stream (p99)", fmt.Sprint(samples.Percentile(0.99))},
		{"DISC dedicated stream (max)", fmt.Sprint(samples.Max())},
		{"conventional (drain+save 12 regs+refill)", fmt.Sprint(conv)},
	}
	fmt.Println(report.Table("", []string{"configuration", "latency"}, rows))
	fmt.Println("distribution (cycles):")
	fmt.Println(samples.Histogram(4))
}

func extraDegradation() {
	fmt.Println("Extension E12 - Where DISC loses (§5): a single active stream on")
	fmt.Println("low-hazard code. DISC's conservative flush makes delta <= 0; the")
	fmt.Println("penalty grows as external requests appear.")
	rows := [][]string{}
	for _, meanReq := range []float64{0, 40, 20, 10, 5} {
		p := workload.Params{Name: "sweep", MeanReq: meanReq, Alpha: 1, TMem: 6, AlJmp: 0.05}
		res, err := stoch.Run(stoch.Config{
			Cycles:  *cycles,
			Seed:    *seed,
			Streams: []workload.Load{workload.Simple(p)},
		})
		if err != nil {
			fatal(err)
		}
		base, err := baseline.Run(workload.Simple(p), 4, *cycles, *seed)
		if err != nil {
			fatal(err)
		}
		label := "none"
		if meanReq > 0 {
			label = fmt.Sprintf("every %.0f instrs", meanReq)
		}
		rows = append(rows, []string{
			label, report.F(res.PD(), 3), report.F(base.Ps(), 3),
			report.Pct(stoch.Delta(res.PD(), base.Ps())),
		})
	}
	fmt.Println(report.Table("", []string{"external requests", "PD (1 IS)", "Ps", "delta"}, rows))
}

func extraDeadlines() {
	fmt.Println("Extension - Hard deadlines with dedicated streams: two periodic")
	fmt.Println("tasks plus a saturating background; partitioned throughput keeps")
	fmt.Println("every deadline.")
	src := `
.org 0
bg:  ADDI R0, 1
     JMP bg
.org 0x20B
     JMP fast
.org 0x214
     JMP slow
.org 0x300
fast:
     LDM  R3, [0x10]
     ADDI R3, 1
     STM  R3, [0x10]
     RETI
.org 0x320
slow:
     LDI  R4, 60
sl:  SUBI R4, 1
     BNE  sl
     LDM  R3, [0x11]
     ADDI R3, 1
     STM  R3, [0x11]
     RETI
`
	m := core.MustNew(core.Config{Streams: 3, VectorBase: 0x200})
	im, err := asm.Assemble(src)
	if err != nil {
		fatal(err)
	}
	for _, sec := range im.Sections {
		m.LoadProgram(sec.Base, sec.Words)
	}
	m.StartStream(0, 0)
	tasks := []rt.PeriodicTask{
		{Name: "fast", Stream: 1, Bit: 3, Period: 200, Deadline: 80, AckAddr: 0x10},
		{Name: "slow", Stream: 2, Bit: 4, Period: 1500, Deadline: 1200, AckAddr: 0x11},
	}
	res, err := rt.RunDeadlines(m, tasks, 60000)
	if err != nil {
		fatal(err)
	}
	rows := [][]string{}
	for _, r := range res {
		rows = append(rows, []string{
			r.Name, fmt.Sprint(r.Activations), fmt.Sprint(r.Completions),
			fmt.Sprint(r.Misses), fmt.Sprint(r.MaxResponse),
		})
	}
	fmt.Println(report.Table("", []string{"task", "activations", "completions", "misses", "max response"}, rows))
}

// extraIsolation reproduces the §4 isolation claim under injected
// faults: stream 0's external device goes hard-dead mid-run while
// streams 1..3 compute; the victims' throughput share must not drop.
func extraIsolation() {
	fmt.Println("Extension E24 - real-time isolation under faults: IS0 hammers an")
	fmt.Println("external device that goes hard-dead for 10k cycles (ABI bounded-wait")
	fmt.Println("timeouts convert the hangs into bus faults); IS1..IS3 run compute")
	fmt.Println("loops. Victim shares must not drop - they inherit IS0's dead slots.")
	res, err := study.FaultIsolation(study.FaultIsolationConfig{
		Seed: *seed, Reps: *reps, Par: *par,
		Progress: meter("isolation"),
	})
	if err != nil {
		fatal(err)
	}
	fmt.Println(res.Render())
	fmt.Printf("IS0 bus faults per faulted run: %s (timeouts on the dead window)\n\n",
		res.BusFaults.FCI(1))
}

func fatal(err error) {
	stopProfiles()
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}

// keep strings import used even if formats change
var _ = strings.TrimSpace
