// Command discsim runs DISC1 programs on the cycle-accurate machine
// simulator.
//
// Usage:
//
//	discsim [flags] program.s|program.hex
//
//	-streams n        number of instruction streams (default 4)
//	-start spec       comma list of stream=label-or-addr, e.g. "0=main,1=0x100"
//	-cycles n         run for exactly n cycles (default: run until idle)
//	-max-cycles n     hard cycle budget for until-idle runs; a program
//	                  still running when it expires is an error, exit
//	                  status 3 (default 2e6, 0 = unlimited)
//	-stall-window n   deadlock watchdog: diagnose a run as wedged after
//	                  n progress-free cycles (default 50000, 0 = off)
//	-bus-timeout n    ABI bounded-wait budget in cycles; an access still
//	                  incomplete after n cycles completes as a bus fault
//	                  (default 0 = wait forever, the paper's protocol)
//	-trap-busfault    raise IR bit 5 on the issuing stream when its
//	                  external access fails, instead of silently
//	                  completing with 0xFFFF
//	-shares spec      scheduler partition weights, e.g. "3,1,1,1"
//	-vb addr          interrupt vector base (default 0x0200)
//	-extram waits     attach external RAM at 0x0400 with given wait states (default 4)
//	-trace n          after warm-up, print an n-cycle pipeline trace
//	-trace-out file   record the run in the flight recorder and write it
//	                  as Chrome trace-event JSON (load in ui.perfetto.dev)
//	-trace-buf n      flight-recorder ring capacity in events, rounded up
//	                  to a power of two (default 65536)
//	-metrics          print the per-stream metrics registry (event
//	                  counters, bus-latency and dispatch-gap histograms)
//	-dump a:b         dump internal memory [a,b) after the run
//	-break label      stop when any stream reaches the label/address
//	-watch addr       stop when the internal-memory address is written
//	-vcd file         with -trace: write the trace as a VCD waveform
//	-profile n        list the n hottest instructions after the run
//	-lint             refuse programs with error-severity findings from
//	                  the internal/analysis static checks, run against
//	                  the machine and board the program will run on
//	-block-engine     pre-compile statically event-free instruction runs
//	                  — including fate-proven branches and bridged gaps
//	                  — into fused block sessions (cycle-exact, DESIGN.md
//	                  §13) and report fusion coverage after the run,
//	                  broken down by region form (straight-line,
//	                  branch-fused, chained) with adaptive-gate activity
//	-checkpoint-out f write a crash-atomic machine snapshot (DESIGN.md
//	                  §14) to f when the run ends — including when it
//	                  ends badly (deadlock diagnosis, cycle budget)
//	-checkpoint-every n
//	                  with -checkpoint-out: also snapshot every n cycles
//	                  during the run, so a killed process loses at most
//	                  n cycles of work
//	-resume f         restore the machine from snapshot f and continue;
//	                  the machine geometry (-streams, -shares, -vb,
//	                  -trap-busfault, -bus-timeout) comes from the
//	                  snapshot and -start is ignored. Board flags
//	                  (-extram) must match the original run.
//	-cpuprofile file  write a CPU profile of the run (go tool pprof)
//	-memprofile file  write an allocation profile on exit
//
// A standard peripheral board is always attached: timer @0xF000 (IRQ
// stream 0 bit 4), UART @0xF010, GPIO @0xF020, ADC @0xF030 (no IRQ
// wired; bit 5 is reserved for -trap-busfault), stepper @0xF040.
//
// SIGINT/SIGTERM during a run is handled at the next dispatch
// boundary: with -checkpoint-out a final crash-atomic snapshot is
// written first, -trace-out/-metrics sinks are flushed either way, and
// the process exits with the conventional 130/143 status. A second
// signal kills it immediately.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"

	"disc/internal/analysis"
	"disc/internal/asm"
	"disc/internal/blockc"
	"disc/internal/board"
	"disc/internal/core"
	"disc/internal/isa"
	"disc/internal/obs"
	"disc/internal/prof"
	"disc/internal/snap"
	"disc/internal/trace"
)

func main() {
	def := board.Default()
	streams := flag.Int("streams", def.Config.Streams, "number of instruction streams")
	start := flag.String("start", "0=0", "stream=label-or-address list")
	cycles := flag.Int("cycles", 0, "cycles to run (0: until idle, bounded by -max-cycles)")
	maxCycles := flag.Int("max-cycles", 2_000_000, "hard cycle budget for until-idle runs (0: unlimited)")
	stallWindow := flag.Uint64("stall-window", 50_000, "deadlock watchdog window in progress-free cycles (0: off)")
	busTimeout := flag.Int("bus-timeout", 0, "ABI bounded-wait budget in cycles (0: wait forever)")
	trapBusFault := flag.Bool("trap-busfault", false, "raise IR bit 5 on the issuing stream when an external access fails")
	shares := flag.String("shares", "", "scheduler partition weights, e.g. 3,1,1,1")
	vb := flag.Uint("vb", uint(def.Config.VectorBase), "interrupt vector base")
	extram := flag.Int("extram", def.RAMWaits, "external RAM wait states")
	traceN := flag.Int("trace", 0, "render an n-cycle pipeline trace")
	traceOut := flag.String("trace-out", "", "write the run as Chrome trace-event JSON (Perfetto) to this file")
	traceBuf := flag.Int("trace-buf", obs.DefaultCapacity, "flight-recorder ring capacity in events")
	metrics := flag.Bool("metrics", false, "print the per-stream metrics registry after the run")
	dump := flag.String("dump", "", "dump internal memory range a:b after run")
	breakAt := flag.String("break", "", "stop at a label or address (any stream)")
	vcd := flag.String("vcd", "", "with -trace: also write the trace as a VCD waveform to this file")
	profileN := flag.Int("profile", 0, "after the run, list the n hottest instructions")
	watch := flag.String("watch", "", "stop when this internal-memory address is written")
	lint := flag.Bool("lint", false, "refuse programs with error-severity analysis findings")
	blockEngine := flag.Bool("block-engine", false, "pre-compile event-free instruction runs into fused block sessions")
	checkpointOut := flag.String("checkpoint-out", "", "write a machine snapshot here when the run ends (even on failure)")
	checkpointEvery := flag.Int("checkpoint-every", 0, "with -checkpoint-out: also snapshot every n cycles (0: only at exit)")
	resume := flag.String("resume", "", "restore the machine from this snapshot and continue the run")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile to this file on exit")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: discsim [flags] program.s|program.hex")
		flag.PrintDefaults()
		os.Exit(2)
	}
	if *checkpointEvery != 0 && *checkpointOut == "" {
		fatal(errors.New("-checkpoint-every needs -checkpoint-out"))
	}
	// Every later exit goes through fatal or the ends of main below, so
	// the profiles are flushed even though os.Exit skips defers.
	stop, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		fatal(err)
	}
	stopProfiles = stop

	// A resumed run takes its machine geometry from the snapshot, not
	// the flags: everything below (the lint gate, metrics sizing, block
	// compilation) must see the restored configuration.
	spec := board.Spec{
		Config:     core.Config{Streams: *streams, VectorBase: uint16(*vb), TrapBusFaults: *trapBusFault},
		BusTimeout: *busTimeout,
		RAMWaits:   *extram,
	}
	var resumed *core.Snapshot
	starts := map[int]string{}
	if *resume != "" {
		if resumed, err = snap.Load(*resume); err != nil {
			fatal(err)
		}
		spec = spec.Resume(resumed)
	} else {
		if *shares != "" {
			for _, f := range strings.Split(*shares, ",") {
				v, err := strconv.Atoi(strings.TrimSpace(f))
				if err != nil {
					fatal(fmt.Errorf("bad share %q", f))
				}
				spec.Config.Shares = append(spec.Config.Shares, v)
			}
		}
		for _, ent := range strings.Split(*start, ",") {
			parts := strings.SplitN(strings.TrimSpace(ent), "=", 2)
			if len(parts) != 2 {
				fatal(fmt.Errorf("bad -start entry %q", ent))
			}
			sid, err := strconv.Atoi(parts[0])
			if err != nil {
				fatal(fmt.Errorf("bad stream in %q", ent))
			}
			starts[sid] = parts[1]
		}
	}

	var hooks []asm.Hook
	if *lint {
		hooks = append(hooks, analysis.Gate(spec.Analysis()))
	}
	im, err := asm.ReadFile(flag.Arg(0), hooks...)
	if err != nil {
		fatal(err)
	}
	m, err := spec.New()
	if err != nil {
		fatal(err)
	}
	// Attach the flight recorder before any stream starts, so even the
	// StartStream wake-ups land in the record.
	var rec *obs.Recorder
	var met *obs.Metrics
	if *traceOut != "" || *metrics {
		rec = obs.NewRecorder(*traceBuf)
		if *metrics {
			met = rec.EnableMetrics(spec.Config.Streams)
		}
		m.SetRecorder(rec)
		// From here on every exit path — the clean end of main, fatal(),
		// a polled signal — flushes the observability sinks exactly once:
		// a run that dies still leaves its trace and metrics behind.
		var once sync.Once
		var ferr error
		to := *traceOut
		flushSinks = func() error {
			once.Do(func() { ferr = writeSinks(to, rec, met) })
			return ferr
		}
	}
	if err := im.Load(m, starts); err != nil {
		fatal(err)
	}
	if resumed != nil {
		// The snapshot carries the whole machine — program store
		// included, so the image mattered only for symbol resolution —
		// and the streams resume exactly where they were.
		if err := m.Restore(resumed); err != nil {
			fatal(err)
		}
	}
	if *blockEngine {
		// Compile after the image is loaded: the table is keyed to the
		// program store's mutation version and goes stale on reload.
		tbl, _ := blockc.Attach(m, im, spec.Analysis())
		fmt.Fprintf(os.Stderr, "discsim: block engine: %d instructions compiled into %d fused regions (%d planned but unqualified)\n",
			tbl.Compiled, tbl.Regions, tbl.Skipped)
	}

	if *profileN > 0 {
		m.EnableProfile()
	}
	runFailed := false
	if *traceN > 0 {
		rec := trace.Record(m, *traceN)
		fmt.Print(rec.RenderPipeline())
		if *vcd != "" {
			f, err := os.Create(*vcd)
			if err != nil {
				fatal(err)
			}
			if err := rec.WriteVCD(f); err != nil {
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "discsim: wrote %s\n", *vcd)
		}
	}
	if *breakAt != "" || *watch != "" {
		if *checkpointOut != "" {
			fatal(errors.New("-checkpoint-out cannot be combined with -break/-watch"))
		}
		if *breakAt != "" {
			addr, err := im.Resolve(*breakAt)
			if err != nil {
				fatal(err)
			}
			if err := m.AddBreakpoint(-1, addr); err != nil {
				fatal(err)
			}
		}
		if *watch != "" {
			addr, err := im.Resolve(*watch)
			if err != nil {
				fatal(err)
			}
			if err := m.AddWatchpoint(addr); err != nil {
				fatal(err)
			}
		}
		budget := *cycles
		if budget == 0 {
			budget = 1_000_000
		}
		if evs, ok := m.RunDebug(budget); ok {
			for _, ev := range evs {
				fmt.Println("discsim:", ev)
			}
		} else {
			fmt.Fprintf(os.Stderr, "discsim: no debug event within %d cycles\n", budget)
		}
	} else {
		armSignals()
		if err := runSim(m, *cycles, *maxCycles, *stallWindow, *checkpointEvery, *checkpointOut); err != nil {
			// Print the diagnosis now but the statistics too: a wedged
			// run's numbers are exactly what the user needs to see. With
			// a flight recorder attached the guard also carries a
			// post-mortem of each stream's last moves.
			fmt.Fprintln(os.Stderr, "discsim:", err)
			if pm := postMortem(err); pm != "" {
				fmt.Fprint(os.Stderr, pm)
			}
			runFailed = true
		}
	}

	st := m.Stats()
	fmt.Printf("cycles      %d\n", st.Cycles)
	fmt.Printf("retired     %d (PD = %.3f)\n", st.Retired, st.Utilization())
	fmt.Printf("idle slots  %d\n", st.IdleCycles)
	fmt.Printf("flushed     %d\n", st.Flushed)
	fmt.Printf("bus waits   %d (retries %d)\n", st.BusWaits, st.BusRetries)
	if st.BusFaults > 0 {
		fmt.Printf("bus faults  %d (timeouts %d, device faults %d)\n",
			st.BusFaults, st.BusTimeouts, st.BusDeviceFaults)
	}
	fmt.Printf("dispatches  %d\n", st.Dispatches)
	for i, ss := range st.PerStream {
		fmt.Printf("  IS%d: issued %d retired %d flushed %d buswaits %d irq %d\n",
			i, ss.Issued, ss.Retired, ss.Flushed, ss.BusWaits, ss.Dispatches)
	}
	if *blockEngine {
		bs := m.BlockStats()
		fmt.Printf("block engine sessions %d fused-cycles %d fused-instrs %d bails %d stale %d\n",
			bs.Sessions, bs.FusedCycles, bs.FusedInstrs, bs.Bails, bs.Stale)
		// Fused-share breakdown by region form: how much of the fused
		// time ran straight-line, resolved branches in-session, or
		// chained across region boundaries — plus what the adaptive
		// gate did about chronically bailing regions.
		share := func(c uint64) float64 {
			if bs.FusedCycles == 0 {
				return 0
			}
			return float64(c) / float64(bs.FusedCycles)
		}
		fmt.Printf("  straight  %d sessions, %d cycles (%.1f%% of fused)\n",
			bs.StraightSessions, bs.StraightCycles, 100*share(bs.StraightCycles))
		fmt.Printf("  branched  %d sessions, %d cycles (%.1f%% of fused), %d branches resolved in-session\n",
			bs.BranchSessions, bs.BranchCycles, 100*share(bs.BranchCycles), bs.BranchFuses)
		fmt.Printf("  chained   %d sessions, %d cycles (%.1f%% of fused), %d region-to-region chains\n",
			bs.ChainSessions, bs.ChainCycles, 100*share(bs.ChainCycles), bs.Chains)
		fmt.Printf("  gate      %d demotions, %d re-promotions\n", bs.Demotes, bs.Promotes)
	}

	if *profileN > 0 {
		fmt.Println("hot spots:")
		for _, e := range m.HotSpots(*profileN) {
			text := asm.Disassemble([]isa.Word{m.Program().Fetch(e.PC)}, e.PC)[0]
			fmt.Printf("  IS%d %-28s x%d\n", e.Stream, text, e.Retired)
		}
	}
	if err := flushSinks(); err != nil {
		fatal(err)
	}
	if *dump != "" {
		lo, hi, err := parseRange(*dump)
		if err != nil {
			fatal(err)
		}
		for a := lo; a < hi; a += 8 {
			fmt.Printf("%04x:", a)
			for j := uint16(0); j < 8 && a+j < hi; j++ {
				fmt.Printf(" %04x", m.Internal().Read(a+j))
			}
			fmt.Println()
		}
	}
	stopProfiles()
	if runFailed {
		os.Exit(3)
	}
}

// stopProfiles flushes any active -cpuprofile/-memprofile output; it
// is replaced by main once profiling starts and stays safe to call
// from every exit path.
var stopProfiles = func() {}

// flushSinks writes the -trace-out file and renders -metrics; main
// replaces it once a recorder is attached (idempotent via sync.Once),
// and every exit path — clean, fatal, signalled — calls it so a dying
// run never loses the observability it was asked to collect.
var flushSinks = func() error { return nil }

// sigCode holds the conventional 128+signum exit status once a
// SIGINT/SIGTERM has landed, 0 before. The run loop polls it between
// Guard.StepN calls — never mid-cycle — so the machine is always in a
// snapshottable state when the signal is acted on.
var sigCode atomic.Int32

// sigQuantum caps a single Guard.StepN call while signals are armed,
// so a pending SIGINT is noticed within ~64K cycles of any run.
const sigQuantum = 1 << 16

// armSignals converts the first SIGINT/SIGTERM into a polled flag and
// then restores the default disposition, so a second signal kills the
// process immediately (the escape hatch when a checkpoint write hangs).
func armSignals() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		sig := <-ch
		code := int32(130) // 128 + SIGINT
		if sig == syscall.SIGTERM {
			code = 143 // 128 + SIGTERM
		}
		sigCode.Store(code)
		signal.Stop(ch)
		signal.Reset(syscall.SIGINT, syscall.SIGTERM)
	}()
}

func parseRange(s string) (uint16, uint16, error) {
	parts := strings.SplitN(s, ":", 2)
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("bad range %q (want a:b)", s)
	}
	lo, err1 := strconv.ParseUint(strings.TrimPrefix(parts[0], "0x"), 16, 16)
	hi, err2 := strconv.ParseUint(strings.TrimPrefix(parts[1], "0x"), 16, 16)
	if err1 != nil || err2 != nil || lo > hi {
		return 0, 0, fmt.Errorf("bad range %q", s)
	}
	return uint16(lo), uint16(hi), nil
}

// runSim drives every non-debug run — fixed-length (-cycles) and
// until-idle alike — under the liveness guard: one Guard.StepN call per
// chunk, the chunks sized by the checkpoint schedule and the
// signal-poll quantum.
//
// With a checkpoint path a snapshot lands there — crash-atomically, so
// the previous one survives a kill mid-write — every `every` cycles
// (0: never) and once more on every way out: clean idle, fixed cycle
// count, cycle budget, deadlock diagnosis. A checkpoint that cannot be
// written is fatal, because a user who asked for checkpoints is
// relying on them being there.
//
// A fixed-length run keeps m.Run's cycle accounting (an idle machine
// still burns cycles until the count is reached) but now shares the
// deadlock watchdog: a wedged program diagnosed mid-count stops there
// with the diagnosis instead of silently spinning out the remainder.
//
// A SIGINT/SIGTERM polled between chunks takes a final checkpoint,
// flushes the observability sinks, and exits 130/143.
func runSim(m *core.Machine, cycles, maxCycles int, stallWindow uint64, every int, path string) error {
	save := func() {
		if path == "" {
			return
		}
		if err := snap.Capture(path, m); err != nil {
			fatal(err)
		}
	}
	g := m.NewGuard(stallWindow)
	limit := maxCycles // 0: unlimited
	if cycles > 0 {
		limit = cycles
	}
	next := 0
	if path != "" && every > 0 {
		next = every
	}
	for n := 0; limit == 0 || n < limit; {
		if code := sigCode.Load(); code != 0 {
			save()
			name := "SIGINT"
			if code == 143 {
				name = "SIGTERM"
			}
			if path != "" {
				fmt.Fprintf(os.Stderr, "discsim: %s: checkpointed %s at cycle %d\n", name, path, m.Stats().Cycles)
			} else {
				fmt.Fprintf(os.Stderr, "discsim: %s at cycle %d\n", name, m.Stats().Cycles)
			}
			if err := flushSinks(); err != nil {
				fmt.Fprintln(os.Stderr, "discsim:", err)
			}
			stopProfiles()
			os.Exit(int(code))
		}
		budget := sigQuantum
		if limit > 0 {
			budget = min(budget, limit-n)
		}
		if next > 0 {
			budget = min(budget, next-n)
		}
		k, done, err := g.StepN(budget)
		n += k
		if err != nil {
			save()
			return err
		}
		if done && cycles == 0 {
			save()
			return nil
		}
		if next > 0 && n >= next {
			save()
			next = n + every
		}
	}
	save()
	if cycles == 0 {
		return &core.CycleLimitError{Limit: maxCycles, PostMortem: m.PostMortem(obs.DefaultPostMortemEvents)}
	}
	return nil
}

// writeSinks renders the -metrics registry to stdout and the recorded
// run to the -trace-out file. It exists apart from main so fatal and
// the signal path flush the same way the clean exit does.
func writeSinks(traceOut string, rec *obs.Recorder, met *obs.Metrics) error {
	if met != nil {
		fmt.Print(met.Render())
	}
	if traceOut == "" {
		return nil
	}
	f, err := os.Create(traceOut)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, rec.Events()); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "discsim: wrote %s (%d of %d events retained)\n",
		traceOut, len(rec.Events()), rec.Total())
	return nil
}

// postMortem extracts the flight-recorder dump a guarded failure
// carries (empty when no recorder was attached).
func postMortem(err error) string {
	var dl *core.DeadlockError
	if errors.As(err, &dl) {
		return dl.PostMortem
	}
	var cl *core.CycleLimitError
	if errors.As(err, &cl) {
		return cl.PostMortem
	}
	return ""
}

func fatal(err error) {
	// Flush trace/metrics first: the run that just died is exactly the
	// one whose record the user needs. The flush error is only worth a
	// line when it is not the error already being reported.
	if ferr := flushSinks(); ferr != nil && ferr != err {
		fmt.Fprintln(os.Stderr, "discsim:", ferr)
	}
	stopProfiles()
	fmt.Fprintln(os.Stderr, "discsim:", err)
	os.Exit(1)
}
