package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"disc/internal/analysis"
	"disc/internal/blockc"
	"disc/internal/core"
	"disc/internal/rng"
	"disc/internal/serve"
	"disc/internal/snap"
	"disc/internal/workload"
	"disc/internal/xval"
)

// simSpec selects one of the two whole-run workloads.
type simSpec struct {
	name    string
	streams int
	block   bool
}

var (
	// simMulti: Table 4.1 loads at 4 streams on the optimized
	// interpreter, where core.Step, sched and bus do all the work.
	simMulti = simSpec{name: "sim_multi", streams: 4}
	// simFused: the same loads at 1 stream with block tables attached,
	// where the block engine does most of the work.
	simFused = simSpec{name: "sim_fused", streams: 1, block: true}
)

const (
	stepCycles      = 2000      // a serve short step
	longCycles      = 5_000_000 // serve.Config's default MaxStepCycles
	stepsPerLong    = longCycles / stepCycles
	pulseEvery      = 250 // steps between calibration pulses
	warmCycles      = 200_000
	setupRepeats    = 5
	forksPerRound   = 2 // per load
	forkCheckCycles = 10_000
	cmpWindow       = 200_000 // cycles per timed window of the traced comparisons
)

// simLoad is one Table 4.1 load's machine plus the spare that forks
// restore into.
type simLoad struct {
	name   string
	main   *xval.LoadSetup
	g      *core.Guard
	spare  *xval.LoadSetup
	opts   analysis.Options
	cycles uint64 // cycles stepped on main since it was built
}

// loadSeed derives load i's program seed from the workload seed.
func loadSeed(seed uint64, i int) uint64 { return rng.Child(seed, uint64(i)) }

// blockOpts is the analysis view of a 1-stream load setup, as
// discsim's -block-engine builds it.
func blockOpts(s *xval.LoadSetup) analysis.Options {
	opts := analysis.Options{Entries: []uint16{s.Entries[0]}, Streams: 1}
	for _, d := range s.Devices {
		opts.BusRanges = append(opts.BusRanges, analysis.BusRange{Base: d.Base, Size: d.Size, Wait: d.Wait})
	}
	return opts
}

// simBuild holds the set-ups' per-call layer times.
type simBuild struct {
	xval, attach []float64     // ms per call
	warm         time.Duration // warm-up StepN time
}

// buildLoads builds the four loads (main and spare machines), the work
// setup_s times.
func buildLoads(spec simSpec, seed uint64, tr *tracer, bt *simBuild) ([]*simLoad, error) {
	var loads []*simLoad
	for i, p := range workload.Base() {
		p.MeanOn, p.MeanOff = 0, 0 // program generation needs always-active loads
		l := &simLoad{name: loadNames[i]}
		for _, dst := range []**xval.LoadSetup{&l.main, &l.spare} {
			t0 := time.Now()
			s, err := xval.NewLoadSetup(p, spec.streams, loadSeed(seed, i), core.Config{})
			if err != nil {
				return nil, fmt.Errorf("%s: build %s: %w", spec.name, p.Name, err)
			}
			t1 := time.Now()
			tr.add("xval.NewLoadSetup", t0, t1, -1, -1, 0)
			bt.xval = append(bt.xval, ms(t1.Sub(t0)))
			if spec.block {
				l.opts = blockOpts(s)
				blockc.Attach(s.Machine, s.Images[0], l.opts)
				t2 := time.Now()
				tr.add("blockc.Attach", t1, t2, -1, -1, 0)
				bt.attach = append(bt.attach, ms(t2.Sub(t1)))
			}
			*dst = s
		}
		l.g = l.main.Machine.NewGuard(serve.DefaultStallWindow)
		loads = append(loads, l)
	}
	return loads, nil
}

// advance drives g for exactly n cycles the way discsim drives a run:
// one Guard.StepN dispatch at a time. The Table 4.1 loads never halt
// or wedge, so an idle verdict or a diagnosis is a failure.
func advance(g *core.Guard, n int) error {
	for done := 0; done < n; {
		k, idle, err := g.StepN(n - done)
		if err != nil {
			return err
		}
		if idle {
			return errors.New("machine went idle")
		}
		done += k
	}
	return nil
}

// simDigest hashes every main machine's statistics and snapshot (its
// whole architectural state).
func simDigest(loads []*simLoad, block bool) (string, error) {
	d := newDigest()
	for _, l := range loads {
		m := l.main.Machine
		blob, err := snap.Bytes(m)
		if err != nil {
			return "", err
		}
		d.add(l.name, m.Cycle(), m.Stats(), blob)
		if block {
			d.add(m.BlockStats())
		}
	}
	return d.sum(), nil
}

// setupSim builds and warms one set of loads and returns it with its
// digest and its speed-normalized build time.
func setupSim(spec simSpec, seed uint64, cal *calKernel, mem *memKernel, tr *tracer, bt *simBuild) ([]*simLoad, string, time.Duration, error) {
	sp := buildSpeed(cal, mem)
	t0 := time.Now()
	loads, err := buildLoads(spec, seed, tr, bt)
	if err != nil {
		return nil, "", 0, err
	}
	build := time.Duration(float64(time.Since(t0)) * sp)
	w0 := time.Now()
	for _, l := range loads {
		if err := advance(l.g, warmCycles); err != nil {
			return nil, "", 0, fmt.Errorf("%s %s: warm-up: %w", spec.name, l.name, err)
		}
		l.cycles = warmCycles
	}
	bt.warm += time.Since(w0)
	dg, err := simDigest(loads, spec.block)
	return loads, dg, build, err
}

func runSim(cfg runConfig, spec simSpec) (*result, error) {
	res := newResult()
	tr := newTracer(cfg.trace)
	cal := newCalKernel()
	mem := newMemKernel()
	wall0 := time.Now()

	// Set-up, repeated: setup_s is the median build, and every repeat
	// must reproduce the same simulated results.
	var loads []*simLoad
	var digests []string
	var builds []float64
	var bt simBuild
	for r := 0; r < setupRepeats; r++ {
		loads = nil
		runtime.GC()
		ls, dg, build, err := setupSim(spec, cfg.seed, cal, mem, tr, &bt)
		if err != nil {
			return nil, err
		}
		loads, digests, builds = ls, append(digests, dg), append(builds, build.Seconds())
	}
	res.set("setup_s", median(builds))

	timed := cfg.duration()
	if cfg.trace {
		timed = timed * 65 / 100 // the rest goes to the engine comparisons
	}
	runtime.GC()
	before := make([]core.Stats, len(loads))
	beforeBlk := make([]core.BlockStats, len(loads))
	for i, l := range loads {
		before[i], beforeBlk[i] = l.main.Machine.Stats(), l.main.Machine.BlockStats()
	}
	gc0 := readGC()
	heap := startHeapWatch()

	// Timed phase: rounds of one long (5M cycles as 2,500 steps of
	// 2,000) on each load, rotating which load goes first. Step
	// percentiles are taken per long stretch, so a second of host
	// trouble moves one stretch's p99 rather than the run's. The p99 is
	// then averaged over the stretches, not their median: a load whose
	// rare slow steps (gate probes, bus bursts) sit near 1% of its steps
	// has some stretches' p99 in that mode and some not, and the median
	// would flip between the two from run to run.
	p50s := make([][]float64, len(loads))
	p99s := make([][]float64, len(loads))
	longs := make([][]float64, len(loads))
	var rounds, forks, encs, decs, snapBytes []float64
	var raw [stepsPerLong]time.Duration
	var norm [stepsPerLong]float64
	var speeds [stepsPerLong / pulseEvery]float64
	var stepSpans, buildSpans, forkSpans time.Duration
	start := time.Now()
	for r := 0; time.Since(start) < timed || r < 2; r++ {
		round := 0.0
		for j := range loads {
			li := (r + j) % len(loads)
			l := loads[li]
			b0 := time.Now()
			var stepErr error
			for s := 0; s < stepsPerLong; s++ {
				if s%pulseEvery == 0 {
					speeds[s/pulseEvery] = cal.pulse()
				}
				t0 := time.Now()
				err := advance(l.g, stepCycles)
				raw[s] = time.Since(t0)
				if err != nil && stepErr == nil {
					stepErr = err
				}
			}
			b1 := time.Now()
			tr.add("core.Guard.StepN", b0, b1, -1, r, li+1)
			l.cycles += longCycles
			res.attempted += stepsPerLong
			if stepErr != nil {
				res.failed += stepsPerLong
				res.fail("%s %s: %v", spec.name, l.name, stepErr)
				continue
			}
			sp := median(speeds[:])
			var sum time.Duration
			for s, d := range raw {
				sum += d
				norm[s] = ms(d) * sp
			}
			sort.Float64s(norm[:])
			p50s[li] = append(p50s[li], sortedQuantile(norm[:], 0.5))
			p99s[li] = append(p99s[li], sortedQuantile(norm[:], 0.99))
			stepSpans += sum
			long := ms(sum) * sp
			longs[li] = append(longs[li], long)
			round += long
		}
		rounds = append(rounds, 4*longCycles/1e6/(round/1e3))

		// Fork every load: snapshot, decode, restore into the spare
		// (and re-attach its block table, as a restoring host must),
		// then step both in lockstep and compare their snapshots.
		for f := 0; f < forksPerRound*len(loads); f++ {
			l := loads[f%len(loads)]
			sp := buildSpeed(cal, mem)
			enc, dec, n, lockstep, err := forkLoad(spec, l, tr, r)
			res.attempted++
			if err != nil {
				res.failed++
				res.fail("%s %s: fork: %v", spec.name, l.name, err)
				continue
			}
			forks = append(forks, (enc+dec)*sp)
			encs, decs, snapBytes = append(encs, enc*sp), append(decs, dec*sp), append(snapBytes, float64(n))
			forkSpans += time.Duration((enc + dec) * 1e6)
			stepSpans += lockstep
		}
		runtime.GC() // the fork garbage, before the next round's windows
	}
	wall := time.Since(wall0)
	gc := readGC().since(gc0)
	res.set("heap_mb", heap.finish())

	var stepP50, stepP99, longP50 []float64
	for i := range loads {
		stepP50 = append(stepP50, median(p50s[i]))
		stepP99 = append(stepP99, mean(p99s[i]))
		longP50 = append(longP50, median(longs[i]))
	}
	res.set("mcyc_per_s", median(rounds))
	res.set("step_p50_ms", mean(stepP50))
	res.set("step_p99_ms", mean(stepP99))
	res.set("long_p50_ms", mean(longP50))
	res.set("fork_p50_ms", median(forks))

	// Every main machine must have run exactly the cycles asked of it.
	for _, l := range loads {
		if got := l.main.Machine.Cycle(); got != l.cycles {
			res.fail("%s %s: machine at cycle %d, stepped %d", spec.name, l.name, got, l.cycles)
		}
	}

	if cfg.trace {
		res.set("traced.mcyc_per_s", median(rounds))
		res.set("traced.step_p50_ms", mean(stepP50))
		res.set("xval.build_ms", median(bt.xval))
		res.set("blockc.attach_ms", median(bt.attach))
		for i, l := range loads {
			res.set("core.ns_per_cycle."+l.name, stepP50[i]*1e6/stepCycles)
		}
		setCoreCounters(res, loads, before, spec.block, beforeBlk)
		res.set("snap.encode_ms", median(encs))
		res.set("snap.decode_restore_ms", median(decs))
		res.set("snap.bytes", median(snapBytes))
		res.set("gc.cycles", float64(gc.cycles))
		res.set("gc.pause_ms", float64(gc.pauseNs)/1e6)
		res.set("alloc_mb", float64(gc.alloc)/(1<<20))
		for _, b := range bt.xval {
			buildSpans += time.Duration(b * 1e6)
		}
		for _, b := range bt.attach {
			buildSpans += time.Duration(b * 1e6)
		}
		// Attribution: build + StepN (warm-up, timed and lockstep) +
		// the fork calls against the wall time from the first build to
		// the end of the timed phase. The remainder is the harness:
		// pulses, GC, digests, snapshot comparisons.
		closure := float64(buildSpans+bt.warm+stepSpans+forkSpans) / float64(wall)
		res.set("attr.sim.closure", closure)
		if closure < 1-attrTolerance || closure > 1+attrTolerance {
			res.fail("attribution: sim layers sum to %.3f of wall, tolerance %.2f", closure, attrTolerance)
		}
		if err := compareEngines(res, spec, cfg, loads, cfg.duration()-timed, tr); err != nil {
			return nil, err
		}
	}

	// The default seed's results must match the recorded digest.
	dflt := digests[0]
	if cfg.seed != defaultSeed {
		_, dg, _, err := setupSim(spec, defaultSeed, cal, mem, nil, &simBuild{})
		if err != nil {
			return nil, err
		}
		dflt = dg
	}
	res.checkDigests(spec.name, digests, dflt)
	res.set("host.speed", cal.meanSpeed())
	fmt.Fprintf(os.Stderr, "discbench: %s: %d rounds, %d forks\n", spec.name, len(rounds), len(forks))
	if err := tr.write(tracePath(cfg, spec.name)); err != nil {
		return nil, err
	}
	return res, nil
}

// forkLoad forks l's main machine into its spare and proves the twin
// byte-identical after a lockstep stretch. It returns the encode and
// decode+restore times in ms, the snapshot size, and the lockstep
// stretch's StepN time.
func forkLoad(spec simSpec, l *simLoad, tr *tracer, req int) (enc, dec float64, n int, lockstep time.Duration, err error) {
	m, twin := l.main.Machine, l.spare.Machine
	t0 := time.Now()
	blob, err := snap.Bytes(m)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	t1 := time.Now()
	sn, err := snap.Decode(blob)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	if err := twin.Restore(sn); err != nil {
		return 0, 0, 0, 0, err
	}
	if spec.block {
		blockc.Attach(twin, l.spare.Images[0], l.opts)
	}
	t2 := time.Now()
	root := tr.add("fork", t0, t2, -1, req, 5)
	tr.add("snap.Bytes", t0, t1, root, req, 5)
	tr.add("snap.Decode+Restore", t1, t2, root, req, 5)

	t3 := time.Now()
	if err := advance(l.g, forkCheckCycles); err != nil {
		return 0, 0, 0, 0, err
	}
	l.cycles += forkCheckCycles
	if err := advance(twin.NewGuard(serve.DefaultStallWindow), forkCheckCycles); err != nil {
		return 0, 0, 0, 0, fmt.Errorf("twin: %w", err)
	}
	lockstep = time.Since(t3)
	a, err := snap.Bytes(m)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	b, err := snap.Bytes(twin)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	if !bytes.Equal(a, b) {
		return 0, 0, 0, 0, errors.New("twin's snapshot differs from its parent's after lockstep steps")
	}
	return ms(t1.Sub(t0)), ms(t2.Sub(t1)), len(blob), lockstep, nil
}

// setCoreCounters reports the timed phase's simulated counters, summed
// over the loads: counts from core.Stats for the layers that run only
// inside Machine.Step, and the block engine's session statistics.
func setCoreCounters(res *result, loads []*simLoad, before []core.Stats, block bool, beforeBlk []core.BlockStats) {
	var cyc, retired, idle, disp, waits, retries float64
	var sessions, fused, bails, demotes float64
	for i, l := range loads {
		m := l.main.Machine
		s, b := m.Stats(), before[i]
		cyc += float64(s.Cycles - b.Cycles)
		retired += float64(s.Retired - b.Retired)
		idle += float64(s.IdleCycles - b.IdleCycles)
		disp += float64(s.Dispatches - b.Dispatches)
		waits += float64(s.BusWaits - b.BusWaits)
		retries += float64(s.BusRetries - b.BusRetries)
		bs, bb := m.BlockStats(), beforeBlk[i]
		sessions += float64(bs.Sessions - bb.Sessions)
		fused += float64(bs.FusedCycles - bb.FusedCycles)
		bails += float64(bs.Bails - bb.Bails)
		demotes += float64(bs.Demotes - bb.Demotes)
		if block {
			res.set("block.fused_share."+l.name, float64(bs.FusedCycles-bb.FusedCycles)/float64(s.Cycles-b.Cycles))
		}
	}
	res.set("core.ipc", retired/cyc)
	res.set("core.idle_share", idle/cyc)
	res.set("core.dispatches", disp/cyc*1e6)
	res.set("core.bus_waits", waits/cyc*1e6)
	res.set("core.bus_retries", retries/cyc*1e6)
	if sessions > 0 {
		res.set("block.cycles_per_session", fused/sessions)
		res.set("block.bail_share", bails/sessions)
	}
	res.set("block.demotes", demotes)
}

// compareEngines times, per load, the optimized interpreter against
// the reference pipeline (core.ref_speedup) and, with block tables,
// the block engine against the plain interpreter (block.speedup). Each
// engine runs its own machine over the same program; windows alternate
// in ABBA order and the ratio is of summed times.
func compareEngines(res *result, spec simSpec, cfg runConfig, loads []*simLoad, budget time.Duration, tr *tracer) error {
	type engine struct {
		g   *core.Guard
		sum time.Duration
	}
	perLoad := budget / time.Duration(len(loads))
	for i, l := range loads {
		p := workload.Base()[i]
		p.MeanOn, p.MeanOff = 0, 0
		ref, err := xval.NewLoadSetup(p, spec.streams, loadSeed(cfg.seed, i), core.Config{Reference: true})
		if err != nil {
			return err
		}
		engines := []*engine{{g: ref.Machine.NewGuard(serve.DefaultStallWindow)}}
		plain := &engine{g: l.g} // sim_multi's main machine is the plain interpreter
		var block *engine
		if spec.block {
			ps, err := xval.NewLoadSetup(p, spec.streams, loadSeed(cfg.seed, i), core.Config{})
			if err != nil {
				return err
			}
			plain = &engine{g: ps.Machine.NewGuard(serve.DefaultStallWindow)}
			block = &engine{g: l.g}
			engines = append(engines, block)
		}
		engines = append(engines, plain)
		for _, e := range engines {
			if err := advance(e.g, cmpWindow); err != nil {
				return err
			}
		}
		runtime.GC()
		t0 := time.Now()
		for w := 0; time.Since(t0) < perLoad || w < 4; w++ {
			for k := range engines {
				e := engines[k]
				if w%2 == 1 {
					e = engines[len(engines)-1-k]
				}
				a := time.Now()
				if err := advance(e.g, cmpWindow); err != nil {
					return err
				}
				e.sum += time.Since(a)
				tr.add("compare", a, time.Now(), -1, w, 6+i)
			}
		}
		res.set("core.ref_speedup."+l.name, float64(engines[0].sum)/float64(plain.sum))
		if block != nil {
			res.set("block.speedup."+l.name, float64(plain.sum)/float64(block.sum))
		}
	}
	return nil
}
