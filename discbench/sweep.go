package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"disc/internal/baseline"
	"disc/internal/parallel"
	"disc/internal/report"
	"disc/internal/rng"
	"disc/internal/stoch"
	"disc/internal/tables"
	"disc/internal/workload"
)

// The table_sweep rounds: tables.Table42 + tables.Table43 at fixed
// size with Par = nproc and no journal, each round at its own
// rng.Child seed of the workload seed.
const (
	sweepCycles = stoch.DefaultCycles
	sweepReps   = 1
)

// sweepPulse is the calibration period while the sweep runs.
const sweepPulse = 20 * time.Millisecond

// sweepOpts is round r's options.
func sweepOpts(seed uint64, r int) tables.Opts {
	return tables.Opts{Cycles: sweepCycles, Reps: sweepReps, Par: runtime.NumCPU(), Seed: rng.Child(seed, uint64(r))}
}

// sweepJobs is the number of model runs in one round (Table 4.2 has 4
// loads × (baseline + 4 stream counts), Table 4.3 has 3 pairs × 5).
const sweepJobs = (4*5 + 3*5) * sweepReps

// sweepModelMcyc is one round's simulated model cycles, in millions.
const sweepModelMcyc = float64(sweepJobs) * sweepCycles / 1e6

// sweep runs one round through the tables package.
func sweep(o tables.Opts) ([]tables.Table42Row, []tables.Table43Row, error) {
	t42, err := tables.Table42(o)
	if err != nil {
		return nil, nil, err
	}
	t43, err := tables.Table43(o)
	if err != nil {
		return nil, nil, err
	}
	return t42, t43, nil
}

func sweepDigest(t42 []tables.Table42Row, t43 []tables.Table43Row) string {
	d := newDigest()
	d.add(t42, t43)
	return d.sum()
}

// job is one model run of a round, as the tables package schedules it.
type job struct {
	baseline bool
	load     workload.Load   // baseline runs
	streams  []workload.Load // stoch runs
	seed     uint64
}

// roundJobs lays out a round's model runs in the tables package's job
// order with its seeds, so a replay through stoch.Run and baseline.Run
// reproduces every table cell.
func roundJobs(o tables.Opts) []job {
	var jobs []job
	for li, p := range workload.Base() {
		l := workload.Simple(p)
		for cfg := 0; cfg <= tables.MaxStreams; cfg++ {
			for rep := 0; rep < o.Reps; rep++ {
				j := (li*(tables.MaxStreams+1)+cfg)*o.Reps + rep
				jb := job{seed: rng.Child(o.Seed, uint64(j)), baseline: cfg == 0, load: l}
				for i := 0; i < cfg; i++ {
					jb.streams = append(jb.streams, l)
				}
				jobs = append(jobs, jb)
			}
		}
	}
	l1 := workload.Simple(workload.Ld1)
	for pi, p := range []workload.Params{workload.Ld2, workload.Ld3, workload.Ld4} {
		lx := workload.Simple(p)
		comb := workload.Combine("1:"+p.Name, l1, lx)
		orgs := [][]workload.Load{{comb}, {l1, lx}, {l1, l1, lx}, {l1, l1, lx, lx}}
		for cfg := 0; cfg <= 4; cfg++ {
			for rep := 0; rep < o.Reps; rep++ {
				j := (pi*5+cfg)*o.Reps + rep
				jb := job{seed: rng.Child(o.Seed, 1<<20+uint64(j)), baseline: cfg == 0, load: comb}
				if cfg > 0 {
					jb.streams = orgs[cfg-1]
				}
				jobs = append(jobs, jb)
			}
		}
	}
	return jobs
}

// jobTime is one replayed model run.
type jobTime struct {
	start, end time.Time
	baseline   bool
}

// replaySweep runs a round's jobs through stoch.Run and baseline.Run,
// one parallel.Map per table as the tables package does, times each
// job, and checks that the cells it rebuilds equal the tables
// package's.
func replaySweep(o tables.Opts, t42 []tables.Table42Row, t43 []tables.Table43Row, tr *tracer, req int) ([]jobTime, error) {
	jobs := roundJobs(o)
	times := make([]jobTime, len(jobs))
	run := func(i int) (float64, error) {
		jb := jobs[i]
		t0 := time.Now()
		var v float64
		name := "stoch.Run"
		if jb.baseline {
			name = "baseline.Run"
			res, err := baseline.Run(jb.load, stoch.DefaultPipeLen, o.Cycles, jb.seed)
			if err != nil {
				return 0, err
			}
			v = res.Ps()
		} else {
			res, err := stoch.Run(stoch.Config{PipeLen: stoch.DefaultPipeLen, Cycles: o.Cycles, Seed: jb.seed, Streams: jb.streams})
			if err != nil {
				return 0, err
			}
			v = res.PD()
		}
		t1 := time.Now()
		times[i] = jobTime{start: t0, end: t1, baseline: jb.baseline}
		tr.add(name, t0, t1, -1, req, 10+i%o.Par)
		return v, nil
	}
	n42 := len(workload.Base()) * (tables.MaxStreams + 1) * o.Reps
	vals, err := parallel.Map(o.Par, n42, run)
	if err != nil {
		return nil, err
	}
	v43, err := parallel.Map(o.Par, len(jobs)-n42, func(i int) (float64, error) { return run(n42 + i) })
	if err != nil {
		return nil, err
	}
	vals = append(vals, v43...)

	// Rebuild each cell's summary from the replayed runs.
	cell := func(base int) report.Stat { return report.Summarize(vals[base : base+o.Reps]) }
	for li, row := range t42 {
		for k := 0; k <= tables.MaxStreams; k++ {
			got := cell((li*(tables.MaxStreams+1) + k) * o.Reps)
			want := row.PsStat
			if k > 0 {
				want = row.PDStat[k-1]
			}
			if got != want {
				return nil, fmt.Errorf("replay: Table 4.2 %s column %d: %+v, tables says %+v", row.Load, k, got, want)
			}
		}
	}
	for pi, row := range t43 {
		for k := 0; k <= 4; k++ {
			got := cell(n42 + (pi*5+k)*o.Reps)
			want := row.PsStat
			if k > 0 {
				want = row.PDStat[k-1]
			}
			if got != want {
				return nil, fmt.Errorf("replay: Table 4.3 %s column %d: %+v, tables says %+v", row.Pair, k, got, want)
			}
		}
	}
	return times, nil
}

// mapTail is one parallel.Map's tail: from the first worker finding no
// job left (the first job end after the last job start) to the last
// job's end.
func mapTail(jobs []jobTime) time.Duration {
	var lastStart, lastEnd time.Time
	for _, j := range jobs {
		if j.start.After(lastStart) {
			lastStart = j.start
		}
		if j.end.After(lastEnd) {
			lastEnd = j.end
		}
	}
	firstIdle := lastEnd
	for _, j := range jobs {
		if j.end.After(lastStart) && j.end.Before(firstIdle) {
			firstIdle = j.end
		}
	}
	return lastEnd.Sub(firstIdle)
}

// setupSweep computes round 0's reference cells: the work table_sweep's
// setup_s times, and the result every later repeat must reproduce.
func setupSweep(seed uint64, speeds *pulser) (string, time.Duration, error) {
	t0 := time.Now()
	t42, t43, err := sweep(sweepOpts(seed, 0))
	if err != nil {
		return "", 0, err
	}
	t1 := time.Now()
	return sweepDigest(t42, t43), time.Duration(float64(t1.Sub(t0)) * speeds.during(t0, t1)), nil
}

func runSweep(cfg runConfig) (*result, error) {
	res := newResult()
	tr := newTracer(cfg.trace)
	speeds := startPulser(sweepPulse)

	var digests []string
	var builds []float64
	for i := 0; i < setupRepeats; i++ {
		dg, build, err := setupSweep(cfg.seed, speeds)
		if err != nil {
			return nil, err
		}
		digests, builds = append(digests, dg), append(builds, build.Seconds())
	}
	res.set("setup_s", median(builds))

	runtime.GC()
	gc0 := readGC()
	heap := startHeapWatch()
	var rates, sweeps, replays, jobLat, stochMs, baseMs, busy, tails, closures []float64
	var stochTime time.Duration
	var stochRuns int
	start := time.Now()
	for r := 0; time.Since(start) < cfg.duration() || r < 2; r++ {
		o := sweepOpts(cfg.seed, r)
		t0 := time.Now()
		t42, t43, err := sweep(o)
		t1 := time.Now()
		sp := speeds.during(t0, t1)
		res.attempted++
		if err != nil {
			res.failed++
			res.fail("round %d: %v", r, err)
			continue
		}
		tr.add("tables.Table42+43", t0, t1, -1, r, 9)
		wall := ms(t1.Sub(t0)) * sp
		sweeps = append(sweeps, wall)
		rates = append(rates, sweepModelMcyc/(wall/1e3))
		if r == 0 && sweepDigest(t42, t43) != digests[0] {
			res.fail("round 0 does not reproduce the set-up's tables")
		}

		// The reproduction: the same jobs through the layer functions.
		t2 := time.Now()
		jobs, err := replaySweep(o, t42, t43, tr, r)
		t3 := time.Now()
		sp = speeds.during(t2, t3)
		res.attempted += sweepJobs
		if err != nil {
			res.failed += sweepJobs
			res.fail("round %d: %v", r, err)
			continue
		}
		replays = append(replays, ms(t3.Sub(t2))*sp)
		var sum time.Duration
		for _, j := range jobs {
			d := j.end.Sub(j.start)
			sum += d
			jobLat = append(jobLat, ms(d)*sp)
			if j.baseline {
				baseMs = append(baseMs, ms(d)*sp)
			} else {
				stochMs = append(stochMs, ms(d)*sp)
				stochTime += d
				stochRuns++
			}
		}
		n42 := len(t42) * (tables.MaxStreams + 1) * o.Reps
		tail := mapTail(jobs[:n42]) + mapTail(jobs[n42:])
		par := float64(o.Par)
		busy = append(busy, float64(sum)/(float64(t3.Sub(t2))*par))
		tails = append(tails, ms(tail)*sp)
		// Attribution: Σ(stoch + baseline)/Par + idle against the tables
		// sweep's wall time for the same jobs.
		idle := float64(t3.Sub(t2))*par - float64(sum)
		closures = append(closures, (float64(sum)/par+idle/par)/float64(t1.Sub(t0)))
	}
	gc := readGC().since(gc0)
	res.set("heap_mb", heap.finish())

	res.set("mcyc_per_s", median(rates))
	res.set("step_p50_ms", median(jobLat))
	res.set("step_p99_ms", quantile(jobLat, 0.99))
	res.set("long_p50_ms", median(sweeps))
	res.set("fork_p50_ms", median(replays))
	if cfg.trace {
		res.set("traced.mcyc_per_s", median(rates))
		res.set("traced.step_p50_ms", median(jobLat))
		res.set("stoch.run_ms", median(stochMs))
		res.set("stoch.mcyc_per_s", float64(stochRuns)*sweepCycles/stochTime.Seconds()/1e6)
		res.set("baseline.run_ms", median(baseMs))
		res.set("parallel.busy_share", median(busy))
		res.set("parallel.tail_ms", median(tails))
		closure := median(closures)
		res.set("attr.sweep.closure", closure)
		if closure < 1-attrTolerance || closure > 1+attrTolerance {
			res.fail("attribution: sweep layers sum to %.3f of the tables wall time, tolerance %.2f", closure, attrTolerance)
		}
		res.set("gc.cycles", float64(gc.cycles))
		res.set("gc.pause_ms", float64(gc.pauseNs)/1e6)
		res.set("alloc_mb", float64(gc.alloc)/(1<<20))
	}
	res.set("host.speed", speeds.mean())
	fmt.Fprintf(os.Stderr, "discbench: table_sweep: %d rounds of %d model runs\n", len(sweeps), sweepJobs)

	dflt := digests[0]
	if cfg.seed != defaultSeed {
		dg, _, err := setupSweep(defaultSeed, speeds)
		if err != nil {
			return nil, err
		}
		dflt = dg
	}
	speeds.finish()
	res.checkDigests("table_sweep", digests, dflt)
	if err := tr.write(tracePath(cfg, "table_sweep")); err != nil {
		return nil, err
	}
	return res, nil
}
