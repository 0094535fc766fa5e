// Command discbench is the repository's benchmark: it drives the three
// paths a DISC user pays for — sessions served over HTTP, whole
// simulator runs, and the Table 4.2/4.3 model sweeps — end to end, and
// in a separate traced run breaks each path into the layers it calls.
// README.md in this directory describes the workloads, the metrics and
// the predictions they encode.
//
// Usage:
//
//	discbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out dir]
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": n, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end set; with --trace 1 they
// are the per-layer set, and the traced run's spans are written as
// Chrome trace-event JSON to <out>/traces/<workload>-<seed>.json.
// Progress and check failures go to standard error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// defaultSeed is the seed whose output digests are recorded in
// recordedDigest. Every run re-checks the default seed's digest, so a
// change that alters simulated results fails on any --seed.
const defaultSeed = 1

// recordedDigest pins each workload's simulated results at the default
// seed: Stats and BlockStats after warm-up for the sim and serve
// workloads, every table cell for the sweep.
var recordedDigest = map[string]string{
	"serve_http":  "836eabe4bb1870d9",
	"sim_multi":   "c89af3788ca1981e",
	"sim_fused":   "32782a1cb8f1454d",
	"table_sweep": "79e7a791cf46372c",
}

// metricDef declares one metric; better is "lower" or "higher".
type metricDef struct{ name, unit, better string }

// endToEnd is the untraced run's metric set; every workload reports
// each of them (README.md gives each workload's meaning).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"heap_mb", "MB", "lower"},
	{"mcyc_per_s", "Mcyc/s", "higher"},
	{"step_p50_ms", "ms", "lower"},
	{"step_p99_ms", "ms", "lower"},
	{"long_p50_ms", "ms", "lower"},
	{"fork_p50_ms", "ms", "lower"},
}

var serveOps = []string{"step", "long", "fork", "snapshot", "inspect", "metrics"}

var loadNames = []string{"ld1", "ld2", "ld3", "ld4"}

// perLayer is the traced run's metric set. A layer the workload does
// not drive reports 0.
var perLayer = func() []metricDef {
	var d []metricDef
	lo := func(name, unit string) { d = append(d, metricDef{name, unit, "lower"}) }
	hi := func(name, unit string) { d = append(d, metricDef{name, unit, "higher"}) }
	hi("host.speed", "x")
	lo("gc.cycles", "count")
	lo("gc.pause_ms", "ms")
	lo("alloc_mb", "MB")
	hi("traced.mcyc_per_s", "Mcyc/s")
	lo("traced.step_p50_ms", "ms")
	lo("asm.assemble_ms", "ms")
	lo("xval.build_ms", "ms")
	lo("blockc.attach_ms", "ms")
	for _, l := range loadNames {
		lo("core.ns_per_cycle."+l, "ns")
	}
	for _, l := range loadNames {
		hi("core.ref_speedup."+l, "x")
	}
	hi("core.ipc", "instr/cyc")
	lo("core.idle_share", "share")
	lo("core.dispatches", "1/Mcyc")
	lo("core.bus_waits", "1/Mcyc")
	lo("core.bus_retries", "1/Mcyc")
	for _, l := range loadNames {
		hi("block.fused_share."+l, "share")
	}
	for _, l := range loadNames {
		hi("block.speedup."+l, "x")
	}
	hi("block.cycles_per_session", "cyc")
	lo("block.bail_share", "share")
	lo("block.demotes", "count")
	lo("snap.encode_ms", "ms")
	lo("snap.decode_restore_ms", "ms")
	lo("snap.bytes", "B")
	for _, kind := range []string{"rtt_ms", "handler_ms", "call_ms"} {
		for _, op := range serveOps {
			lo("serve."+kind+"."+op+".p50", "ms")
			lo("serve."+kind+"."+op+".p99", "ms")
		}
	}
	for _, op := range serveOps {
		hi("serve.count."+op, "count")
	}
	lo("serve.transport_ms.step", "ms")
	lo("serve.json_ms.step", "ms")
	lo("serve.call_ms.step_obs.p50", "ms")
	lo("serve.call_ms.step_plain.p50", "ms")
	lo("serve.blocked_share", "share")
	lo("serve.rejected", "count")
	lo("gen.lag_p99_ms", "ms")
	lo("stoch.run_ms", "ms")
	hi("stoch.mcyc_per_s", "Mcyc/s")
	lo("baseline.run_ms", "ms")
	hi("parallel.busy_share", "share")
	lo("parallel.tail_ms", "ms")
	hi("attr.sim.closure", "ratio")
	hi("attr.serve.closure", "ratio")
	hi("attr.sweep.closure", "ratio")
	return d
}()

// attrTolerance is how far an attribution row's parts may sum from its
// whole: |parts/whole − 1| ≤ attrTolerance.
const attrTolerance = 0.10

// runConfig is what every workload receives.
type runConfig struct {
	seed    uint64
	seconds float64
	trace   bool
	out     string
}

func (c runConfig) duration() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// result is what every workload returns.
type result struct {
	attempted, failed int
	problems          []string // failed checks; any one makes correct false
	m                 map[string]float64
}

func newResult() *result { return &result{m: map[string]float64{}} }

func (r *result) set(name string, v float64) { r.m[name] = v }

func (r *result) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// checkDigests compares the repeated set-ups' digests with each other
// and the default seed's digest with the recorded one.
func (r *result) checkDigests(workload string, repeats []string, dflt string) {
	for i, d := range repeats {
		if d != repeats[0] {
			r.fail("digest: set-up %d gave %s, set-up 0 gave %s", i, d, repeats[0])
		}
	}
	want := recordedDigest[workload]
	fmt.Fprintf(os.Stderr, "discbench: %s default-seed digest %s (recorded %s)\n", workload, dflt, want)
	if dflt != want {
		r.fail("digest: default seed gives %s, recorded %s", dflt, want)
	}
}

var workloads = map[string]func(runConfig) (*result, error){
	"serve_http":  runServe,
	"sim_multi":   func(c runConfig) (*result, error) { return runSim(c, simMulti) },
	"sim_fused":   func(c runConfig) (*result, error) { return runSim(c, simFused) },
	"table_sweep": runSweep,
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload: serve_http, sim_multi, sim_fused or table_sweep")
	seed := flag.Uint64("seed", defaultSeed, "workload seed")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 runs the traced, per-layer variant")
	out := flag.String("out", ".bench_build", "directory for trace files")
	list := flag.Bool("list-metrics", false, "print the per-layer metric declarations as BENCHMARK.json entries and exit")
	flag.Parse()
	if *list {
		var entries []map[string]string
		for _, d := range perLayer {
			entries = append(entries, map[string]string{"name": d.name, "unit": d.unit, "better": d.better})
		}
		b, err := json.Marshal(entries)
		if err != nil {
			fmt.Fprintln(os.Stderr, "discbench:", err)
			return 1
		}
		fmt.Println(string(b))
		return 0
	}
	fn, ok := workloads[*name]
	if !ok || flag.NArg() != 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "usage: discbench --workload {%s} --seed n --seconds s --trace 0|1\n", strings.Join(names, ","))
		return 2
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, out: *out}
	fmt.Fprintf(os.Stderr, "discbench: %s seed %d, %gs, trace %v, %s, GOMAXPROCS %d\n",
		*name, cfg.seed, cfg.seconds, cfg.trace, runtime.Version(), runtime.GOMAXPROCS(0))
	res, err := fn(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "discbench:", err)
		return 1
	}

	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	reported := map[string]any{}
	for _, d := range defs {
		reported[d.name] = map[string]any{"value": res.m[d.name], "unit": d.unit}
	}
	// A workload sets metrics of both sets; a name in neither is a typo.
	known := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		known[d.name] = true
	}
	for n := range res.m {
		if !known[n] {
			fmt.Fprintf(os.Stderr, "discbench: internal error: metric %q is not declared\n", n)
			return 1
		}
	}
	if res.failed > 0 {
		res.fail("%d of %d operations failed", res.failed, res.attempted)
	}
	for _, p := range res.problems {
		fmt.Fprintln(os.Stderr, "discbench: check failed:", p)
	}
	line, err := json.Marshal(map[string]any{
		"correct":   len(res.problems) == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   reported,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "discbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// tracePath names the traced run's span file.
func tracePath(cfg runConfig, workload string) string {
	return filepath.Join(cfg.out, "traces", fmt.Sprintf("%s-%d.json", workload, cfg.seed))
}
