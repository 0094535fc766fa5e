// Deterministic hot-loop contracts over the Table 4.1 loads: every
// engine's steady-state step allocates nothing, with or without a
// recorder attached, and the block engine's session-stat shape — load 3
// fusing, the bus-bound loads demoting — holds exactly. Neither test
// reads a clock; the speed numbers themselves are the benchmark's
// (discbench: core.ns_per_cycle.ld*, core.ref_speedup.ld*,
// block.speedup.ld*).
package disc_test

import (
	"testing"

	"disc/internal/analysis"
	"disc/internal/blockc"
	"disc/internal/core"
	"disc/internal/obs"
	"disc/internal/rng"
	"disc/internal/workload"
	"disc/internal/xval"
)

// loadSeed derives load i's program seed, as discbench does. One seed
// for every load would make load 2 an exact repeat of load 1: always
// active, load 2 has load 1's mix.
func loadSeed(i int) uint64 { return rng.Child(1991, uint64(i)) }

// benchLoadMachine builds the standard 4-stream generated-program
// machine for workload p. The two bursty loads run always-active
// (program generation needs it); instruction mix, request spacing and
// latencies are theirs.
func benchLoadMachine(tb testing.TB, p workload.Params, seed uint64, cfg core.Config) *core.Machine {
	tb.Helper()
	p.MeanOn, p.MeanOff = 0, 0
	m, err := xval.NewLoadMachine(p, 4, seed, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// benchBlockSetup builds a single-stream load machine, optionally with
// an analysis-planned block table attached — the configuration where
// the sole-ready session entry can actually fire. Multi-stream
// interleave falls back to the per-cycle path by design (DESIGN.md §13).
func benchBlockSetup(tb testing.TB, p workload.Params, seed uint64, attach bool) *core.Machine {
	tb.Helper()
	p.MeanOn, p.MeanOff = 0, 0
	setup, err := xval.NewLoadSetup(p, 1, seed, core.Config{})
	if err != nil {
		tb.Fatal(err)
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

// TestObsDisabledZeroAllocs pins the allocation contract of every
// stepping engine on every Table 4.1 load: the optimized and reference
// pipelines' Step and the liveness Guard's StepN, over a plain machine
// and over fused block sessions, allocate nothing in steady state with
// hooks nil — and Step allocates nothing either while a recorder is
// attached (ring writes and metrics folds are in-place), so enabling
// the flight recorder cannot start GC pressure.
func TestObsDisabledZeroAllocs(t *testing.T) {
	const window = 256 // cycles per StepN call
	engines := []struct {
		name  string
		build func(testing.TB, workload.Params, uint64) func()
	}{
		{"optimized-Step", func(tb testing.TB, p workload.Params, seed uint64) func() {
			m := benchLoadMachine(tb, p, seed, core.Config{})
			return func() { m.Step() }
		}},
		{"reference-Step", func(tb testing.TB, p workload.Params, seed uint64) func() {
			m := benchLoadMachine(tb, p, seed, core.Config{Reference: true})
			return func() { m.Step() }
		}},
		{"block-guard-StepN", func(tb testing.TB, p workload.Params, seed uint64) func() {
			g := benchBlockSetup(tb, p, seed, true).NewGuard(50_000)
			return func() {
				if _, done, err := g.StepN(window); done || err != nil {
					tb.Errorf("StepN: done=%v err=%v on a load that never halts", done, err)
				}
			}
		}},
		{"guard-StepN", func(tb testing.TB, p workload.Params, seed uint64) func() {
			g := benchLoadMachine(tb, p, seed, core.Config{}).NewGuard(50_000) // discserve's stall window
			return func() {
				if _, done, err := g.StepN(window); done || err != nil {
					tb.Errorf("StepN: done=%v err=%v on a load that never halts", done, err)
				}
			}
		}},
	}
	for i, p := range workload.Base() {
		for _, e := range engines {
			t.Run(p.Name+"/"+e.name, func(t *testing.T) {
				step := e.build(t, p, loadSeed(i))
				for i := 0; i < 64; i++ { // past the pipeline fill transient
					step()
				}
				if allocs := testing.AllocsPerRun(2000, step); allocs != 0 {
					t.Errorf("%v allocs/op, want 0", allocs)
				}
			})
		}
	}

	m := benchLoadMachine(t, workload.Ld1, loadSeed(0), core.Config{})
	rec := obs.NewRecorder(1 << 12)
	rec.EnableMetrics(4)
	m.SetRecorder(rec)
	m.Run(64)
	if allocs := testing.AllocsPerRun(2000, func() { m.Step() }); allocs != 0 {
		t.Errorf("Step with recorder attached: %v allocs/op, want 0", allocs)
	}
}

// TestBlockTableShape pins what BuildBlockTable qualifies on each Table
// 4.1 load, through the analysis planner (as discsim -block-engine and
// discbench attach it) and over the whole image: a change to the
// fusible-instruction predicate shows here as a moved count.
func TestBlockTableShape(t *testing.T) {
	type shape struct{ compiled, regions, skipped int }
	want := map[string][2]shape{
		"load1": {{535, 74, 0}, {2175, 1, 0}},
		"load2": {{480, 69, 0}, {2187, 1, 0}},
		"load3": {{2003, 1, 0}, {2003, 1, 0}},
		"load4": {{515, 78, 0}, {2317, 1, 0}},
	}
	for i, p := range workload.Base() {
		m := benchBlockSetup(t, p, loadSeed(i), true)
		planned := m.AttachedBlockTable()
		whole := core.BuildBlockTable(m.Program(),
			[]core.RegionSpec{{Start: 0, End: uint16(m.Program().Limit() - 1)}})
		got := [2]shape{
			{planned.Compiled, planned.Regions, planned.Skipped},
			{whole.Compiled, whole.Regions, whole.Skipped},
		}
		if got != want[p.Name] {
			t.Errorf("%s: {compiled, regions, skipped} planned/whole = %v, want %v", p.Name, got, want[p.Name])
		}
	}
}

// TestBlockFusionCoverage pins the deterministic session-stat shape
// per Table 4.1 load: the compute-bound mix (load 3) must execute
// essentially everywhere inside fused sessions, and on the bus-bound
// loads — whose sessions are legal but too short to pay for their
// entry proofs — the adaptive gate must engage and bench regions
// rather than letting the engine grind through chronically
// unprofitable dispatch. Execution is bit-deterministic (seeded
// programs, no wall-clock in core), so exact-stat regressions here
// name the subsystem that broke without any timing sensitivity.
func TestBlockFusionCoverage(t *testing.T) {
	const cycles = 2_000_000
	for i, p := range workload.Base() {
		m := benchBlockSetup(t, p, loadSeed(i), true)
		m.Run(cycles)
		bs := m.BlockStats()
		share := float64(bs.FusedCycles) / float64(cycles)
		t.Logf("%s: fused share %.3f, %d sessions, %d bails, %d demotes, %d promotes",
			p.Name, share, bs.Sessions, bs.Bails, bs.Demotes, bs.Promotes)
		if p.Name == "load3" {
			if share < 0.9 {
				t.Errorf("load3: fused share %.3f, want >= 0.9 — the compute-bound mix stopped fusing", share)
			}
			continue
		}
		// The other mixes are bus-bound: sessions stay legal but short,
		// so the win comes from the gate getting out of the way.
		if share < 0.25 && bs.Demotes == 0 {
			t.Errorf("%s: fused share %.3f with no gate demotions — chronically short sessions are running ungated", p.Name, share)
		}
	}
}
