package disc_test

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"disc/internal/asm"
	"disc/internal/core"
	"disc/internal/isa"
	"disc/internal/workload"
	"disc/internal/xval"
)

// This file proves the hot-loop overhaul end to end, at the level a
// user observes: every embedded example program and every Table 4.1
// workload must produce byte-identical statistics and architectural
// state on the optimized pipeline and on the retained reference
// pipeline (core.Config.Reference). The fast side additionally runs
// with CheckReadiness, so the incremental ready mask self-verifies
// against a per-cycle recompute throughout.

// observableState collects everything about a machine that the public
// API exposes, for whole-machine comparison.
func observableState(m *core.Machine) map[string]interface{} {
	st := map[string]interface{}{
		"cycle": m.Cycle(),
		"stats": m.Stats(),
		"imem":  m.Internal().Snapshot(),
	}
	for i := 0; i < m.Streams(); i++ {
		u := m.Interrupts(i)
		st[string(rune('0'+i))] = []interface{}{
			m.StreamPC(i), m.StreamState(i), m.Window(i), u.IR(), u.MR(), u.Level(),
		}
	}
	globals := make([]uint16, isa.NumGlobals)
	for g := range globals {
		globals[g] = m.Global(g)
	}
	st["globals"] = globals
	return st
}

func assertSameRun(t *testing.T, tag string, fast, ref *core.Machine, cycles int) {
	t.Helper()
	fast.Run(cycles)
	ref.Run(cycles)
	fs, rs := observableState(fast), observableState(ref)
	if !reflect.DeepEqual(fs, rs) {
		t.Errorf("%s: optimized and reference pipelines diverged after %d cycles\nfast: %+v\nref:  %+v",
			tag, cycles, fs, rs)
	}
}

// TestExamplesEquivalence runs every assemblable embedded example
// program on both pipelines and requires identical results.
func TestExamplesEquivalence(t *testing.T) {
	files, err := filepath.Glob("examples/*/main.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("no examples found: %v", err)
	}
	ran := 0
	for _, path := range files {
		for name, src := range stringConsts(t, path) {
			if !strings.Contains(src, "\n") {
				continue
			}
			im, err := asm.Assemble(src)
			if err != nil || len(im.Sections) == 0 {
				continue // minic source, a fragment, or no emitted code
			}
			// Start at "main" when the program defines it, else at the
			// lowest section base — any deterministic entry is a valid
			// differential input; the pipelines must agree from anywhere.
			entry, hasMain := im.Labels["main"]
			if !hasMain {
				entry = im.Sections[0].Base
				for _, sec := range im.Sections {
					if sec.Base < entry {
						entry = sec.Base
					}
				}
			}
			tag := filepath.Base(filepath.Dir(path)) + "/" + name
			build := func(cfg core.Config) *core.Machine {
				cfg.Streams = isa.NumStreams
				cfg.VectorBase = 0x200
				m := core.MustNew(cfg)
				if err := im.Load(m, nil); err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				if err := m.StartStream(0, entry); err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				return m
			}
			fast := build(core.Config{CheckReadiness: true})
			ref := build(core.Config{Reference: true})
			assertSameRun(t, tag, fast, ref, 5000)
			ran++
		}
	}
	if ran < 4 {
		t.Fatalf("only %d example programs compared; extraction broke", ran)
	}
}

// TestTableLoadsEquivalence drives the four Table 4.1 workloads through
// both pipelines via the same generated-program machines the
// cross-validation harness uses, at every stream count, and requires
// identical statistics — i.e. identical PD cells in the replicated
// tables. Program generation needs an always-active stream (xval's
// constraint), so the two bursty loads run with their on/off dwell
// times zeroed; their instruction mix, request spacing and latency
// parameters are untouched.
func TestTableLoadsEquivalence(t *testing.T) {
	for _, p := range workload.Base() {
		p.MeanOn, p.MeanOff = 0, 0
		for k := 1; k <= isa.NumStreams; k++ {
			fast, err := xval.NewLoadMachine(p, k, 0x5EED, core.Config{CheckReadiness: true})
			if err != nil {
				t.Fatal(err)
			}
			ref, err := xval.NewLoadMachine(p, k, 0x5EED, core.Config{Reference: true})
			if err != nil {
				t.Fatal(err)
			}
			tag := p.Name + "/k=" + string(rune('0'+k))
			assertSameRun(t, tag, fast, ref, 20000)
			if fu, ru := fast.Stats().Utilization(), ref.Stats().Utilization(); fu != ru {
				t.Errorf("%s: PD cell differs: fast %v, ref %v", tag, fu, ru)
			}
		}
	}
}
