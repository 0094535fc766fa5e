package blockc

import (
	"reflect"
	"testing"

	"disc/internal/analysis"
	"disc/internal/asm"
	"disc/internal/core"
	"disc/internal/isa"
	"disc/internal/workload"
	"disc/internal/xval"
)

// assemble builds an image and loads it into a fresh machine.
func assemble(t *testing.T, src string, cfg core.Config) (*core.Machine, *asm.Image) {
	t.Helper()
	im, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	m, err := core.New(cfg)
	if err != nil {
		t.Fatalf("core.New: %v", err)
	}
	if err := im.Load(m, nil); err != nil {
		t.Fatalf("LoadProgram: %v", err)
	}
	return m, im
}

// A program with one long event-free run (ALU soup) and one block that
// touches the bus, which must end every fusible span.
const planSrc = `
main:
    LI   R7, 0x0400
    ADDI R0, 1
    ADDI R1, 2
    ADD  R2, R0, R1
    SUB  R3, R2, R1
    XOR  R0, R0, R3
    ADDI R2, 3
    LD   R4, [R7+1]
    ADDI R0, 1
    JMP  main
`

func TestPlanProposesEventFreeSpans(t *testing.T) {
	im, err := asm.Assemble(planSrc)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	sum, rep := analysis.Summarize(im, analysis.Options{
		Entries: []uint16{0},
		Streams: 1,
		BusRanges: []analysis.BusRange{
			{Base: isa.ExternalBase, Size: 64, Wait: 2},
		},
	})
	if n := rep.ErrorCount(); n != 0 {
		t.Fatalf("unexpected analysis errors: %d\n%+v", n, rep.Findings)
	}
	specs := Plan(sum)
	if len(specs) == 0 {
		t.Fatalf("Plan proposed no spans over an ALU-heavy program")
	}
	for _, sp := range specs {
		if int(sp.End)-int(sp.Start)+1 < core.MinFuseLen {
			t.Errorf("span [%d,%d] shorter than MinFuseLen %d", sp.Start, sp.End, core.MinFuseLen)
		}
		for _, b := range sum.Blocks {
			if b.BusAccesses > 0 && b.Start >= sp.Start && b.Start <= sp.End {
				t.Errorf("span [%d,%d] covers bus-access block at %d", sp.Start, sp.End, b.Start)
			}
		}
	}
}

func TestAttachCompilesAndStaysEquivalent(t *testing.T) {
	opts := analysis.Options{Entries: []uint16{0}, Streams: 1}
	cfg := core.Config{Streams: 1}

	plain, _ := assemble(t, planSrc, cfg)
	fused, im := assemble(t, planSrc, cfg)
	tbl, rep := Attach(fused, im, opts)
	if n := rep.ErrorCount(); n != 0 {
		t.Fatalf("unexpected analysis errors: %d", n)
	}
	if tbl.Compiled == 0 || tbl.Regions == 0 {
		t.Fatalf("Attach compiled nothing: %+v", tbl)
	}
	if fused.AttachedBlockTable() != tbl {
		t.Fatalf("table not attached to machine")
	}
	cov := PlanCoverage(tbl, Plan(mustSummary(t, im, opts)))
	if cov.Compiled == 0 || cov.Planned < cov.Compiled {
		t.Fatalf("implausible coverage: %+v", cov)
	}

	if err := plain.StartStream(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := fused.StartStream(0, 0); err != nil {
		t.Fatal(err)
	}
	const n = 20000
	plain.Run(n)
	fused.Run(n)
	if plain.Cycle() != fused.Cycle() {
		t.Fatalf("cycle mismatch: plain=%d fused=%d", plain.Cycle(), fused.Cycle())
	}
	if ps, fs := plain.Stats(), fused.Stats(); !reflect.DeepEqual(ps, fs) {
		t.Fatalf("stats diverge:\nplain: %+v\nfused: %+v", ps, fs)
	}
	if !reflect.DeepEqual(plain.Internal().Snapshot(), fused.Internal().Snapshot()) {
		t.Fatalf("internal memory diverges")
	}
	if fused.BlockStats().Sessions == 0 {
		t.Fatalf("no fused sessions ran — table never engaged")
	}
}

func mustSummary(t *testing.T, im *asm.Image, opts analysis.Options) *analysis.Summary {
	t.Helper()
	sum, _ := analysis.Summarize(im, opts)
	return sum
}

// attachLoadTable analyzes every stream image of a load setup and
// installs one concatenated table — the production path for
// multi-stream machines, where each stream's program lives in its own
// address range of the shared program store.
func attachLoadTable(t *testing.T, setup *xval.LoadSetup) *core.BlockTable {
	t.Helper()
	var specs []core.RegionSpec
	for si, im := range setup.Images {
		opts := analysis.Options{
			Entries: []uint16{setup.Entries[si]},
			Streams: len(setup.Images),
		}
		for _, d := range setup.Devices {
			opts.BusRanges = append(opts.BusRanges, analysis.BusRange{Base: d.Base, Size: d.Size, Wait: d.Wait})
		}
		sum, _ := analysis.Summarize(im, opts)
		specs = append(specs, Plan(sum)...)
	}
	tbl := core.BuildBlockTable(setup.Machine.Program(), specs)
	setup.Machine.SetBlockTable(tbl)
	return tbl
}

// TestTable41LoadEquiv drives the analysis→plan→compile→execute
// pipeline end to end over the paper's Table 4.1 workloads: the
// block-engine machine must match a plain machine bit for bit on
// statistics and memory, and must actually fuse on the ALU-heavy
// loads.
func TestTable41LoadEquiv(t *testing.T) {
	loads := []struct {
		name string
		p    workload.Params
	}{
		{"Ld1", workload.Ld1},
		{"Ld2", workload.Ld2},
		{"Ld3", workload.Ld3},
		{"Ld4", workload.Ld4},
	}
	for _, ld := range loads {
		for _, k := range []int{1, 4} {
			setupA, err := xval.NewLoadSetup(ld.p, k, 99, core.Config{})
			if err != nil {
				t.Fatalf("%s/k=%d: %v", ld.name, k, err)
			}
			setupB, err := xval.NewLoadSetup(ld.p, k, 99, core.Config{})
			if err != nil {
				t.Fatalf("%s/k=%d: %v", ld.name, k, err)
			}
			attachLoadTable(t, setupB)

			const n = 60000
			setupA.Machine.Run(n)
			setupB.Machine.Run(n)
			if a, b := setupA.Machine.Stats(), setupB.Machine.Stats(); !reflect.DeepEqual(a, b) {
				t.Errorf("%s/k=%d stats diverge:\nplain: %+v\nblock: %+v", ld.name, k, a, b)
			}
			if !reflect.DeepEqual(setupA.Machine.Internal().Snapshot(), setupB.Machine.Internal().Snapshot()) {
				t.Errorf("%s/k=%d internal memory diverges", ld.name, k)
			}
			if ld.name == "Ld3" && k == 1 && setupB.Machine.BlockStats().Sessions == 0 {
				t.Errorf("Ld3/k=1: ALU-heavy load fused no sessions")
			}
		}
	}
}
