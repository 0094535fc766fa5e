// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation section (run with `go test -bench=. -benchmem`), plus the
// ablations indexed in DESIGN.md §3. The custom metrics attached via
// b.ReportMetric carry the reproduced results — PD, Delta, latency —
// so a bench run regenerates the numbers recorded in EXPERIMENTS.md.
// Simulator speed is measured by the discbench harness, not here.
package disc_test

import (
	"fmt"
	"testing"

	"disc"
	"disc/internal/baseline"
	"disc/internal/rt"
	"disc/internal/stoch"
	"disc/internal/study"
	"disc/internal/tables"
	"disc/internal/workload"
	"disc/internal/xval"
)

// benchCycles keeps each iteration fast while preserving the shapes.
const benchCycles = 30000

var benchOpts = tables.Opts{Cycles: benchCycles, Seed: 1991}

// BenchmarkTable41_Loads regenerates the parameter table (E1).
func BenchmarkTable41_Loads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := tables.Table41()
		if len(rows) != 7 {
			b.Fatal("table 4.1 malformed")
		}
	}
}

// BenchmarkTable42a_Utilization regenerates Table 4.2a (E2): PD per
// load per degree of partitioning.
func BenchmarkTable42a_Utilization(b *testing.B) {
	var rows []tables.Table42Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = tables.Table42(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		for k := 0; k < tables.MaxStreams; k++ {
			b.ReportMetric(r.PD[k], fmt.Sprintf("PD_%s_%dIS", r.Load, k+1))
		}
	}
}

// BenchmarkTable42b_Delta regenerates Table 4.2b (E3).
func BenchmarkTable42b_Delta(b *testing.B) {
	var rows []tables.Table42Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = tables.Table42(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.Delta[0], "delta%_"+r.Load+"_1IS")
		b.ReportMetric(r.Delta[3], "delta%_"+r.Load+"_4IS")
	}
}

// BenchmarkTable43a_Utilization regenerates Table 4.3a (E4).
func BenchmarkTable43a_Utilization(b *testing.B) {
	var rows []tables.Table43Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = tables.Table43(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		for c, name := range tables.Table43Configs {
			b.ReportMetric(r.PD[c], "PD_"+r.Pair+"_"+name[:4])
		}
	}
}

// BenchmarkTable43b_Delta regenerates Table 4.3b (E5).
func BenchmarkTable43b_Delta(b *testing.B) {
	var rows []tables.Table43Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = tables.Table43(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.Delta[0], "delta%_"+r.Pair+"_comb")
		b.ReportMetric(r.Delta[1], "delta%_"+r.Pair+"_sep")
	}
}

const benchLoops = `
.org 0x000
a: ADDI R0, 1
   ADDI R1, 1
   ADDI R2, 1
   ADDI R3, 1
   JMP a
.org 0x100
b: ADDI R0, 1
   ADDI R1, 1
   ADDI R2, 1
   ADDI R3, 1
   JMP b
.org 0x200
c: ADDI R0, 1
   ADDI R1, 1
   ADDI R2, 1
   ADDI R3, 1
   JMP c
.org 0x300
d: ADDI R0, 1
   ADDI R1, 1
   ADDI R2, 1
   ADDI R3, 1
   JMP d
`

func fourStream(b *testing.B, cfg disc.Config) *disc.Machine {
	b.Helper()
	m, err := disc.Build(cfg, benchLoops, map[int]string{0: "a", 1: "b", 2: "c", 3: "d"})
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkFigure31_Interleave (E6): the interleaved pipeline on the
// real machine; the metric is steady-state utilization (paper: ~1).
func BenchmarkFigure31_Interleave(b *testing.B) {
	m := fourStream(b, disc.Config{Streams: 4})
	m.Run(16)
	m.ResetStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Step()
	}
	b.ReportMetric(m.Stats().Utilization(), "PD")
}

// BenchmarkFigure32_JumpFlush (E7): branchy code, single stream versus
// full interleave — the gap is the hazard cost interleaving removes.
func BenchmarkFigure32_JumpFlush(b *testing.B) {
	jumpy := disc.SimpleLoad(disc.LoadParams{Name: "jumpy", AlJmp: 1})
	var single, four float64
	for i := 0; i < b.N; i++ {
		r1, err := disc.Simulate(disc.StochConfig{Cycles: benchCycles, Streams: []disc.Load{jumpy}})
		if err != nil {
			b.Fatal(err)
		}
		r4, err := disc.Simulate(disc.StochConfig{Cycles: benchCycles,
			Streams: []disc.Load{jumpy, jumpy, jumpy, jumpy}})
		if err != nil {
			b.Fatal(err)
		}
		single, four = r1.PD(), r4.PD()
	}
	b.ReportMetric(single, "PD_1IS")
	b.ReportMetric(four, "PD_4IS")
}

// BenchmarkFigure33_DynamicRealloc (E8): a partitioned machine whose
// side streams halt; the metric is the busy stream's final throughput
// share (paper: it receives T).
func BenchmarkFigure33_DynamicRealloc(b *testing.B) {
	var lateShare float64
	for i := 0; i < b.N; i++ {
		m, err := disc.Build(disc.Config{Streams: 4, Shares: []int{3, 1, 1, 1}}, benchLoops+`
.org 0x400
t1: LDI R0, 40
u1: SUBI R0, 1
    BNE u1
    HALT
`, map[int]string{0: "a", 1: "t1"})
		if err != nil {
			b.Fatal(err)
		}
		series := disc.ThroughputSeries(m, 8, 100)
		total := 0.0
		for _, v := range series[7] {
			total += v
		}
		lateShare = series[7][0] / total
	}
	b.ReportMetric(lateShare, "late_share_IS1")
}

// BenchmarkFigure34_StackWindow (E9): call/return throughput through
// the stack-window file — the §3.5 mechanism under load.
func BenchmarkFigure34_StackWindow(b *testing.B) {
	m, err := disc.Build(disc.Config{Streams: 1}, `
main:
    CALL fn
    JMP  main
fn: NOP+
    NOP+
    RET 2
`, map[int]string{0: "main"})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Step()
	}
	b.ReportMetric(m.Stats().Utilization(), "PD")
}

// BenchmarkExtra_InterruptLatency (E11): dedicated-stream dispatch
// latency versus the conventional context-saving controller.
func BenchmarkExtra_InterruptLatency(b *testing.B) {
	var worst uint64
	for i := 0; i < b.N; i++ {
		m, err := disc.Build(disc.Config{Streams: 2, VectorBase: 0x200}, `
.org 0
bg: ADDI R0, 1
    JMP bg
.org 0x20B
    RETI
`, map[int]string{0: "bg"})
		if err != nil {
			b.Fatal(err)
		}
		m.Run(10)
		samples, _, err := disc.MeasureDispatchLatency(m, 1, 3, 40, 60)
		if err != nil {
			b.Fatal(err)
		}
		worst = samples.Max()
	}
	b.ReportMetric(float64(worst), "disc_worst_cycles")
	b.ReportMetric(float64(rt.ConventionalLatency(4, 12, 4)), "conventional_cycles")
}

// BenchmarkExtra_SingleStreamPenalty (E12): the §5 concession — a lone
// stream on request-heavy code does worse on DISC than on a standard
// machine because of the conservative flush.
func BenchmarkExtra_SingleStreamPenalty(b *testing.B) {
	p := workload.Params{Name: "sweep", MeanReq: 10, Alpha: 1, TMem: 6, AlJmp: 0.05}
	var delta float64
	for i := 0; i < b.N; i++ {
		res, err := stoch.Run(stoch.Config{Cycles: benchCycles,
			Streams: []workload.Load{workload.Simple(p)}})
		if err != nil {
			b.Fatal(err)
		}
		base, err := baseline.Run(workload.Simple(p), 4, benchCycles, 1)
		if err != nil {
			b.Fatal(err)
		}
		delta = stoch.Delta(res.PD(), base.Ps())
	}
	b.ReportMetric(delta, "delta%_1IS")
}

// BenchmarkAblation_SchedulerGranularity (E13): the same 3:1 partition
// expressed with 4-slot and 16-slot tables; finer granularity smooths
// the high-priority stream's service and the difference shows up in
// the minority stream's share stability.
func BenchmarkAblation_SchedulerGranularity(b *testing.B) {
	cpu := workload.Simple(workload.Params{Name: "cpu"})
	run := func(slots []int) float64 {
		res, err := stoch.Run(stoch.Config{
			Cycles:  benchCycles,
			Streams: []workload.Load{cpu, cpu},
			Slots:   slots,
		})
		if err != nil {
			b.Fatal(err)
		}
		return float64(res.PerStream[0].Executed) / float64(res.Executed)
	}
	coarse := []int{0, 0, 0, 1}
	fine := []int{0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1}
	var cs, fs float64
	for i := 0; i < b.N; i++ {
		cs = run(coarse)
		fs = run(fine)
	}
	b.ReportMetric(cs, "share0_4slot")
	b.ReportMetric(fs, "share0_16slot")
}

// BenchmarkAblation_PipelineDepth (E14): PD for load1 across pipeline
// depths — deeper pipes raise the hazard cost that interleaving hides.
func BenchmarkAblation_PipelineDepth(b *testing.B) {
	l := workload.Simple(workload.Ld1)
	depths := []int{2, 4, 6, 8}
	pds := make([]float64, len(depths))
	for i := 0; i < b.N; i++ {
		for di, d := range depths {
			res, err := stoch.Run(stoch.Config{
				PipeLen: d,
				Cycles:  benchCycles,
				Streams: []workload.Load{l, l, l, l},
			})
			if err != nil {
				b.Fatal(err)
			}
			pds[di] = res.PD()
		}
	}
	for di, d := range depths {
		b.ReportMetric(pds[di], fmt.Sprintf("PD_pipe%d", d))
	}
}

// BenchmarkAblation_BusContention (E15): the single asynchronous bus
// saturates as I/O-bound streams are added; rejections climb.
func BenchmarkAblation_BusContention(b *testing.B) {
	io := workload.Simple(workload.Params{Name: "io", MeanReq: 4, Alpha: 1, TMem: 12})
	var busy4 float64
	var rejects4 uint64
	for i := 0; i < b.N; i++ {
		for k := 1; k <= 4; k++ {
			streams := make([]workload.Load, k)
			for s := range streams {
				streams[s] = io
			}
			res, err := stoch.Run(stoch.Config{Cycles: benchCycles, Streams: streams})
			if err != nil {
				b.Fatal(err)
			}
			if k == 4 {
				busy4 = float64(res.BusBusy) / float64(res.Cycles)
				rejects4 = 0
				for _, ps := range res.PerStream {
					rejects4 += ps.Rejects
				}
			}
		}
	}
	b.ReportMetric(busy4, "bus_busy_frac_4IS")
	b.ReportMetric(float64(rejects4), "rejects_4IS")
	// The dual-channel counterfactual: what a second bus would buy.
	var pd1, pd2 float64
	for i := 0; i < b.N; i++ {
		streams := []workload.Load{io, io, io, io}
		r1, err := stoch.Run(stoch.Config{Cycles: benchCycles, Streams: streams, Buses: 1})
		if err != nil {
			b.Fatal(err)
		}
		r2, err := stoch.Run(stoch.Config{Cycles: benchCycles, Streams: streams, Buses: 2})
		if err != nil {
			b.Fatal(err)
		}
		pd1, pd2 = r1.PD(), r2.PD()
	}
	b.ReportMetric(pd1, "PD_4IS_1bus")
	b.ReportMetric(pd2, "PD_4IS_2bus")
}

// ---- §5 future-work studies ----

// BenchmarkFutureWork_StreamSweep finds the optimum stream count for
// load 1 (the §5 question DISC1's fixed four streams left open).
func BenchmarkFutureWork_StreamSweep(b *testing.B) {
	var knee int
	var pd8 float64
	for i := 0; i < b.N; i++ {
		points, k, err := study.StreamSweep(study.SweepConfig{
			Load: workload.Simple(workload.Ld1), MaxStreams: 8,
			Cycles: benchCycles, Seed: 3, PipeLen: 4, Threshold: 0.02,
		})
		if err != nil {
			b.Fatal(err)
		}
		knee, pd8 = k, points[7].PD
	}
	b.ReportMetric(float64(knee), "knee_streams")
	b.ReportMetric(pd8, "PD_8IS")
}

// BenchmarkFutureWork_StackDepth evaluates spill/fill traffic against
// the per-stream register budget.
func BenchmarkFutureWork_StackDepth(b *testing.B) {
	p := study.DefaultStackParams()
	p.Instrs = benchCycles
	var t16, t64 float64
	for i := 0; i < b.N; i++ {
		rows, err := study.StackDepth(p, []int{16, 64})
		if err != nil {
			b.Fatal(err)
		}
		t16, t64 = rows[0].TrafficPct, rows[1].TrafficPct
	}
	b.ReportMetric(t16, "traffic_d16")
	b.ReportMetric(t64, "traffic_d64")
}

// BenchmarkFutureWork_LatencyUnderLoad measures worst-case dispatch
// latency with the machine saturated by three other streams.
func BenchmarkFutureWork_LatencyUnderLoad(b *testing.B) {
	var worst uint64
	for i := 0; i < b.N; i++ {
		rows, err := study.LatencyUnderLoad([]int{3}, 40, nil)
		if err != nil {
			b.Fatal(err)
		}
		worst = rows[0].Max
	}
	b.ReportMetric(float64(worst), "worst_cycles_loaded")
}

// BenchmarkXval_MachineVsModel (E20): the machine and the stochastic
// model on statistically matched programs — the model must be the
// conservative lower bound the paper intends.
func BenchmarkXval_MachineVsModel(b *testing.B) {
	var machinePD, modelPD float64
	for i := 0; i < b.N; i++ {
		res, err := xval.Sweep(workload.Ld1, []int{4}, benchCycles, 9)
		if err != nil {
			b.Fatal(err)
		}
		machinePD, modelPD = res[0].MachinePD, res[0].ModelPD
	}
	b.ReportMetric(machinePD, "machine_PD_4IS")
	b.ReportMetric(modelPD, "model_PD_4IS")
}

// BenchmarkAblation_FixedVsVariableWindows (E21): §2's motivation for
// the variable-size stack window, as a spill-traffic ratio.
func BenchmarkAblation_FixedVsVariableWindows(b *testing.B) {
	p := study.DefaultStackParams()
	p.Instrs = benchCycles
	var ratio float64
	for i := 0; i < b.N; i++ {
		rows, err := study.FixedVsVariable(p, []int{48})
		if err != nil {
			b.Fatal(err)
		}
		ratio = rows[0].Ratio
	}
	b.ReportMetric(ratio, "fixed_over_variable")
}

// BenchmarkMinicCompileAndRun measures the whole software stack: minic
// source -> assembly -> machine execution of an iterative fib(20).
func BenchmarkMinicCompileAndRun(b *testing.B) {
	src := `
var f;
func fib(n) {
    var a; var b; var i;
    a = 0; b = 1; i = 0;
    while (i < n) { var t; t = a + b; a = b; b = t; i = i + 1; }
    return a;
}
func main() { f = fib(20); }`
	for i := 0; i < b.N; i++ {
		m, prog, err := disc.BuildMinic(src, disc.MinicOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if _, idle := m.RunUntilIdle(100000); !idle {
			b.Fatal("did not halt")
		}
		if m.Internal().Read(prog.Globals["f"]) != 6765 {
			b.Fatal("wrong fib(20)")
		}
	}
}
