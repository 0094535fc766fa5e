package baseline

import (
	"math"
	"testing"

	"disc/internal/rng"
	"disc/internal/workload"
)

func TestValidation(t *testing.T) {
	l := workload.Simple(workload.Ld1)
	if _, err := Run(l, 1, 1000, 1); err == nil {
		t.Fatal("pipe length 1 accepted")
	}
	if _, err := Run(l, 4, 0, 1); err == nil {
		t.Fatal("zero cycles accepted")
	}
	if _, err := Run(workload.Load{Name: "bad"}, 4, 1000, 1); err == nil {
		t.Fatal("invalid load accepted")
	}
}

// TestPureComputePsIsOne: no jumps, no requests -> Ps = 1.
func TestPureComputePsIsOne(t *testing.T) {
	pure := workload.Simple(workload.Params{Name: "pure"})
	r, err := Run(pure, 4, 20000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Ps() != 1 {
		t.Fatalf("Ps = %v", r.Ps())
	}
	if r.Executed != r.Cycles {
		t.Fatalf("executed %d of %d cycles", r.Executed, r.Cycles)
	}
}

// TestPsMatchesClosedForm: Ps = 1 / (1 + aljmp*(L-1) + (1/meanreq)*E[lat]).
func TestPsMatchesClosedForm(t *testing.T) {
	p := workload.Params{
		Name: "cf", MeanReq: 10, Alpha: 0.5, TMem: 4, MeanIO: 20, AlJmp: 0.2,
	}
	const L = 4
	r, err := Run(workload.Simple(p), L, 400000, 3)
	if err != nil {
		t.Fatal(err)
	}
	expLat := p.Alpha*float64(p.TMem) + (1-p.Alpha)*p.MeanIO
	want := 1 / (1 + p.AlJmp*(L-1) + expLat/p.MeanReq)
	if math.Abs(r.Ps()-want) > 0.01 {
		t.Fatalf("Ps = %.4f, closed form %.4f", r.Ps(), want)
	}
}

// TestJumpPenaltyScalesWithPipe: deeper pipes hurt the baseline more,
// as §4.1 argues when justifying the (pipe_length-1) flush.
func TestJumpPenaltyScalesWithPipe(t *testing.T) {
	p := workload.Params{Name: "j", AlJmp: 0.3}
	ps := make([]float64, 0, 3)
	for _, L := range []int{2, 4, 8} {
		r, err := Run(workload.Simple(p), L, 100000, 5)
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, r.Ps())
	}
	if !(ps[0] > ps[1] && ps[1] > ps[2]) {
		t.Fatalf("Ps not decreasing with pipe depth: %v", ps)
	}
}

// TestOffCyclesExcludedFromPs: the paper's Ps formula has no idle term;
// a bursty load must not change Ps relative to its always-active twin.
func TestOffCyclesExcludedFromPs(t *testing.T) {
	active := workload.Params{Name: "a", MeanReq: 8, Alpha: 1, TMem: 6, AlJmp: 0.1}
	bursty := active
	bursty.Name = "b"
	bursty.MeanOn, bursty.MeanOff = 40, 200
	ra, err := Run(workload.Simple(active), 4, 300000, 9)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Run(workload.Simple(bursty), 4, 300000, 9)
	if err != nil {
		t.Fatal(err)
	}
	if rb.OffCycles == 0 {
		t.Fatal("bursty load recorded no off time")
	}
	if math.Abs(ra.Ps()-rb.Ps()) > 0.02 {
		t.Fatalf("Ps differs with idle time: %.4f vs %.4f", ra.Ps(), rb.Ps())
	}
	if rb.Utilization() >= ra.Utilization()-0.1 {
		t.Fatalf("utilization should collapse with idle: %.3f vs %.3f", rb.Utilization(), ra.Utilization())
	}
}

func TestDeterminism(t *testing.T) {
	l := workload.Simple(workload.Ld1)
	a, _ := Run(l, 4, 50000, 42)
	b, _ := Run(l, 4, 50000, 42)
	if a != b {
		t.Fatalf("non-deterministic: %+v vs %+v", a, b)
	}
}

func TestAccountingIdentity(t *testing.T) {
	r, err := Run(workload.Simple(workload.Ld2), 4, 100000, 13)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cycles != r.Executed+r.JumpDropped+r.BusBusy+r.OffCycles {
		t.Fatalf("cycle accounting broken: %+v", r)
	}
	if r.JumpDropped != r.Jumps*3 {
		t.Fatalf("jump drop accounting broken: %+v", r)
	}
}

// TestRunMatchesPerCycle: Run jumps each off gap in one step; it must
// return exactly what ticking the gap one cycle at a time returns, for
// every primary and composite load, including budgets that end inside
// a gap.
func TestRunMatchesPerCycle(t *testing.T) {
	loads := workload.Combined()
	for _, p := range workload.Base() {
		loads = append(loads, workload.Simple(p))
	}
	for _, l := range loads {
		for c := uint64(1); c <= 1500; c += 7 {
			got, err := Run(l, 4, c, c)
			if err != nil {
				t.Fatal(err)
			}
			if want := runPerCycle(l, 4, c, c); got != want {
				t.Fatalf("%s, %d cycles: got %+v, want %+v", l.Name, c, got, want)
			}
		}
	}
}

// runPerCycle is Run with one loop iteration per off cycle.
func runPerCycle(load workload.Load, pipeLen int, cycles, seed uint64) Result {
	proc := workload.NewProcess(load, rng.New(seed).Fork())
	var r Result
	for r.Cycles < cycles {
		if !proc.Active() {
			proc.TickIdle()
			r.Cycles++
			r.OffCycles++
			continue
		}
		kind, lat := proc.Issue()
		r.Cycles++
		r.Executed++
		switch kind {
		case workload.KindJump:
			r.Jumps++
			r.JumpDropped += uint64(pipeLen - 1)
			r.Cycles += uint64(pipeLen - 1)
		case workload.KindRequest:
			if lat > 0 {
				r.BusBusy += uint64(lat)
				r.Cycles += uint64(lat)
			}
		}
	}
	return r
}
