package core_test

// Exactness of the guarded driver loop. Guard.StepN(k) over any split
// of a budget must make the same dispatches and reach the same verdict
// at the same cycle as Guard.Step driven once per cycle: same cycles
// run, same done flag, same *DeadlockError (cycle, window, streams) and
// byte-identical snapshots. Each case's outcome is also pinned against
// a golden (guardGolden), and the block engine's session statistics
// after a discbench-style advance pin the dispatch sequence itself.

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"sort"
	"testing"

	"disc/internal/analysis"
	"disc/internal/asm"
	"disc/internal/blockc"
	"disc/internal/core"
	"disc/internal/rng"
	"disc/internal/snap"
	"disc/internal/workload"
	"disc/internal/xval"
)

// stim maps a cycle count (cycles the driver has run) to stimulus
// applied just before that cycle, identically in every driver.
type stim map[int]func(m *core.Machine)

type loopCase struct {
	name   string
	build  func(t *testing.T) *core.Machine
	window uint64
	budget int
	stim   stim
}

// outcome is what a driver observed: cycles run, the guard's verdict
// and a digest of the machine's snapshot.
type outcome struct {
	cycles int
	done   bool
	err    error
	snap   []byte
}

func (o outcome) String() string {
	verdict := "running"
	switch {
	case o.done:
		verdict = "done"
	case o.err != nil:
		var dl *core.DeadlockError
		if !errors.As(o.err, &dl) {
			verdict = "error " + o.err.Error()
			break
		}
		verdict = fmt.Sprintf("deadlock cycle=%d window=%d streams=%v", dl.Cycle, dl.Window, dl.Streams)
	}
	sum := sha256.Sum256(o.snap)
	return fmt.Sprintf("cycles=%d %s snap=%x", o.cycles, verdict, sum[:8])
}

func finish(t *testing.T, m *core.Machine, n int, done bool, err error) outcome {
	t.Helper()
	b, serr := snap.Bytes(m)
	if serr != nil {
		t.Fatal(serr)
	}
	return outcome{cycles: n, done: done, err: err, snap: b}
}

// perCycle drives the case one Guard.Step at a time.
func perCycle(t *testing.T, c loopCase) outcome {
	m := c.build(t)
	g := m.NewGuard(c.window)
	for n := 0; n < c.budget; {
		if f := c.stim[n]; f != nil {
			f(m)
		}
		done, err := g.Step()
		n++
		if done || err != nil {
			return finish(t, m, n, done, err)
		}
	}
	return finish(t, m, c.budget, false, nil)
}

// chunk draws a StepN budget: single cycles and short calls often
// enough to land on every dispatch-rule edge, long calls to cover
// whole sessions and watchdog windows.
func chunk(src *rng.Source) int {
	switch src.Intn(3) {
	case 0:
		return 1 + src.Intn(4)
	case 1:
		return 5 + src.Intn(96)
	}
	return 100 + src.Intn(4900)
}

// split drives the case through Guard.StepN with seeded random budgets,
// each capped at the next stimulus point. Budgets the call does not
// finish (an idle verdict or a diagnosis) end the run.
func split(t *testing.T, c loopCase, seed uint64) outcome {
	m := c.build(t)
	g := m.NewGuard(c.window)
	var points []int
	for k := range c.stim {
		points = append(points, k)
	}
	sort.Ints(points)
	src := rng.New(seed)
	for n := 0; n < c.budget; {
		if f := c.stim[n]; f != nil {
			f(m)
		}
		k := min(chunk(src), c.budget-n)
		for _, p := range points {
			if p > n {
				k = min(k, p-n)
				break
			}
		}
		got, done, err := g.StepN(k)
		n += got
		if done || err != nil {
			return finish(t, m, n, done, err)
		}
		if got != k {
			t.Fatalf("%s: StepN(%d) ran %d cycles without a verdict", c.name, k, got)
		}
	}
	return finish(t, m, c.budget, false, nil)
}

// program builds a machine of the given streams with src assembled and
// the listed streams started at their entry labels.
func program(streams int, src string, starts map[int]string) func(t *testing.T) *core.Machine {
	return func(t *testing.T) *core.Machine {
		t.Helper()
		im, err := asm.Assemble(src)
		if err != nil {
			t.Fatal(err)
		}
		m, err := core.New(core.Config{Streams: streams})
		if err != nil {
			t.Fatal(err)
		}
		if err := im.Load(m, nil); err != nil {
			t.Fatal(err)
		}
		for s := 0; s < streams; s++ {
			if label, ok := starts[s]; ok {
				if err := m.StartStream(s, im.Labels[label]); err != nil {
					t.Fatal(err)
				}
			}
		}
		return m
	}
}

// tableLoad builds a Table 4.1 load at k streams, optionally with the
// block engine attached the way discsim -block-engine attaches it.
func tableLoad(p workload.Params, k int, seed uint64, block bool) func(t *testing.T) *core.Machine {
	return func(t *testing.T) *core.Machine {
		t.Helper()
		return guardSetup(t, p, k, seed, block).Machine
	}
}

func guardSetup(t *testing.T, p workload.Params, k int, seed uint64, block bool) *xval.LoadSetup {
	t.Helper()
	p.MeanOn, p.MeanOff = 0, 0
	s, err := xval.NewLoadSetup(p, k, seed, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if block {
		opts := analysis.Options{Entries: s.Entries, Streams: k}
		for _, d := range s.Devices {
			opts.BusRanges = append(opts.BusRanges, analysis.BusRange{Base: d.Base, Size: d.Size, Wait: d.Wait})
		}
		for i := range s.Images {
			blockc.Attach(s.Machine, s.Images[i], opts)
		}
	}
	return s
}

// stalls freezes streams for stretches, the fault injector's
// StreamStall schedule.
func stalls(streams ...int) stim {
	st := stim{}
	at := 500
	for i, s := range streams {
		n := uint64(150 + 275*i)
		st[at] = func(m *core.Machine) { m.StallStream(s, n) }
		at += 400 + 1000*i
	}
	return st
}

// storm adds to st a raise of bit on stream at seeded random cycles
// before end, after any stimulus st already holds for that cycle.
func storm(st stim, seed uint64, stream int, bit uint8, end int) stim {
	src := rng.New(seed)
	for c := src.Intn(20); c < end; c += 1 + src.Intn(60) {
		prev := st[c]
		st[c] = func(m *core.Machine) {
			if prev != nil {
				prev(m)
			}
			m.RaiseIRQ(uint8(stream), bit)
		}
	}
	return st
}

const waitDeadlock = `
main:
    WAITI 2
    HALT
    .org 0x40
other:
    HALT
`

// joinLoop re-joins on IR bit 2 forever with the bit masked, so only a
// raised bit (a storm) moves it and the join consumes each raise. Once
// the storm ends the join wedges.
const joinLoop = `
main:
    SETMR 0xFB
loop:
    WAITI 2
    ADDI  R0, 1
    JMP   loop
`

// raiseOnIssue runs a few issuing cycles, then joins on a bit nothing
// raises. A masked bit raised on stream 1 during the issuing stretch
// changes the IR fingerprint on a cycle that already made progress, so
// the barren cycles after it must compare against the raised word: a
// baseline left stale across issuing cycles moves the diagnosis a cycle
// late.
const raiseOnIssue = `
main:
    LDI  R0, 1
    ADDI R0, 1
    ADDI R0, 1
    ADDI R0, 1
    ADDI R0, 1
    ADDI R0, 1
    WAITI 2
    HALT
`

// quietWrites rewrites interrupt state without changing any IR word,
// at every 37th cycle from 10 to end: stream 1's mask, stream 0's
// level, and stream 0's IR written back as it stands. Each write
// advances the machine's interrupt epoch, none is progress, so a wedge
// must still be diagnosed exactly one window after its last real
// progress.
func quietWrites(end int) stim {
	st := stim{}
	for c, i := 10, 0; c < end; c, i = c+37, i+1 {
		switch i % 3 {
		case 0:
			st[c] = func(m *core.Machine) { m.Interrupts(1).SetMR(uint8(0x0F << (i % 5))) }
		case 1:
			st[c] = func(m *core.Machine) { m.Interrupts(0).SetLevel(uint8(i % 8)) }
		default:
			st[c] = func(m *core.Machine) { u := m.Interrupts(0); u.SetIR(u.IR()) }
		}
	}
	return st
}

func guardCases() []loopCase {
	cases := []loopCase{
		{name: "clean-halt", window: 50, budget: 1000,
			build: program(1, "main:\n    LDI R0, 5\n    ST R0, [0x10]\n    HALT\n", map[int]string{0: "main"})},
		{name: "waiti-deadlock", window: 100, budget: 10_000,
			build: program(2, waitDeadlock, map[int]string{0: "main", 1: "other"})},
		{name: "cycle-limit", window: 100, budget: 2000,
			build: program(1, "main:\n    ADDI R0, 1\n    JMP main\n", map[int]string{0: "main"})},
		{name: "stall-countdown", window: 100, budget: 5000,
			build: program(1, "main:\n    LDI R0, 1\n    ST R0, [0x11]\n    HALT\n", map[int]string{0: "main"}),
			stim:  stim{0: func(m *core.Machine) { m.StallStream(0, 500) }}},
		{name: "stall-deadlock", window: 100, budget: 5000,
			build: program(2, waitDeadlock, map[int]string{0: "main", 1: "other"}),
			stim:  stim{40: func(m *core.Machine) { m.StallStream(1, 300) }}},
		{name: "ir-on-issue", window: 64, budget: 2000,
			build: program(2, raiseOnIssue, map[int]string{0: "main"}),
			stim: stim{
				0: func(m *core.Machine) { m.Interrupts(1).SetMR(0) },
				4: func(m *core.Machine) { m.RaiseIRQ(1, 5) },
			}},
		// A request that lands while stream 0 still issues, then a quiet
		// write after it wedged: the fingerprint must have been re-taken
		// on the issuing cycle, or the old request reads as progress.
		{name: "ir-on-issue-quiet", window: 64, budget: 2000,
			build: program(2, raiseOnIssue, map[int]string{0: "main"}),
			stim: stim{
				0:  func(m *core.Machine) { m.Interrupts(1).SetMR(0) },
				4:  func(m *core.Machine) { m.RaiseIRQ(1, 5) },
				40: func(m *core.Machine) { u := m.Interrupts(0); u.SetIR(u.IR()) },
			}},
		{name: "quiet-writes", window: 100, budget: 10_000,
			build: program(2, waitDeadlock, map[int]string{0: "main", 1: "other"}),
			stim:  quietWrites(1000)},
		{name: "storm-join", window: 100, budget: 6000,
			build: program(2, joinLoop, map[int]string{0: "main"}),
			stim: storm(storm(stim{0: func(m *core.Machine) { m.Interrupts(1).SetMR(0) }},
				0x57012, 0, 2, 3000), 0x57013, 1, 6, 2000)},
	}
	// Always active, load 2 has load 1's mix, so each load gets its own
	// seed to keep load 2 from repeating load 1's program.
	for i, p := range workload.Base() {
		for _, k := range []int{1, 4} {
			for _, block := range []bool{false, true} {
				name := fmt.Sprintf("%s/%dstream", p.Name, k)
				if block {
					name += "/block"
				}
				cases = append(cases, loopCase{name: name, window: 50_000, budget: 8000,
					build: tableLoad(p, k, 1991+uint64(i), block)})
			}
		}
	}
	cases = append(cases,
		loopCase{name: "load1/4stream/stalls", window: 2000, budget: 6000,
			build: tableLoad(workload.Ld1, 4, 1991, false), stim: stalls(1, 3, 1)},
		loopCase{name: "load3/1stream/block/stalls", window: 2000, budget: 6000,
			build: tableLoad(workload.Ld3, 1, 1993, true), stim: stalls(0, 0)},
		loopCase{name: "load3/1stream/block/storm", window: 2000, budget: 6000,
			build: tableLoad(workload.Ld3, 1, 1993, true), stim: storm(stim{}, 0xBADDEED, 0, 6, 6000)},
	)
	return cases
}

// guardGolden holds each case's per-cycle outcome and each load's
// block statistics, recorded with the guard loop that did one dispatch
// per StepN call and left re-dispatching to its callers; quiet-writes
// was recorded with the guard that recomputed the IR fingerprint every
// cycle, before the interrupt epoch gated it.
var guardGolden = map[string]string{
	"clean-halt":                 "cycles=7 done snap=ec07d2c6a2f7cb0e",
	"waiti-deadlock":             "cycles=104 deadlock cycle=104 window=100 streams=[IS0 waiting on IR bit 2 at pc=0x0000 IS1 halted] snap=8e114590b2966b72",
	"cycle-limit":                "cycles=2000 running snap=4489c2e24f002402",
	"stall-countdown":            "cycles=506 done snap=16c4f516d402de7d",
	"stall-deadlock":             "cycles=439 deadlock cycle=439 window=100 streams=[IS0 waiting on IR bit 2 at pc=0x0000 IS1 halted] snap=99b286897bcc797a",
	"ir-on-issue":                "cycles=72 deadlock cycle=72 window=64 streams=[IS0 waiting on IR bit 2 at pc=0x0006 IS1 halted] snap=59feefe3db3c562b",
	"ir-on-issue-quiet":          "cycles=72 deadlock cycle=72 window=64 streams=[IS0 waiting on IR bit 2 at pc=0x0006 IS1 halted] snap=59feefe3db3c562b",
	"quiet-writes":               "cycles=104 deadlock cycle=104 window=100 streams=[IS0 waiting on IR bit 2 at pc=0x0000 IS1 halted] snap=cb441a65797ada00",
	"storm-join":                 "cycles=3101 deadlock cycle=3101 window=100 streams=[IS0 waiting on IR bit 2 at pc=0x0001 IS1 halted] snap=624dbf2d4190f3d2",
	"load1/1stream":              "cycles=8000 running snap=aab201ca4a1765e0",
	"load1/1stream/block":        "cycles=8000 running snap=aab201ca4a1765e0",
	"load1/4stream":              "cycles=8000 running snap=c8cf3b820f040bb1",
	"load1/4stream/block":        "cycles=8000 running snap=c8cf3b820f040bb1",
	"load2/1stream":              "cycles=8000 running snap=ed97c014153fe7ee",
	"load2/1stream/block":        "cycles=8000 running snap=ed97c014153fe7ee",
	"load2/4stream":              "cycles=8000 running snap=f73a4504ce3700a8",
	"load2/4stream/block":        "cycles=8000 running snap=f73a4504ce3700a8",
	"load3/1stream":              "cycles=8000 running snap=1f5587d3083d1ef4",
	"load3/1stream/block":        "cycles=8000 running snap=1f5587d3083d1ef4",
	"load3/4stream":              "cycles=8000 running snap=5a4f7b988b66195f",
	"load3/4stream/block":        "cycles=8000 running snap=5a4f7b988b66195f",
	"load4/1stream":              "cycles=8000 running snap=83c0d9925a30c071",
	"load4/1stream/block":        "cycles=8000 running snap=83c0d9925a30c071",
	"load4/4stream":              "cycles=8000 running snap=d768d4225fd38a1b",
	"load4/4stream/block":        "cycles=8000 running snap=d768d4225fd38a1b",
	"load1/4stream/stalls":       "cycles=6000 running snap=02748eed9402bb28",
	"load3/1stream/block/stalls": "cycles=6000 running snap=75a3f10aa433b6cb",
	"load3/1stream/block/storm":  "cycles=6000 running snap=41c025facd25b78c",
	"load1":                      "{Sessions:50 FusedCycles:501 FusedInstrs:313 Bails:0 Stale:0 StraightSessions:0 BranchSessions:49 ChainSessions:1 StraightCycles:0 BranchCycles:473 ChainCycles:28 BranchFuses:94 Chains:1 Demotes:0 Promotes:0}",
	"load2":                      "{Sessions:26 FusedCycles:264 FusedInstrs:164 Bails:0 Stale:0 StraightSessions:0 BranchSessions:26 ChainSessions:0 StraightCycles:0 BranchCycles:264 ChainCycles:0 BranchFuses:50 Chains:0 Demotes:0 Promotes:0}",
	"load3":                      "{Sessions:157 FusedCycles:151358 FusedInstrs:137030 Bails:0 Stale:0 StraightSessions:30 BranchSessions:127 ChainSessions:0 StraightCycles:295 BranchCycles:151063 ChainCycles:0 BranchFuses:7164 Chains:0 Demotes:0 Promotes:0}",
	"load4":                      "{Sessions:24 FusedCycles:255 FusedInstrs:149 Bails:0 Stale:0 StraightSessions:0 BranchSessions:24 ChainSessions:0 StraightCycles:0 BranchCycles:255 ChainCycles:0 BranchFuses:53 Chains:0 Demotes:0 Promotes:0}",
}

// TestGuardStepNMatchesPerCycle is the one loop's exactness proof.
func TestGuardStepNMatchesPerCycle(t *testing.T) {
	for _, c := range guardCases() {
		t.Run(c.name, func(t *testing.T) {
			want := perCycle(t, c)
			for seed := uint64(1); seed <= 2; seed++ {
				got := split(t, c, seed)
				if got.String() != want.String() {
					t.Fatalf("seed %d: StepN splits diverged from per-cycle Step\nsplit:     %s\nper-cycle: %s", seed, got, want)
				}
			}
			if want.String() != guardGolden[c.name] {
				t.Errorf("outcome moved from the recorded golden\ngot:  %s\nwant: %s", want, guardGolden[c.name])
			}
		})
	}
}

// TestGuardDispatchGolden pins the block engine's dispatch sequence:
// each Table 4.1 load at one stream with a block table, advanced the
// way discbench advances a load (one Guard.StepN per budget, re-issued
// until the budget is spent) over seeded budgets that include single
// cycles. Sessions, bails, demotes and probe pacing all follow from
// which dispatch ran at each cycle, so any shift in the dispatch rule
// moves these counts.
func TestGuardDispatchGolden(t *testing.T) {
	for i, p := range workload.Base() {
		s := guardSetup(t, p, 1, rng.Child(11, uint64(i)), true)
		g := s.Machine.NewGuard(50_000)
		src := rng.New(0xD15C + uint64(i))
		total := 0
		for total < 150_000 {
			n := chunk(src)
			for done := 0; done < n; {
				k, idle, err := g.StepN(n - done)
				if err != nil || idle {
					t.Fatalf("%s: idle=%v err=%v on a load that never halts", p.Name, idle, err)
				}
				done += k
			}
			total += n
		}
		got := fmt.Sprintf("%+v", s.Machine.BlockStats())
		if want := guardGolden[p.Name]; got != want {
			t.Errorf("%s: block stats moved from the recorded golden\ngot:  %s\nwant: %s", p.Name, got, want)
		}
	}
}
