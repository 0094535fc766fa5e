// Command mutants runs the repository's mutation gate: each entry of
// the table below names one exact text in one source file, its
// replacement, and the tests that must fail once the replacement is
// made. A mutant those tests do not kill means a check has gone blind
// to the fault it stands for. Mutants apply through `go test -overlay`,
// so the source tree is never edited.
//
// Run it from the module root (`go run ./cmd/mutants`, or `make
// mutants`). A mutant that is not killed has its test output printed.
// Exit status: 0 when every mutant is killed, 1 when one survives or
// no longer applies (its text is gone from the file, or the mutated
// package does not build), 2 on usage or I/O errors.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"time"
)

// mutant is one seeded fault.
type mutant struct {
	name string
	file string // relative to the module root
	old  string // must occur exactly once in file
	new  string
	run  string // -run pattern: the tests of file's package that must fail
}

var table = []mutant{
	{
		// The interrupt-dispatch cache never refreshes. The reference
		// pipeline asks the interrupt unit on every issue, so the plain
		// optimized-vs-reference lockstep must see the stale decision.
		name: "dispatch-cache-never-refreshes",
		file: "internal/core/step.go",
		old:  "\tif s.dispEpoch != m.intrEpoch || m.cfg.Reference {\n",
		new:  "\tif m.cfg.Reference {\n",
		run:  "^TestEquiv",
	},
	{
		// A fused session admits a stream start. The three-way lockstep
		// must see the second stream's missed interleave.
		name: "fusible-admits-sstart",
		file: "internal/core/block.go",
		old:  "\tcase isa.OpLD, isa.OpST, isa.OpTAS, isa.OpMFS:\n",
		new:  "\tcase isa.OpLD, isa.OpST, isa.OpTAS, isa.OpMFS, isa.OpSSTART:\n",
		run:  "^(TestBlockEquiv|FuzzStepEquiv)",
	},
	{
		// The analyzer's view of the standard board loses its device
		// map, so the -lint gate and the block engines stop seeing
		// provably-unmapped accesses and the board's wait states.
		name: "spec-analysis-drops-busranges",
		file: "internal/board/board.go",
		old:  "\t\tBusRanges:  Ranges(s.RAMWaits),\n",
		new:  "",
		run:  "^TestAnalysisFlagsUnmapped$",
	},
	{
		// The plan memo serves a plan analyzed against another bus map.
		name: "plan-memo-ignores-busranges",
		file: "internal/blockc/blockc.go",
		old:  "\t\tslices.Equal(a.BusRanges, b.BusRanges) &&\n",
		new:  "",
		run:  "^TestAttachMemoKey$",
	},
	{
		// The guard's IR fingerprint is not re-taken on a cycle that
		// issued, so the next barren cycle whose epoch moves compares
		// against a stale word and counts an old request as progress.
		name: "stale-fingerprint-baseline",
		file: "internal/core/liveness.go",
		old:  "\t\t\t\tg.irWords = m.irFingerprint()\n",
		new:  "",
		run:  "^TestGuardStepNMatchesPerCycle$",
	},
	{
		// A barren cycle counts as progress whenever the interrupt
		// epoch moved, even when no IR word changed (a mask or level
		// write), so a wedge is diagnosed late.
		name: "progressed-trusts-epoch",
		file: "internal/core/liveness.go",
		old:  "\t\tif f := m.irFingerprint(); f != g.irWords {\n\t\t\tg.irWords = f\n\t\t\treturn true\n\t\t}\n",
		new:  "\t\tg.irWords = m.irFingerprint()\n\t\treturn true\n",
		run:  "^TestGuardStepNMatchesPerCycle$",
	},
	{
		// A one-cycle dispatch drains a parked skip batch, so the
		// batches and every later session probe shift.
		name: "skip-batch-consumed-at-max-1",
		file: "internal/core/block.go",
		old:  "\tm.Step()\n\treturn 1\n}\n",
		new:  "\tif m.blocks != nil && m.blockSkip > 0 {\n\t\tm.blockSkip--\n\t}\n\tm.Step()\n\treturn 1\n}\n",
		run:  "^TestGuardDispatchGolden$",
	},
	{
		// A jumped idle gap leaves the skip batches where they were
		// instead of where per-cycle dispatches would have left them.
		name: "skip-batch-replay-dropped",
		file: "internal/core/step.go",
		old:  "\t\tm.replayIdleDispatches(max, k)\n",
		new:  "",
		run:  "^(TestGuardDispatchGolden|TestIdleGapBlockReplay)$",
	},
	{
		// An interrupt request moves its unit's version but not the
		// machine-wide epoch, so the dispatch cache and the guard miss
		// the new request.
		name: "request-bumps-own-version-only",
		file: "internal/interrupt/interrupt.go",
		old:  "\tu.ir |= 1 << n\n\tu.bump()\n",
		new:  "\tu.ir |= 1 << n\n\tu.ver++\n",
		run:  "^TestSharedEpochContract$",
	},
	{
		// A §4.1 request puts a stream whose off gap is running into the
		// wait state without counting the gap's ticks so far, so the
		// frozen gap resumes at its full length.
		name: "gap-unsettled-at-wait-entry",
		file: "internal/stoch/stoch.go",
		old:  "\t\t\t\t\ts.settleGap(c)\n",
		new:  "",
		run:  "^TestRunMatchesPerCycle$",
	},
	{
		// An off gap's wake cycle is one late, so the stream sits out
		// one more cycle than the per-cycle loop leaves it idle.
		name: "gap-wake-one-late",
		file: "internal/stoch/stoch.go",
		old:  "\ts.wake = from + uint64(s.proc.OffLeft()) - 1\n",
		new:  "\ts.wake = from + uint64(s.proc.OffLeft())\n",
		run:  "^TestRunMatchesPerCycle$",
	},
	{
		// The waits and off gaps still accruing when the budget runs out
		// are never counted.
		name: "no-settle-at-budget-end",
		file: "internal/stoch/stoch.go",
		old: "\tfor w := waiting; w != 0; w &= w - 1 {\n\t\ts := &st[bits.TrailingZeros32(w)]\n" +
			"\t\ts.m.WaitCycles += cycles + 1 - s.since\n\t}\n" +
			"\tfor o := off; o != 0; o &= o - 1 {\n\t\tst[bits.TrailingZeros32(o)].settleGap(cycles + 1)\n\t}\n",
		new: "",
		run: "^TestRunMatchesPerCycle$",
	},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) != 0 {
		fmt.Fprintln(stderr, "usage: mutants")
		return 2
	}
	tmp, err := os.MkdirTemp("", "mutants-")
	if err != nil {
		fmt.Fprintln(stderr, "mutants:", err)
		return 2
	}
	defer os.RemoveAll(tmp)
	start := time.Now()
	survived := 0
	for i, mu := range table {
		verdict, out, err := check(mu, filepath.Join(tmp, fmt.Sprint(i)))
		if err != nil {
			fmt.Fprintf(stderr, "mutants: %s: %v\n", mu.name, err)
			return 2
		}
		fmt.Fprintf(stdout, "%-34s %s\n", mu.name, verdict)
		if verdict != "killed" {
			survived++
			stdout.Write(out)
		}
	}
	fmt.Fprintf(stdout, "%d/%d mutants killed in %.1fs\n", len(table)-survived, len(table),
		time.Since(start).Seconds())
	if survived > 0 {
		return 1
	}
	return 0
}

// failLine matches go test's report of a failed test or fuzz target.
var failLine = regexp.MustCompile(`(?m)^\s*--- FAIL: (\S+)`)

// check applies mu in an overlay under dir and runs its tests. The
// verdict is "killed" when a test matching mu.run failed, and names why
// otherwise.
func check(mu mutant, dir string) (verdict string, out []byte, err error) {
	src, err := os.ReadFile(mu.file)
	if err != nil {
		return "", nil, err
	}
	if n := bytes.Count(src, []byte(mu.old)); n != 1 {
		return fmt.Sprintf("NOT APPLIED: the text occurs %d times in %s", n, mu.file), nil, nil
	}
	abs, err := filepath.Abs(mu.file)
	if err != nil {
		return "", nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", nil, err
	}
	mutated := filepath.Join(dir, filepath.Base(mu.file))
	if err := os.WriteFile(mutated, bytes.Replace(src, []byte(mu.old), []byte(mu.new), 1), 0o644); err != nil {
		return "", nil, err
	}
	overlay, err := json.Marshal(map[string]map[string]string{"Replace": {abs: mutated}})
	if err != nil {
		return "", nil, err
	}
	ov := filepath.Join(dir, "overlay.json")
	if err := os.WriteFile(ov, overlay, 0o644); err != nil {
		return "", nil, err
	}
	out, err = exec.Command("go", "test", "-count=1", "-overlay", ov, "-run", mu.run, "./"+filepath.Dir(mu.file)).CombinedOutput()
	if err == nil {
		return "SURVIVED: every test matching " + mu.run + " passed", out, nil
	}
	if _, ok := err.(*exec.ExitError); !ok {
		return "", out, err
	}
	runRe := regexp.MustCompile(mu.run)
	for _, m := range failLine.FindAllSubmatch(out, -1) {
		if runRe.MatchString(strings.SplitN(string(m[1]), "/", 2)[0]) {
			return "killed", out, nil
		}
	}
	return "NOT KILLED: go test failed without a failing test matching " + mu.run +
		" (a build error?)", out, nil
}
