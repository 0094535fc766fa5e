package disc_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"disc/internal/serve"
)

// goRun executes a command of this module via the go tool; the CLIs
// are part of the deliverable, so they get smoke coverage too.
func goRun(t *testing.T, args ...string) string {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool not available")
	}
	cmd := exec.Command("go", append([]string{"run"}, args...)...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go run %v: %v\n%s", args, err, out)
	}
	return string(out)
}

// goRunStatus is goRun for commands whose exit status is part of the
// contract (disclint): a non-zero exit is returned, not fatal.
func goRunStatus(t *testing.T, args ...string) (string, int) {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool not available")
	}
	cmd := exec.Command("go", append([]string{"run"}, args...)...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			return string(out), ee.ExitCode()
		}
		t.Fatalf("go run %v: %v\n%s", args, err, out)
	}
	return string(out), 0
}

const cliProgram = `
main:
    LDI R0, 5
    LDI R1, 4
    MUL R2, R0, R1
    STM R2, [0x40]
    HALT
`

func writeTemp(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCLIDiscasm(t *testing.T) {
	src := writeTemp(t, "p.s", cliProgram)
	out := goRun(t, "./cmd/discasm", src)
	if !strings.HasPrefix(out, "@0000\n") {
		t.Fatalf("hex image malformed:\n%s", out)
	}
	listing := goRun(t, "./cmd/discasm", "-l", src)
	if !strings.Contains(listing, "MUL R2, R0, R1") {
		t.Fatalf("listing missing disassembly:\n%s", listing)
	}
}

func TestCLIDiscsimSourceAndHex(t *testing.T) {
	src := writeTemp(t, "p.s", cliProgram)
	out := goRun(t, "./cmd/discsim", "-streams", "1", "-start", "0=main", "-dump", "40:42", src)
	if !strings.Contains(out, "0040: 0014") {
		t.Fatalf("discsim did not compute 5*4:\n%s", out)
	}
	// The same program via the hex-image path.
	hex := goRun(t, "./cmd/discasm", src)
	hexPath := writeTemp(t, "p.hex", hex)
	out = goRun(t, "./cmd/discsim", "-streams", "1", "-start", "0=0", "-dump", "40:41", hexPath)
	if !strings.Contains(out, "0040: 0014") {
		t.Fatalf("hex path failed:\n%s", out)
	}
}

// awpLeakProgram nets one NOP+ per loop iteration: the §3.5 depth
// imbalance disclint exists to catch.
const awpLeakProgram = `
main:
    LDI  R0, 8
loop:
    NOP+
    SUBI R0, 1
    BNE  loop
    HALT
`

func TestCLIDisclint(t *testing.T) {
	clean := writeTemp(t, "clean.s", cliProgram)
	out, code := goRunStatus(t, "./cmd/disclint", clean)
	if code != 0 {
		t.Fatalf("clean program flagged (exit %d):\n%s", code, out)
	}

	bad := writeTemp(t, "leak.s", awpLeakProgram)
	out, code = goRunStatus(t, "./cmd/disclint", bad)
	if code != 1 {
		t.Fatalf("buggy program: exit %d, want 1:\n%s", code, out)
	}
	if !strings.Contains(out, "loop") || !strings.Contains(out, "depth imbalance") {
		t.Fatalf("finding does not name the offending label:\n%s", out)
	}
	if !strings.Contains(out, "leak.s:5:") {
		t.Fatalf("finding does not carry the source line:\n%s", out)
	}

	// The same analyzer gates the other tools behind -lint.
	out, code = goRunStatus(t, "./cmd/discasm", "-lint", bad)
	if code == 0 {
		t.Fatalf("discasm -lint accepted the AWP leak:\n%s", out)
	}
	out, code = goRunStatus(t, "./cmd/discsim", "-lint", "-streams", "1", "-start", "0=main", "-cycles", "100", bad)
	if code == 0 {
		t.Fatalf("discsim -lint accepted the AWP leak:\n%s", out)
	}
	out, code = goRunStatus(t, "./cmd/discsim", "-lint", "-streams", "1", "-start", "0=main", "-dump", "40:41", clean)
	if code != 0 || !strings.Contains(out, "0040: 0014") {
		t.Fatalf("discsim -lint broke the clean program (exit %d):\n%s", code, out)
	}
}

// TestCLIDiscsimMaxCycles: a looping program must exit with a non-zero
// status instead of hanging CI, and a wedged one must be diagnosed.
func TestCLIDiscsimMaxCycles(t *testing.T) {
	hang := writeTemp(t, "hang.s", `
main:
    ADDI R0, 1
    JMP  main
`)
	out, code := goRunStatus(t, "./cmd/discsim", "-streams", "1", "-start", "0=main",
		"-max-cycles", "3000", hang)
	if code == 0 {
		t.Fatalf("runaway program exited 0:\n%s", out)
	}
	if !strings.Contains(out, "cycle limit") {
		t.Fatalf("missing cycle-limit diagnosis:\n%s", out)
	}

	wedge := writeTemp(t, "wedge.s", `
main:
    WAITI 2
    HALT
`)
	out, code = goRunStatus(t, "./cmd/discsim", "-streams", "1", "-start", "0=main",
		"-stall-window", "400", wedge)
	if code == 0 {
		t.Fatalf("wedged program exited 0:\n%s", out)
	}
	if !strings.Contains(out, "deadlock") || !strings.Contains(out, "IS0 waiting on IR bit 2") {
		t.Fatalf("missing deadlock diagnosis:\n%s", out)
	}

	// A clean program still exits 0 under both guards.
	clean := writeTemp(t, "clean.s", cliProgram)
	out, code = goRunStatus(t, "./cmd/discsim", "-streams", "1", "-start", "0=main",
		"-max-cycles", "3000", "-stall-window", "400", "-dump", "40:41", clean)
	if code != 0 || !strings.Contains(out, "0040: 0014") {
		t.Fatalf("guards broke the clean program (exit %d):\n%s", code, out)
	}
}

// TestCLIDiscsimTraceOut runs the synchronization example's program
// (extracted from its source, so the test tracks the example) with the
// flight recorder on and checks both exporters: -trace-out must emit
// valid Chrome trace-event JSON with one named track and instruction
// slices per stream, and -metrics must print the per-stream registry.
func TestCLIDiscsimTraceOut(t *testing.T) {
	src, err := os.ReadFile("examples/synchronization/main.go")
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(src), "const program = `")
	if !ok {
		t.Fatal("synchronization example no longer embeds its program")
	}
	program, _, ok := strings.Cut(rest, "`")
	if !ok {
		t.Fatal("unterminated program literal in the synchronization example")
	}
	asmPath := writeTemp(t, "sync.s", program)
	tracePath := filepath.Join(t.TempDir(), "t.json")
	out := goRun(t, "./cmd/discsim", "-streams", "3", "-start", "0=boss",
		"-trace-out", tracePath, "-metrics", "-dump", "42:43", asmPath)
	if !strings.Contains(out, "0042: 00c8") { // 200: two workers x 100 rounds
		t.Fatalf("synchronization program computed the wrong counter:\n%s", out)
	}
	if !strings.Contains(out, "metrics:") || !strings.Contains(out, "dispatch gap (cycles):") {
		t.Fatalf("missing metrics registry:\n%s", out)
	}

	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	tracks := map[string]bool{}
	slices := map[int]int{} // instruction slices per stream track
	for _, ev := range tf.TraceEvents {
		if ev.Pid != 1 {
			continue
		}
		if ev.Ph == "M" && ev.Name == "thread_name" {
			if n, _ := ev.Args["name"].(string); n != "" {
				tracks[n] = true
			}
		}
		if ev.Ph == "X" {
			slices[ev.Tid]++
		}
	}
	for s := 0; s < 3; s++ {
		if name := fmt.Sprintf("IS%d", s); !tracks[name] {
			t.Errorf("trace missing per-stream track %s", name)
		}
		if slices[s] == 0 {
			t.Errorf("no instruction slices on stream %d's track", s)
		}
	}

	// A wedged run with the recorder attached dumps its post-mortem.
	wedge := writeTemp(t, "wedge.s", "main:\n    WAITI 2\n    HALT\n")
	out, code := goRunStatus(t, "./cmd/discsim", "-streams", "1", "-start", "0=main",
		"-stall-window", "400", "-metrics", wedge)
	if code == 0 {
		t.Fatalf("wedged run exited 0:\n%s", out)
	}
	for _, want := range []string{"deadlock", "post-mortem", "IS0:", "state run -> irqwait"} {
		if !strings.Contains(out, want) {
			t.Fatalf("post-mortem output missing %q:\n%s", want, out)
		}
	}
}

func TestCLIStochsim(t *testing.T) {
	out := goRun(t, "./cmd/stochsim", "-streams", "load1,load1", "-cycles", "20000")
	for _, want := range []string{"PD", "Ps(load1)", "Delta"} {
		if !strings.Contains(out, want) {
			t.Fatalf("stochsim output missing %q:\n%s", want, out)
		}
	}
	out = goRun(t, "./cmd/stochsim", "-streams", "load1:4,load2", "-cycles", "10000", "-slots", "0,0,0,1")
	if !strings.Contains(out, "IS1:") {
		t.Fatalf("combined-load run malformed:\n%s", out)
	}
}

func TestCLIExperimentsSingle(t *testing.T) {
	out := goRun(t, "./cmd/experiments", "-only", "4.2", "-cycles", "20000")
	if !strings.Contains(out, "Table 4.2a") || !strings.Contains(out, "load3") {
		t.Fatalf("experiments 4.2 malformed:\n%s", out)
	}
	out = goRun(t, "./cmd/experiments", "-only", "3.2", "-cycles", "1000")
	if !strings.Contains(out, "IF") || strings.Contains(out, "WARNING") {
		t.Fatalf("experiments 3.2 malformed:\n%s", out)
	}
}

// TestCLIExperimentsUnknownOnly: -only with a name outside the
// experiment registry must fail loudly and list the valid names, not
// silently print nothing.
func TestCLIExperimentsUnknownOnly(t *testing.T) {
	out, code := goRunStatus(t, "./cmd/experiments", "-only", "nope")
	if code == 0 {
		t.Fatalf("unknown -only accepted:\n%s", out)
	}
	if !strings.Contains(out, `unknown experiment "nope"`) || !strings.Contains(out, "valid names") {
		t.Fatalf("missing usage error:\n%s", out)
	}
	for _, name := range []string{"4.2", "streams", "xval"} {
		if !strings.Contains(out, name) {
			t.Fatalf("valid-name listing missing %q:\n%s", name, out)
		}
	}
}

// TestCLIExperimentsParDeterministic proves the headline determinism
// contract end to end: the emitted tables are byte-identical whether
// the sweep runs on one worker or eight.
func TestCLIExperimentsParDeterministic(t *testing.T) {
	args := []string{"./cmd/experiments", "-only", "4.2", "-cycles", "6000", "-reps", "2"}
	serial := goRun(t, append(args, "-par", "1")...)
	wide := goRun(t, append(args, "-par", "8")...)
	if serial != wide {
		t.Fatalf("output depends on worker count:\n--- par=1 ---\n%s\n--- par=8 ---\n%s", serial, wide)
	}
	if !strings.Contains(serial, "±") || !strings.Contains(serial, "2 replications") {
		t.Fatalf("replicated table missing CI annotation:\n%s", serial)
	}
}

// TestCLIStochsimReps: replicated mode reports mean ±95% CI.
func TestCLIStochsimReps(t *testing.T) {
	out := goRun(t, "./cmd/stochsim", "-streams", "load1,load1", "-cycles", "10000", "-reps", "3")
	for _, want := range []string{"±", "n=3", "3 replications", "paired"} {
		if !strings.Contains(out, want) {
			t.Fatalf("replicated stochsim output missing %q:\n%s", want, out)
		}
	}
}

func TestCLIMinicc(t *testing.T) {
	src := writeTemp(t, "p.mc", `
var answer;
func main() { answer = 6 * 7; }
`)
	out := goRun(t, "./cmd/minicc", "-run", src)
	if !strings.Contains(out, "answer") || !strings.Contains(out, "= 42") {
		t.Fatalf("minicc -run output:\n%s", out)
	}
	asmOut := goRun(t, "./cmd/minicc", src)
	if !strings.Contains(asmOut, "mc_main:") {
		t.Fatalf("minicc assembly output malformed:\n%s", asmOut)
	}
}

// TestCLIDiscsimLintChecksBoard: discsim -lint analyzes the program
// against the board it attaches, so an external load no device answers
// is refused, as disclint refuses it given the board's -bus map.
func TestCLIDiscsimLintChecksBoard(t *testing.T) {
	src := writeTemp(t, "unmapped.s", `
main:
    LI R7, 0x2000
    LD R6, [R7+0]
    HALT
`)
	out, code := goRunStatus(t, "./cmd/discsim", "-lint", "-streams", "1", "-start", "0=main", src)
	if code == 0 {
		t.Fatalf("discsim -lint accepted a provably unmapped load:\n%s", out)
	}
	if !strings.Contains(out, "provably unmapped") {
		t.Fatalf("refusal does not name the unmapped access:\n%s", out)
	}
}

// checkpointProgram keeps the external RAM (stream 0) and the timer
// (stream 1) busy, so a snapshot carries device and bus state.
const checkpointProgram = `
s0:
    LI   R1, 0x0400
loop0:
    LD   R2, [R1+0]
    ADDI R2, 1
    ST   R2, [R1+0]
    JMP  loop0
s1:
    LI   R1, 0xF000
    LDI  R2, 50
    ST   R2, [R1+1]
    ST   R2, [R1+0]
    LDI  R2, 1
    ST   R2, [R1+2]
loop1:
    LD   R3, [R1+0]
    LD   R4, [R1+3]
    ST   R4, [R1+3]
    JMP  loop1
`

// TestCLIDiscsimCheckpointResumesInServe: both tools build the standard
// board through board.Spec, so a discsim checkpoint restored in
// discserve continues byte-identically to discsim running on.
func TestCLIDiscsimCheckpointResumesInServe(t *testing.T) {
	src := writeTemp(t, "ckpt.s", checkpointProgram)
	dir := t.TempDir()
	run := func(cycles, out string) []byte {
		path := filepath.Join(dir, out)
		goRun(t, "./cmd/discsim", "-streams", "2", "-start", "0=s0,1=s1", "-cycles", cycles, "-checkpoint-out", path, src)
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	mid, want := run("1000", "a.snap"), run("1500", "b.snap")

	s := serve.New(serve.Config{Workers: 1})
	defer s.Close()
	info, err := s.Create(serve.CreateRequest{Snapshot: mid})
	if err != nil {
		t.Fatal(err)
	}
	if info.Cycle != 1000 {
		t.Fatalf("restored at cycle %d, want 1000", info.Cycle)
	}
	if res, err := s.Step(info.ID, 500); err != nil || res.CyclesRun != 500 {
		t.Fatalf("step: %+v, %v", res, err)
	}
	got, err := s.SnapshotBytes(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("discserve continuation (%d bytes) differs from discsim's (%d bytes)", len(got), len(want))
	}
}
