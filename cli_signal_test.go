package disc_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"disc/internal/snap"
)

// The exit-path tests need real processes (go run does not forward
// signals to the child the way a shell does), so they build the tool
// once into the test's temp dir.
func buildTool(t *testing.T, name, pkg string) string {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool not available")
	}
	bin := filepath.Join(t.TempDir(), name)
	out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput()
	if err != nil {
		t.Fatalf("go build %s: %v\n%s", pkg, err, out)
	}
	return bin
}

func exitStatus(err error) int {
	if err == nil {
		return 0
	}
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		return ee.ExitCode()
	}
	return -1
}

// longProgram runs ~8M cycles of nested countdown before halting:
// long enough that a signal sent after the first periodic checkpoint
// lands mid-run with an enormous margin, short enough for CI.
const longProgram = `
main:
    LDI R0, 2000
outer:
    LDI R1, 2000
inner:
    SUBI R1, 1
    BNE  inner
    SUBI R0, 1
    BNE  outer
    HALT
`

// TestCLIDiscsimSignalCheckpointResume: kill -INT during a
// -checkpoint-every run must leave a loadable checkpoint from which
// the run resumes byte-identically — the resumed run's final
// checkpoint equals the uninterrupted run's, bit for bit.
func TestCLIDiscsimSignalCheckpointResume(t *testing.T) {
	bin := buildTool(t, "discsim", "./cmd/discsim")
	dir := t.TempDir()
	prog := writeTemp(t, "long.s", longProgram)

	// Baseline: the same run, uninterrupted.
	aSnap := filepath.Join(dir, "a.snap")
	out, err := exec.Command(bin, "-streams", "1", "-start", "0=main",
		"-max-cycles", "0", "-checkpoint-out", aSnap, prog).CombinedOutput()
	if err != nil {
		t.Fatalf("baseline run: %v\n%s", err, out)
	}

	// Interrupted: SIGINT as soon as the first periodic checkpoint has
	// landed (its appearance is atomic — snap writes tmp+rename).
	ckSnap := filepath.Join(dir, "ck.snap")
	cmd := exec.Command(bin, "-streams", "1", "-start", "0=main",
		"-max-cycles", "0", "-checkpoint-out", ckSnap, "-checkpoint-every", "50000", prog)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		if _, err := os.Stat(ckSnap); err == nil {
			break
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatalf("no periodic checkpoint within 20s; stderr:\n%s", stderr.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	if code := exitStatus(cmd.Wait()); code != 130 {
		t.Fatalf("interrupted run exited %d, want 130 (128+SIGINT); stderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "SIGINT: checkpointed") {
		t.Fatalf("missing signal-checkpoint notice:\n%s", stderr.String())
	}

	// The interrupted checkpoint loads and the resumed run's final
	// checkpoint is byte-identical to the uninterrupted baseline's:
	// equal architectural state is equal bytes in disc-snap/1.
	if _, err := snap.Load(ckSnap); err != nil {
		t.Fatalf("signal-time checkpoint unreadable: %v", err)
	}
	bSnap := filepath.Join(dir, "b.snap")
	out, err = exec.Command(bin, "-resume", ckSnap, "-max-cycles", "0",
		"-checkpoint-out", bSnap, prog).CombinedOutput()
	if err != nil {
		t.Fatalf("resumed run: %v\n%s", err, out)
	}
	a, err := os.ReadFile(aSnap)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(bSnap)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("resumed final checkpoint differs from the uninterrupted run's (%d vs %d bytes)", len(b), len(a))
	}
}

// TestCLIDiscsimFixedLengthWatchdog: a wedged program under -cycles
// must be diagnosed by the stall watchdog (exit 3, deadlock verdict)
// instead of silently spinning out the full count — the regression
// fixed by routing fixed-length runs through the guard.
func TestCLIDiscsimFixedLengthWatchdog(t *testing.T) {
	bin := buildTool(t, "discsim", "./cmd/discsim")
	wedge := writeTemp(t, "wedge.s", "main:\n    WAITI 2\n    HALT\n")
	raw, err := exec.Command(bin, "-streams", "1", "-start", "0=main",
		"-cycles", "100000", "-stall-window", "400", wedge).CombinedOutput()
	out := string(raw)
	if code := exitStatus(err); code != 3 {
		t.Fatalf("wedged fixed-length run exited %d, want 3:\n%s", code, out)
	}
	if !strings.Contains(out, "deadlock") || !strings.Contains(out, "IS0 waiting on IR bit 2") {
		t.Fatalf("missing deadlock diagnosis:\n%s", out)
	}
	m := regexp.MustCompile(`cycles\s+(\d+)`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no cycle count in output:\n%s", out)
	}
	if n, _ := strconv.Atoi(m[1]); n >= 100000 {
		t.Fatalf("run spun out the full count (%d cycles) despite the wedge:\n%s", n, out)
	}

	// A clean program still burns exactly the requested count: an idle
	// machine is finished, not wedged, so the watchdog stays quiet.
	clean := writeTemp(t, "clean.s", cliProgram)
	raw, err = exec.Command(bin, "-streams", "1", "-start", "0=main",
		"-cycles", "5000", "-stall-window", "400", "-dump", "40:41", clean).CombinedOutput()
	out = string(raw)
	if code := exitStatus(err); code != 0 || !strings.Contains(out, "0040: 0014") {
		t.Fatalf("clean fixed-length run broke (exit %d):\n%s", code, out)
	}
	if !strings.Contains(out, "cycles      5000") {
		t.Fatalf("fixed-length accounting changed:\n%s", out)
	}
}

// TestCLIDiscsimFatalFlushesSinks: a run that dies on the way out (the
// final checkpoint write fails) must still flush -trace-out and
// -metrics — the flight record of the failed run is exactly what the
// user needs.
func TestCLIDiscsimFatalFlushesSinks(t *testing.T) {
	prog := writeTemp(t, "p.s", cliProgram)
	traceOut := filepath.Join(t.TempDir(), "t.json")
	badSnap := filepath.Join(t.TempDir(), "no-such-dir", "x.snap")
	out, code := goRunStatus(t, "./cmd/discsim", "-streams", "1", "-start", "0=main",
		"-trace-out", traceOut, "-metrics", "-checkpoint-out", badSnap, prog)
	if code != 1 {
		t.Fatalf("failed checkpoint write exited %d, want 1:\n%s", code, out)
	}
	if !strings.Contains(out, "metrics:") {
		t.Fatalf("metrics registry lost on the fatal path:\n%s", out)
	}
	data, err := os.ReadFile(traceOut)
	if err != nil {
		t.Fatalf("trace lost on the fatal path: %v", err)
	}
	var tf struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatalf("flushed trace is not valid JSON: %v", err)
	}
	if len(tf.TraceEvents) == 0 {
		t.Fatal("flushed trace carries no events")
	}
}

// TestCLIDiscserveGracefulDrain: SIGTERM to a serving discserve must
// drain — finish in-flight work, snapshot every live session into
// -drain-dir — and exit 0 with the session loadable afterwards.
func TestCLIDiscserveGracefulDrain(t *testing.T) {
	bin := buildTool(t, "discserve", "./cmd/discserve")
	drainDir := t.TempDir()
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-drain-dir", drainDir)
	stderrPipe, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// The first stderr line announces the resolved listen address.
	rd := bufio.NewReader(stderrPipe)
	line, err := rd.ReadString('\n')
	if err != nil {
		t.Fatalf("no listen announcement: %v", err)
	}
	_, base, ok := strings.Cut(strings.TrimSpace(line), "listening on ")
	if !ok {
		t.Fatalf("unexpected announcement: %q", line)
	}
	restc := make(chan string, 1)
	go func() {
		rest, _ := io.ReadAll(rd)
		restc <- string(rest)
	}()

	// One tenant: create a session, step it, leave it live.
	body, _ := json.Marshal(map[string]any{
		"program": "main:\n    LDI R0, 0\nloop:\n    ADDI R0, 1\n    JMP loop\n",
		"streams": 1,
	})
	resp, err := http.Post(base+"/v1/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var info struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || info.ID == "" {
		t.Fatalf("create: status %d, id %q", resp.StatusCode, info.ID)
	}
	resp, err = http.Post(fmt.Sprintf("%s/v1/sessions/%s/step", base, info.ID),
		"application/json", strings.NewReader(`{"cycles": 1234}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("step: status %d", resp.StatusCode)
	}

	// Graceful shutdown: exit 0, session checkpointed into the drain dir.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	// Read stderr to EOF before Wait: Wait closes the pipe, and a read
	// still in flight would lose the final drain notice.
	rest := <-restc
	if code := exitStatus(cmd.Wait()); code != 0 {
		t.Fatalf("drained server exited %d, want 0; stderr:\n%s", code, rest)
	}
	if !strings.Contains(rest, "drained 1 session") {
		t.Fatalf("missing drain notice:\n%s", rest)
	}
	sn, err := snap.Load(filepath.Join(drainDir, info.ID+".snap"))
	if err != nil {
		t.Fatalf("drained session snapshot unreadable: %v", err)
	}
	if sn.Cfg.Streams != 1 {
		t.Fatalf("drained snapshot geometry: %+v", sn.Cfg)
	}
}

// TestCLIDiscserveEarlySignalDrains: a SIGTERM sent the moment
// discserve announces its address must still drain and exit 0. The
// signal handler has to be installed before the announcement; a
// signal that beats it kills the process undrained.
func TestCLIDiscserveEarlySignalDrains(t *testing.T) {
	bin := buildTool(t, "discserve", "./cmd/discserve")
	for i := 0; i < 10; i++ {
		cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-drain-dir", t.TempDir())
		stderrPipe, err := cmd.StderrPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		rd := bufio.NewReader(stderrPipe)
		line, err := rd.ReadString('\n')
		if err != nil || !strings.Contains(line, "listening on ") {
			cmd.Process.Kill()
			t.Fatalf("run %d: no listen announcement: %q %v", i, line, err)
		}
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		rest, _ := io.ReadAll(rd)
		if code := exitStatus(cmd.Wait()); code != 0 || !strings.Contains(string(rest), "drained 0 session") {
			t.Fatalf("run %d: exited %d after an early SIGTERM, want a drained exit 0; stderr:\n%s%s", i, code, line, rest)
		}
	}
}
