package rt

import (
	"testing"

	"disc/internal/asm"
	"disc/internal/core"
)

func machineWith(t *testing.T, cfg core.Config, src string) *core.Machine {
	t.Helper()
	m := core.MustNew(cfg)
	im, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := im.Load(m, nil); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestSampleStats(t *testing.T) {
	s := Samples{4, 2, 9, 7, 3}
	if s.Min() != 2 || s.Max() != 9 {
		t.Fatalf("min/max: %d/%d", s.Min(), s.Max())
	}
	if s.Mean() != 5 {
		t.Fatalf("mean: %v", s.Mean())
	}
	if s.Percentile(1.0) != 9 || s.Percentile(0.2) != 2 {
		t.Fatalf("percentiles: %d %d", s.Percentile(1.0), s.Percentile(0.2))
	}
	var empty Samples
	if empty.Min() != 0 || empty.Max() != 0 || empty.Mean() != 0 || empty.Percentile(0.5) != 0 {
		t.Fatal("empty samples must be all-zero")
	}
}

const latencyRig = `
.org 0
busy: ADDI R0, 1        ; stream 0: background load
      ADDI R0, 1
      JMP busy
.org 0x20B              ; vector stream 1, bit 3
      RETI              ; minimal handler: enter level, return
`

// TestDispatchLatencyDedicatedStream: a stream dedicated to an
// interrupt enters its handler level within a handful of cycles even
// while another stream loads the machine — and far faster than the
// conventional context-saving baseline.
func TestDispatchLatencyDedicatedStream(t *testing.T) {
	m := machineWith(t, core.Config{Streams: 2, VectorBase: 0x200}, latencyRig)
	m.StartStream(0, 0)
	m.Run(20)
	samples, skipped, err := MeasureDispatchLatency(m, 1, 3, 50, 100)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 {
		t.Fatalf("%d events skipped", skipped)
	}
	if len(samples) != 50 {
		t.Fatalf("%d samples", len(samples))
	}
	if max := samples.Max(); max > 10 {
		t.Fatalf("worst-case dispatch latency %d cycles", max)
	}
	conv := ConventionalLatency(4, 12, 4)
	if samples.Max() >= conv {
		t.Fatalf("DISC latency %d not better than conventional %d", samples.Max(), conv)
	}
}

func TestMeasureValidation(t *testing.T) {
	m := machineWith(t, core.Config{Streams: 1, VectorBase: 0x200}, latencyRig)
	if _, _, err := MeasureDispatchLatency(m, 5, 3, 1, 10); err == nil {
		t.Fatal("bad stream accepted")
	}
	if _, _, err := MeasureDispatchLatency(m, 0, 0, 1, 10); err == nil {
		t.Fatal("background bit accepted")
	}
	if _, _, err := MeasureDispatchLatency(m, 0, 3, 1, 0); err == nil {
		t.Fatal("zero gap accepted")
	}
}

func TestConventionalLatencyFormula(t *testing.T) {
	// drain(3) + 12 regs * (1+4) + refill(4) = 67
	if got := ConventionalLatency(4, 12, 4); got != 67 {
		t.Fatalf("ConventionalLatency = %d", got)
	}
}

const deadlineRig = `
.org 0
bg:  ADDI R0, 1
     JMP bg
.org 0x20B             ; stream 1, bit 3 -> fast task
     JMP fast
.org 0x214             ; stream 2, bit 4 -> slow task
     JMP slow
.org 0x300
fast:
     LDM  R3, [0x10]
     ADDI R3, 1
     STM  R3, [0x10]   ; ack
     RETI
.org 0x320
slow:
     LDI  R4, 60       ; burn ~180 cycles of its stream's slots
sl:  SUBI R4, 1
     BNE  sl
     LDM  R3, [0x11]
     ADDI R3, 1
     STM  R3, [0x11]   ; ack
     RETI
`

// TestDeadlinesMetWithDedicatedStreams: both periodic tasks meet their
// deadlines when each owns a stream, even with a busy background.
func TestDeadlinesMetWithDedicatedStreams(t *testing.T) {
	m := machineWith(t, core.Config{Streams: 3, VectorBase: 0x200}, deadlineRig)
	m.StartStream(0, 0)
	tasks := []PeriodicTask{
		{Name: "fast", Stream: 1, Bit: 3, Period: 200, Deadline: 80, AckAddr: 0x10},
		{Name: "slow", Stream: 2, Bit: 4, Period: 1500, Deadline: 1200, AckAddr: 0x11},
	}
	res, err := RunDeadlines(m, tasks, 30000)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.Activations < 10 {
			t.Fatalf("task %s activated only %d times", r.Name, r.Activations)
		}
		if r.Misses != 0 {
			t.Fatalf("task %s missed %d/%d deadlines (max response %d)",
				r.Name, r.Misses, r.Activations, r.MaxResponse)
		}
		if r.MissRate() != 0 {
			t.Fatalf("task %s miss rate %v", r.Name, r.MissRate())
		}
	}
}

// TestDeadlineMissesDetected: an impossible deadline must be reported,
// not silently absorbed.
func TestDeadlineMissesDetected(t *testing.T) {
	m := machineWith(t, core.Config{Streams: 3, VectorBase: 0x200}, deadlineRig)
	m.StartStream(0, 0)
	tasks := []PeriodicTask{
		{Name: "impossible", Stream: 2, Bit: 4, Period: 2000, Deadline: 10, AckAddr: 0x11},
	}
	res, err := RunDeadlines(m, tasks, 20000)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Misses == 0 {
		t.Fatal("impossible deadline reported zero misses")
	}
	if res[0].Completions == 0 {
		t.Fatal("task never completed at all")
	}
}

// TestOverrunCountsAsMiss: a period shorter than the task's execution
// time must produce misses for the overlapped activations.
func TestOverrunCountsAsMiss(t *testing.T) {
	m := machineWith(t, core.Config{Streams: 3, VectorBase: 0x200}, deadlineRig)
	m.StartStream(0, 0)
	tasks := []PeriodicTask{
		{Name: "overrun", Stream: 2, Bit: 4, Period: 100, Deadline: 90, AckAddr: 0x11},
	}
	res, err := RunDeadlines(m, tasks, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Misses == 0 {
		t.Fatal("overrunning task reported zero misses")
	}
}

func TestRunDeadlinesValidation(t *testing.T) {
	m := machineWith(t, core.Config{Streams: 1}, "NOP\nHALT\n")
	if _, err := RunDeadlines(m, []PeriodicTask{{Name: "x", Stream: 9, Period: 10}}, 100); err == nil {
		t.Fatal("bad stream accepted")
	}
	if _, err := RunDeadlines(m, []PeriodicTask{{Name: "x", Stream: 0, Period: 0}}, 100); err == nil {
		t.Fatal("zero period accepted")
	}
}

func TestHistogram(t *testing.T) {
	s := Samples{3, 3, 3, 4, 4, 9}
	out := s.Histogram(3)
	if out == "" || out == "(no samples)\n" {
		t.Fatalf("histogram empty: %q", out)
	}
	// Three buckets, the first the fullest.
	lines := 0
	for _, c := range out {
		if c == '\n' {
			lines++
		}
	}
	if lines != 3 {
		t.Fatalf("%d histogram lines, want 3:\n%s", lines, out)
	}
	if (Samples{}).Histogram(4) != "(no samples)\n" {
		t.Fatal("empty samples histogram wrong")
	}
	if (Samples{5}).Histogram(0) != "(no samples)\n" {
		t.Fatal("zero buckets not handled")
	}
}
