package trace

import (
	"strings"
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

const fourLoops = `
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

// TestFigure31Interleave: with four streams active, consecutive pipe
// slots belong to different streams (the Figure 3.1 picture).
func TestFigure31Interleave(t *testing.T) {
	m := machineWith(t, core.Config{Streams: 4}, fourLoops)
	for i, base := range []uint16{0, 0x100, 0x200, 0x300} {
		m.StartStream(i, base)
	}
	m.Run(8) // warm up
	r := Record(m, 12)
	if got := r.StreamsSeen(); len(got) != 4 {
		t.Fatalf("streams seen: %v", got)
	}
	// In steady state the IF stage must rotate across streams.
	var order []int
	for _, rec := range r.Records {
		if rec.Stages[0].Valid {
			order = append(order, rec.Stages[0].Stream)
		}
	}
	for i := 1; i < len(order); i++ {
		if order[i] == order[i-1] {
			t.Fatalf("same stream fetched twice in a row with 4 ready streams: %v", order)
		}
	}
	out := r.RenderPipeline()
	for _, want := range []string{"IF", "RD", "EX", "WR", "1", "2", "3", "4"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

// TestFigure32JumpIsolation: while a jump of stream 1 is in flight, no
// other instruction of stream 1 is in the pipe; the other streams keep
// flowing (the Figure 3.2 picture).
func TestFigure32JumpIsolation(t *testing.T) {
	m := machineWith(t, core.Config{Streams: 4}, fourLoops)
	for i, base := range []uint16{0, 0x100, 0x200, 0x300} {
		m.StartStream(i, base)
	}
	m.Run(8)
	r := Record(m, 40)
	for s := 0; s < 4; s++ {
		// Scan for cycles where stream s holds a jump (label 'e' = the
		// 5th word of each loop) and check exclusivity there.
		for i, rec := range r.Records {
			for _, st := range rec.Stages {
				if st.Valid && st.Stream == s && strings.HasPrefix(st.Text, "JMP") {
					if !r.OnlyStreamInPipe(s, i, i+1) {
						t.Fatalf("stream %d had companions in pipe during its jump at record %d:\n%s",
							s, i, r.RenderPipeline())
					}
				}
			}
		}
	}
	// The pipe itself must not drain: other streams fill the slots.
	for _, rec := range r.Records {
		n := 0
		for _, st := range rec.Stages {
			if st.Valid {
				n++
			}
		}
		if n < 3 {
			t.Fatalf("pipe nearly empty (%d/4) despite 4 active streams", n)
		}
	}
}

// TestFigure33Reallocation reproduces the Figure 3.3 storyline: stream
// 1 holds T/2 and the rest T/6 each; when the others go inactive,
// stream 1's measured share rises toward T, then falls back.
func TestFigure33Reallocation(t *testing.T) {
	m := machineWith(t, core.Config{Streams: 4, Shares: []int{3, 1, 1, 1}}, `
.org 0x000
a: ADDI R0, 1
   ADDI R1, 1
   ADDI R2, 1
   ADDI R3, 1
   ADDI R4, 1
   ADDI R5, 1
   JMP a
.org 0x100
    LDI R0, 40
b:  SUBI R0, 1
    BNE b
    HALT
.org 0x200
    LDI R0, 40
c:  SUBI R0, 1
    BNE c
    HALT
.org 0x300
    LDI R0, 40
d:  SUBI R0, 1
    BNE d
    HALT
`)
	m.StartStream(0, 0)
	m.StartStream(1, 0x100)
	m.StartStream(2, 0x200)
	m.StartStream(3, 0x300)
	series := ThroughputSeries(m, 10, 100)
	early := series[0][0] // stream 1's share while everyone runs
	late := series[9][0]  // after the finite tasks halted
	if early > 0.75 {
		t.Fatalf("stream 1 early share %.2f; partition not applied", early)
	}
	if late < 0.75 {
		t.Fatalf("stream 1 late share %.2f; throughput not reallocated", late)
	}
	out := RenderThroughput(series)
	if !strings.Contains(out, "IS1") || !strings.Contains(out, "time") {
		t.Fatalf("render malformed:\n%s", out)
	}
}

func TestRenderThroughputEmpty(t *testing.T) {
	if RenderThroughput(nil) != "" {
		t.Fatal("empty series should render empty")
	}
}

// TestThroughputSeriesDegenerate: non-positive interval counts or
// lengths must yield an empty series (and not advance the machine),
// never rows of NaN from a zero-length division.
func TestThroughputSeriesDegenerate(t *testing.T) {
	m := machineWith(t, core.Config{Streams: 1}, `a: ADDI R0, 1
   JMP a`)
	m.StartStream(0, 0)
	for _, tc := range []struct{ intervals, intervalLen int }{
		{0, 100}, {-3, 100}, {16, 0}, {16, -50}, {0, 0},
	} {
		before := m.Stats().Cycles
		series := ThroughputSeries(m, tc.intervals, tc.intervalLen)
		if len(series) != 0 {
			t.Errorf("ThroughputSeries(%d, %d) = %d rows, want empty",
				tc.intervals, tc.intervalLen, len(series))
		}
		if got := m.Stats().Cycles; got != before {
			t.Errorf("ThroughputSeries(%d, %d) advanced the machine %d cycles",
				tc.intervals, tc.intervalLen, got-before)
		}
		if RenderThroughput(series) != "" {
			t.Errorf("degenerate series rendered non-empty output")
		}
	}
}

func TestLabelStyles(t *testing.T) {
	if got := label(core.SlotView{}); got != "--" {
		t.Fatalf("invalid slot label %q", got)
	}
	if got := label(core.SlotView{Valid: true, Stream: 2, PC: 0}); got != "a3" {
		t.Fatalf("label = %q, want a3", got)
	}
	if got := label(core.SlotView{Valid: true, Stream: 0, IntEntry: true}); got != "I1" {
		t.Fatalf("entry label = %q", got)
	}
}

func TestWriteVCD(t *testing.T) {
	m := machineWith(t, core.Config{Streams: 2}, `
.org 0
x: ADDI R0, 1
   JMP x
.org 0x100
y: ADDI R0, 1
   JMP y
`)
	m.StartStream(0, 0)
	m.StartStream(1, 0x100)
	m.Run(4)
	r := Record(m, 10)
	var sb strings.Builder
	if err := r.WriteVCD(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"$timescale", "$enddefinitions",
		"stage_IF_stream", "stage_WR_pc",
		"#5\n", // timestamps present
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("VCD missing %q:\n%s", want, out[:200])
		}
	}
	// Value-change lines: 8- and 16-bit binary vectors.
	if !strings.Contains(out, "b00000000 !") && !strings.Contains(out, "b00000001 !") {
		t.Fatal("no stream value changes emitted")
	}
	// Changes only on change: successive identical cycles shouldn't
	// re-emit; the file must be shorter than a naive full dump.
	lines := strings.Count(out, "\n")
	if lines > 10*(2*4)+40 {
		t.Fatalf("VCD not change-compressed: %d lines", lines)
	}
}

func TestBitsHelper(t *testing.T) {
	if got := bits(5, 8); got != "00000101" {
		t.Fatalf("bits(5,8) = %q", got)
	}
	if got := bits(0xFFFF, 16); got != "1111111111111111" {
		t.Fatalf("bits = %q", got)
	}
}
