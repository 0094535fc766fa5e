package main

import (
	"bytes"
	"compress/flate"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// ---------------------------------------------------------------------
// Host-speed calibration.
//
// The host this benchmark was built on runs the same code 25-45% faster
// or slower for stretches of 10-30 s at a time (co-tenants on the
// physical cores); CPU time tracks wall time, so this is not steal, and
// no affordable run length averages it out. Every timed interval is
// therefore paired with calibration pulses of a fixed CPU kernel
// defined in this file, which no change to the simulator can speed up
// or slow down. A pulse's speed is calNominal divided by the pulse's
// time, and each interval's time is multiplied by the median speed of
// its own pulses. Reported times are thus "seconds on the nominal
// host": a change that makes the simulator 10% faster still reads 10%
// faster, while the host's phases cancel. The mean raw speed is
// reported per layer as host.speed, so raw times can be recovered.

// calNominal is one pulse's time on the recording host in its typical
// phase (see README.md, "Host speed").
const calNominal = 250 * time.Microsecond

// calVMRuns is how many times a pulse runs the register-VM loop.
const calVMRuns = 40

// calFlateBytes is how much text a pulse compresses.
const calFlateBytes = 8 << 10

// calKernel is the calibration workload: a small bytecode interpreter
// (branchy, L1-resident, like the simulator's dispatch loop) plus a
// flate compression of fixed text (table lookups, data-dependent
// branches). Together they track the simulator's sensitivity to the
// host's phases far better than either alone.
type calKernel struct {
	r    [8]int32
	mem  [256]int32
	text []byte
	buf  bytes.Buffer
	fw   *flate.Writer
	sink int

	speeds float64 // sum of every pulse's speed
	pulses int
}

// calProg is the VM program: a 200-iteration loop of loads, stores and
// ALU ops. Encoding: op<<24 | a<<16 | b<<8 | c.
var calProg = []uint32{
	1<<24 | 0<<16 | 0<<8 | 0,   // r0 = 0
	1<<24 | 1<<16 | 0<<8 | 200, // r1 = 200
	2<<24 | 2<<16 | 0<<8 | 3,   // loop: r2 = r0 + r3
	3<<24 | 3<<16 | 2<<8 | 0,   // r3 = mem[r2]
	2<<24 | 3<<16 | 3<<8 | 2,   // r3 = r3 + r2
	4<<24 | 3<<16 | 2<<8 | 0,   // mem[r2] = r3
	5<<24 | 4<<16 | 3<<8 | 1,   // r4 = r3 ^ r1
	2<<24 | 0<<16 | 0<<8 | 1,   // r0 = r0 + 1
	6<<24 | 0<<16 | 1<<8 | 2,   // if r0 < r1 goto loop
	7 << 24,                    // halt
}

func newCalKernel() *calKernel {
	c := &calKernel{text: make([]byte, calFlateBytes)}
	words := []string{"alpha ", "beta ", "gamma ", "delta ", "disc ", "stream ", "pipe ", "bus "}
	x := uint64(0x9E3779B97F4A7C15)
	for i := 0; i < len(c.text); {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		i += copy(c.text[i:], words[x%uint64(len(words))])
	}
	fw, err := flate.NewWriter(&c.buf, 1)
	if err != nil {
		panic(err) // level 1 is always valid
	}
	c.fw = fw
	return c
}

func (c *calKernel) vm() int {
	pc, n := 0, 0
	for {
		in := calProg[pc]
		op, a, b, k := in>>24, (in>>16)&255, (in>>8)&255, in&255
		n++
		switch op {
		case 1:
			c.r[a] = int32(k)
			pc++
		case 2:
			if a != 0 {
				c.r[a] = c.r[b] + c.r[k&7]
			} else {
				c.r[a] = c.r[b] + int32(k)
			}
			pc++
		case 3:
			c.r[a] = c.mem[c.r[b]&255]
			pc++
		case 4:
			c.mem[c.r[b]&255] = c.r[a]
			pc++
		case 5:
			c.r[a] = c.r[b] ^ c.r[k&7]
			pc++
		case 6:
			if c.r[a] < c.r[b] {
				pc = int(k)
			} else {
				pc++
			}
		default:
			return n
		}
	}
}

// pulse runs the kernel once and returns the host speed it saw.
func (c *calKernel) pulse() float64 {
	t0 := time.Now()
	for i := 0; i < calVMRuns; i++ {
		c.sink += c.vm()
	}
	c.buf.Reset()
	c.fw.Reset(&c.buf)
	_, _ = c.fw.Write(c.text) // writes to a bytes.Buffer cannot fail
	_ = c.fw.Close()
	c.sink += c.buf.Len()
	sp := float64(calNominal) / float64(time.Since(t0))
	c.speeds += sp
	c.pulses++
	return sp
}

// meanSpeed is the mean of every pulse so far: the host's raw speed
// over the run relative to the nominal host.
func (c *calKernel) meanSpeed() float64 {
	if c.pulses == 0 {
		return 1
	}
	return c.speeds / float64(c.pulses)
}

// speed is the median of three back-to-back pulses, which drops a pulse
// hit by an interrupt.
func (c *calKernel) speed() float64 {
	a, b, d := c.pulse(), c.pulse(), c.pulse()
	return median3(a, b, d)
}

// memNominal is one memory pulse's time on the recording host.
const memNominal = 750 * time.Microsecond

// memKernel is the calibration for allocation- and copy-heavy work
// (machine builds, snapshot round trips), which the host's phases move
// differently from pure CPU work: a pulse copies 4 MB there and back,
// past the caches.
type memKernel struct{ a, b []byte }

func newMemKernel() *memKernel {
	k := &memKernel{a: make([]byte, 4<<20), b: make([]byte, 4<<20)}
	for i := range k.a {
		k.a[i] = byte(i)
	}
	copy(k.b, k.a)
	return k
}

func (k *memKernel) pulse() float64 {
	t0 := time.Now()
	copy(k.b, k.a)
	copy(k.a, k.b)
	return float64(memNominal) / float64(time.Since(t0))
}

// buildSpeed is the speed for allocation- and copy-heavy work: the
// geometric mean of the CPU and memory speeds, each the median of
// three pulses. Measured on the recording host, it leaves such work
// steadier than either speed alone (the CPU speed alone overcorrects).
func buildSpeed(c *calKernel, m *memKernel) float64 {
	return math.Sqrt(c.speed() * median3(m.pulse(), m.pulse(), m.pulse()))
}

func median3(a, b, c float64) float64 {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	if a > b {
		return a
	}
	return b
}

// pulser calibrates work that runs on several goroutines at once (the
// sweep's workers, the server's handlers and workers). Pulses taken
// between such phases miss contention that changes within a few
// hundred milliseconds, so a goroutine of its own pulses every period
// while the work runs, and each sample is normalized by the pulses
// around it. The pulser's own CPU share is part of what every run
// measures.
type pulser struct {
	mu   sync.Mutex
	t0   time.Time
	at   []time.Duration // since t0
	sp   []float64
	stop chan struct{}
	done chan struct{}
}

func startPulser(period time.Duration) *pulser {
	p := &pulser{t0: time.Now(), stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		cal := newCalKernel()
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			sp := cal.pulse()
			p.mu.Lock()
			p.at = append(p.at, time.Since(p.t0))
			p.sp = append(p.sp, sp)
			p.mu.Unlock()
			select {
			case <-p.stop:
				return
			case <-t.C:
			}
		}
	}()
	return p
}

// finish stops the pulser and waits for its goroutine.
func (p *pulser) finish() {
	close(p.stop)
	<-p.done
}

// around returns the median speed of the pulses within ±half of at,
// widening the window until it holds at least three pulses.
func (p *pulser) around(at time.Time, half time.Duration) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.sp) == 0 {
		return 1
	}
	x := at.Sub(p.t0)
	var win []float64
	for h := half; ; h *= 2 {
		win = win[:0]
		lo := sort.Search(len(p.at), func(i int) bool { return p.at[i] >= x-h })
		for i := lo; i < len(p.at) && p.at[i] <= x+h; i++ {
			win = append(win, p.sp[i])
		}
		if len(win) >= 3 || len(win) == len(p.sp) {
			break
		}
	}
	return median(win)
}

// during is the median speed of the pulses taken between a and b.
func (p *pulser) during(a, b time.Time) float64 { return p.around(a.Add(b.Sub(a)/2), b.Sub(a)/2) }

func (p *pulser) mean() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return mean(p.sp)
}

// ---------------------------------------------------------------------
// Statistics.

// quantile sorts a copy and interpolates linearly between order
// statistics (the same definition as numpy's default).
func quantile(v []float64, q float64) float64 {
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	return sortedQuantile(c, q)
}

// sortedQuantile is quantile on an already sorted slice.
func sortedQuantile(c []float64, q float64) float64 {
	if len(c) == 0 {
		return 0
	}
	pos := q * float64(len(c)-1)
	lo := int(math.Floor(pos))
	if lo >= len(c)-1 {
		return c[len(c)-1]
	}
	f := pos - float64(lo)
	return c[lo]*(1-f) + c[lo+1]*f
}

func median(v []float64) float64 { return quantile(v, 0.5) }

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// ---------------------------------------------------------------------
// Peak heap.

// heapWatch samples the heap's live-object bytes every 20 ms
// and keeps the peak. runtime/metrics reads do not stop the world.
type heapWatch struct {
	peak atomic.Uint64
	stop chan struct{}
	done chan struct{}
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startHeapWatch() *heapWatch {
	h := &heapWatch{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: heapMetric}}
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			h.sample(s)
			select {
			case <-h.stop:
				h.sample(s)
				return
			case <-t.C:
			}
		}
	}()
	return h
}

func (h *heapWatch) sample(s []metrics.Sample) {
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return
	}
	v := s[0].Value.Uint64()
	for {
		old := h.peak.Load()
		if v <= old || h.peak.CompareAndSwap(old, v) {
			return
		}
	}
}

// finish stops the sampler and returns the peak in MB.
func (h *heapWatch) finish() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak.Load()) / (1 << 20)
}

// gcStats is the Go runtime's per-layer view of a phase.
type gcStats struct {
	cycles  uint32
	pauseNs uint64
	alloc   uint64
}

func readGC() gcStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return gcStats{cycles: m.NumGC, pauseNs: m.PauseTotalNs, alloc: m.TotalAlloc}
}

func (g gcStats) since(a gcStats) gcStats {
	return gcStats{cycles: g.cycles - a.cycles, pauseNs: g.pauseNs - a.pauseNs, alloc: g.alloc - a.alloc}
}

// ---------------------------------------------------------------------
// Digests.

// digest folds any number of values into one FNV-64 hash through their
// %+v rendering, which is deterministic for the structs and slices the
// simulator reports (no maps).
type digest struct{ h hash.Hash64 }

func newDigest() *digest { return &digest{h: fnv.New64a()} }

func (d *digest) add(vs ...any) {
	for _, v := range vs {
		fmt.Fprintf(d.h, "%+v;", v)
	}
}

func (d *digest) sum() string { return fmt.Sprintf("%016x", d.h.Sum64()) }

// ---------------------------------------------------------------------
// Spans.

// span is one timed call into a layer, recorded by the traced run.
type span struct {
	Name   string
	Start  time.Duration // since the tracer's origin
	End    time.Duration
	Parent int // index of the parent span, -1 for a root
	Req    int // request id; spans of one request share it
	Lane   int // trace track (client goroutine, worker, job slot)
}

// tracer keeps spans in memory; a nil tracer records nothing, so the
// untraced run pays one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer(on bool) *tracer {
	if !on {
		return nil
	}
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

// add records a finished span and returns its index (-1 when off).
func (t *tracer) add(name string, start, end time.Time, parent, req, lane int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: start.Sub(t.t0), End: end.Sub(t.t0), Parent: parent, Req: req, Lane: lane})
	return len(t.spans) - 1
}

// chromeEvent mirrors the trace-event objects obs.WriteChromeTrace
// emits, with microsecond timestamps of wall time.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// write renders the spans as Chrome trace-event JSON (open in Perfetto
// or chrome://tracing) at path, creating its directory.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	evs := make([]chromeEvent, 0, len(t.spans))
	for i, s := range t.spans {
		args := map[string]any{"span": i, "parent": s.Parent}
		if s.Req >= 0 {
			args["req"] = s.Req
		}
		evs = append(evs, chromeEvent{
			Name: s.Name, Cat: "discbench", Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: s.Lane, Args: args,
		})
	}
	t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{evs}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
