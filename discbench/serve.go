package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"disc/internal/analysis"
	"disc/internal/asm"
	"disc/internal/blockc"
	"disc/internal/bus"
	"disc/internal/core"
	"disc/internal/isa"
	"disc/internal/rng"
	"disc/internal/serve"
	"disc/internal/snap"
)

// The serve_http traffic: one process, two client goroutines with one
// connection each. The short-op client sends on a fixed schedule
// (open loop): mostly 2,000-cycle steps, plus small fixed shares of
// inspect, snapshot download, fork+delete and GET /v1/metrics. The
// long-op client sends a 5M-cycle step (the server's MaxStepCycles) on
// a fixed slower schedule to sessions that share workers with the
// short-step sessions. Latency runs from when a request was due.
const (
	shortPeriod = 2 * time.Millisecond // 500 short ops/s
	longPeriod  = time.Second
	longStart   = 500 * time.Millisecond // first long step, after the lead-in
	leadIn      = 100 * time.Millisecond
	pulsePeriod = 20 * time.Millisecond
	speedHalf   = 100 * time.Millisecond // normalization window around a sample

	mixedBody      = 1000 // instructions per stream, 4-stream programs
	loopBody       = 48   // inner-loop ALU ops, block programs
	serveWarmSteps = 10
)

// opShares is the short client's mix; the rest are 2,000-cycle steps.
var opShares = []struct {
	op    string
	share float64
}{{"inspect", 0.02}, {"snapshot", 0.01}, {"fork", 0.02}, {"metrics", 0.01}}

type sessKind int

const (
	kindPlain sessKind = iota // 4 streams, interpreter
	kindBlock                 // 1 stream, block_engine
	kindObs                   // 4 streams, metrics (obs registry)
	kindLong                  // 1 stream, block_engine, long steps only
)

// sessSpec is one tenant session, created over HTTP.
type sessSpec struct {
	kind sessKind
	req  serve.CreateRequest
}

// genMixed emits a 4-stream program: per stream a loop of ALU ops,
// external-memory loads (bus waits), taken jumps and conditional
// branches. It never halts and never waits on an interrupt.
func genMixed(src *rng.Source) (string, map[string]string) {
	var b strings.Builder
	start := map[string]string{}
	for s := 0; s < 4; s++ {
		base := s * 0x1000
		fmt.Fprintf(&b, ".org %d\ns%d:\n    LI R7, %d\ns%d_top:\n", base, s, isa.ExternalBase, s)
		for i := 0; i < mixedBody; i++ {
			lbl := fmt.Sprintf("s%d_%d", s, i)
			switch x := src.Float64(); {
			case x < 0.08:
				fmt.Fprintf(&b, "    LD R6, [R7+%d]\n", src.Intn(32))
			case x < 0.11:
				fmt.Fprintf(&b, "    JMP %s\n%s:\n", lbl, lbl)
			case x < 0.15:
				fmt.Fprintf(&b, "    CMPI R%d, %d\n    BNE %s\n%s:\n", src.Intn(4), src.Intn(16), lbl, lbl)
			case x < 0.27:
				ops := []string{"ADD", "SUB", "XOR", "AND", "OR"}
				fmt.Fprintf(&b, "    %s R%d, R%d, R%d\n", ops[src.Intn(len(ops))], src.Intn(4), src.Intn(5), src.Intn(5))
			default:
				fmt.Fprintf(&b, "    ADDI R%d, %d\n", src.Intn(4), 1+src.Intn(15))
			}
		}
		fmt.Fprintf(&b, "    JMP s%d_top\n", s)
		start[strconv.Itoa(s)] = fmt.Sprintf("s%d", s)
	}
	return b.String(), start
}

// genLoop emits a 1-stream compute program: a counted inner loop of
// ALU ops inside an endless outer loop, which the block engine fuses.
// The op sequence is fixed and only registers and immediates come from
// the seed, so every seed's program costs the same to simulate.
func genLoop(src *rng.Source) string {
	var b strings.Builder
	b.WriteString("main:\n    LDI R0, 0\nouter:\n    LDI R1, 100\ninner:\n")
	ops := []string{"ADD", "SUB", "XOR", "AND", "OR"}
	for i := 0; i < loopBody; i++ {
		if i%2 == 0 {
			fmt.Fprintf(&b, "    ADDI R%d, %d\n", 2+src.Intn(4), 1+src.Intn(15))
		} else {
			fmt.Fprintf(&b, "    %s R%d, R%d, R%d\n", ops[(i/2)%len(ops)], 2+src.Intn(4), 2+src.Intn(4), 2+src.Intn(4))
		}
	}
	b.WriteString("    SUBI R1, 1\n    BNE inner\n    ADDI R0, 1\n    JMP outer\n")
	return b.String()
}

// sessionSpecs derives the tenants from the seed, in creation order.
// Session n lands on worker n mod 4, so the interleaving spreads every
// kind over the workers and the two long sessions (created last) share
// workers 1 and 2 with short-step sessions.
func sessionSpecs(seed uint64) []sessSpec {
	kinds := []sessKind{
		kindPlain, kindPlain, kindBlock, kindObs,
		kindPlain, kindPlain, kindObs, kindBlock,
		kindPlain, kindPlain, kindPlain, kindPlain,
		kindLong, kindLong,
	}
	// The long sessions share one program, so a long step costs the same
	// whichever of them it goes to.
	longProg := genLoop(rng.New(rng.Child(seed, 200)))
	var specs []sessSpec
	for i, k := range kinds {
		src := rng.New(rng.Child(seed, uint64(100+i)))
		var req serve.CreateRequest
		switch k {
		case kindPlain, kindObs:
			prog, start := genMixed(src)
			req = serve.CreateRequest{Program: prog, Start: start, Metrics: k == kindObs}
		case kindBlock:
			req = serve.CreateRequest{Program: genLoop(src), Streams: 1, BlockEngine: true}
		case kindLong:
			req = serve.CreateRequest{Program: longProg, Streams: 1, BlockEngine: true}
		}
		specs = append(specs, sessSpec{kind: k, req: req})
	}
	return specs
}

// plannedOp is one scheduled short-client request.
type plannedOp struct {
	op   string
	sess int // index into the short sessions
}

// planShort draws the short client's schedule from the seed. Forks go
// to plain sessions only, so fork latency has one mode.
func planShort(seed uint64, n int, kinds []sessKind) []plannedOp {
	var plain []int
	for i, k := range kinds {
		if k == kindPlain {
			plain = append(plain, i)
		}
	}
	src := rng.New(rng.Child(seed, 99))
	plan := make([]plannedOp, n)
	for i := range plan {
		x, op := src.Float64(), "step"
		for _, s := range opShares {
			if x < s.share {
				op = s.op
				break
			}
			x -= s.share
		}
		sess := src.Intn(len(kinds))
		if op == "fork" {
			sess = plain[src.Intn(len(plain))]
		}
		plan[i] = plannedOp{op: op, sess: sess}
	}
	return plan
}

// opRecord is one request as the client saw it.
type opRecord struct {
	op        string
	sess      int
	req       int
	due, sent time.Time
	done      time.Time
	cycles    int
	status    int
	err       error
}

// handlerTimer wraps the NewMux handler and times each request on the
// server side, keyed by the client's request id.
type handlerTimer struct {
	next http.Handler
	tr   *tracer
	mu   sync.Mutex
	dur  map[int]time.Duration
}

func (h *handlerTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	h.next.ServeHTTP(w, r)
	t1 := time.Now()
	id, err := strconv.Atoi(r.Header.Get("X-Bench-Req"))
	if err != nil {
		return
	}
	h.tr.add("serve.handler", t0, t1, -1, id, 3)
	h.mu.Lock()
	h.dur[id] = t1.Sub(t0)
	h.mu.Unlock()
}

func (h *handlerTimer) get(id int) (time.Duration, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	d, ok := h.dur[id]
	return d, ok
}

// rig is a running server: serve.Server behind serve.NewMux on a
// loopback listener, with its tenant sessions.
type rig struct {
	srv        *serve.Server
	hs         *http.Server
	served     chan error
	base       string
	timer      *handlerTimer
	specs      []sessSpec
	shortIDs   []string
	shortKinds []sessKind
	longIDs    []string
	nextReq    atomic.Int64
}

// startRig starts the server and creates every session over HTTP: the
// work serve_http's setup_s times.
func startRig(specs []sessSpec, tr *tracer) (*rig, error) {
	r := &rig{srv: serve.New(serve.Config{}), specs: specs, served: make(chan error, 1)}
	var h http.Handler = serve.NewMux(r.srv)
	if tr != nil {
		r.timer = &handlerTimer{next: h, tr: tr, dur: map[int]time.Duration{}}
		h = r.timer
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		r.srv.Close()
		return nil, err
	}
	r.base = "http://" + ln.Addr().String()
	r.hs = &http.Server{Handler: h}
	go func() { r.served <- r.hs.Serve(ln) }()
	c := newClient(r)
	for _, s := range specs {
		body, err := json.Marshal(s.req)
		if err != nil {
			r.close()
			return nil, err
		}
		var info serve.SessionInfo
		if err := c.call("POST", "/v1/sessions", body, http.StatusCreated, &info); err != nil {
			r.close()
			return nil, fmt.Errorf("create session: %w", err)
		}
		if s.kind == kindLong {
			r.longIDs = append(r.longIDs, info.ID)
		} else {
			r.shortIDs = append(r.shortIDs, info.ID)
			r.shortKinds = append(r.shortKinds, s.kind)
		}
	}
	c.hc.CloseIdleConnections()
	return r, nil
}

// close stops the HTTP server, waits for it, then the worker pool.
func (r *rig) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = r.hs.Shutdown(ctx) // errors only on timeout; Close below forces it
	_ = r.hs.Close()
	<-r.served
	r.srv.Close()
}

// client is one client goroutine's connection to the rig.
type client struct {
	r  *rig
	hc *http.Client
}

func newClient(r *rig) *client {
	tp := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{r: r, hc: &http.Client{Transport: tp}}
}

func (r *rig) newReq() int { return int(r.nextReq.Add(1)) }

// send issues one request and reads the whole response body.
func (c *client) send(method, path string, body []byte, req int) (int, []byte, error) {
	hr, err := http.NewRequest(method, c.r.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	hr.Header.Set("X-Bench-Req", strconv.Itoa(req))
	if body != nil {
		hr.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(hr)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// call is send plus a status check and an optional JSON decode.
func (c *client) call(method, path string, body []byte, want int, out any) error {
	status, data, err := c.send(method, path, body, c.r.newReq())
	if err != nil {
		return err
	}
	if status != want {
		return fmt.Errorf("%s %s: status %d: %s", method, path, status, bytes.TrimSpace(data))
	}
	if out != nil {
		return json.Unmarshal(data, out)
	}
	return nil
}

// stepBody is the JSON body of a step request.
func stepBody(cycles int) []byte { return []byte(`{"cycles":` + strconv.Itoa(cycles) + `}`) }

// do performs one planned operation and checks its reply.
func (c *client) do(op, id string, req int, rec *opRecord) {
	var status int
	var data []byte
	var err error
	switch op {
	case "step", "long":
		cycles := stepCycles
		if op == "long" {
			cycles = longCycles
		}
		status, data, err = c.send("POST", "/v1/sessions/"+id+"/step", stepBody(cycles), req)
		if err == nil && status == http.StatusOK {
			var res serve.StepResult
			if err = json.Unmarshal(data, &res); err == nil {
				rec.cycles = res.CyclesRun
				if res.CyclesRun != cycles || res.Error != "" || res.Status != "running" {
					err = fmt.Errorf("step %s: ran %d of %d cycles, status %q %s", id, res.CyclesRun, cycles, res.Status, res.Error)
				}
			}
		}
	case "inspect":
		status, data, err = c.send("GET", "/v1/sessions/"+id, nil, req)
		if err == nil && status == http.StatusOK {
			var info serve.SessionInfo
			if err = json.Unmarshal(data, &info); err == nil && info.Status != "running" {
				err = fmt.Errorf("inspect %s: status %q", id, info.Status)
			}
		}
	case "snapshot":
		status, data, err = c.send("GET", "/v1/sessions/"+id+"/snapshot", nil, req)
		if err == nil && status == http.StatusOK {
			_, err = snap.Decode(data)
		}
	case "fork":
		status, data, err = c.send("POST", "/v1/sessions/"+id+"/fork", nil, req)
		if err == nil && status == http.StatusCreated {
			var info serve.SessionInfo
			if err = json.Unmarshal(data, &info); err == nil {
				rec.done = time.Now()
				// The delete is part of the traffic but not of the fork's latency.
				err = c.call("DELETE", "/v1/sessions/"+info.ID, nil, http.StatusOK, nil)
			}
		}
	case "metrics":
		status, data, err = c.send("GET", "/v1/metrics", nil, req)
		if err == nil && status == http.StatusOK {
			var st serve.ServerStats
			err = json.Unmarshal(data, &st)
		}
	}
	if rec.done.IsZero() {
		rec.done = time.Now()
	}
	want := http.StatusOK
	if op == "fork" {
		want = http.StatusCreated
	}
	if err == nil && status != want {
		err = fmt.Errorf("%s %s: status %d: %s", op, id, status, bytes.TrimSpace(data))
	}
	rec.status, rec.err = status, err
}

// warm steps every session, exercises each operation once, and returns
// the digest of every session's statistics and snapshot (its whole
// architectural state).
func (r *rig) warm() (string, error) {
	c := newClient(r)
	defer c.hc.CloseIdleConnections()
	ids := append(append([]string(nil), r.shortIDs...), r.longIDs...)
	for _, id := range ids {
		for i := 0; i < serveWarmSteps; i++ {
			var rec opRecord
			c.do("step", id, r.newReq(), &rec)
			if rec.err != nil {
				return "", rec.err
			}
		}
	}
	for _, op := range []string{"inspect", "snapshot", "fork", "metrics"} {
		var rec opRecord
		c.do(op, r.shortIDs[0], r.newReq(), &rec)
		if rec.err != nil {
			return "", rec.err
		}
	}
	d := newDigest()
	for _, id := range ids {
		var info serve.SessionInfo
		if err := c.call("GET", "/v1/sessions/"+id, nil, http.StatusOK, &info); err != nil {
			return "", err
		}
		status, blob, err := c.send("GET", "/v1/sessions/"+id+"/snapshot", nil, r.newReq())
		if err != nil {
			return "", err
		}
		if status != http.StatusOK {
			return "", fmt.Errorf("snapshot %s: status %d", id, status)
		}
		d.add(info.Cycle, info.Stats, info.Block, blob)
	}
	return d.sum(), nil
}

// spinBefore is how long before a request is due its client stops
// sleeping and spins: a sleeping vCPU wakes up hundreds of
// microseconds late, which would otherwise be most of a short step's
// latency.
const spinBefore = 300 * time.Microsecond

// sleepUntil waits for t; an open-loop client that is behind sends at once.
func sleepUntil(t time.Time) {
	if d := time.Until(t) - spinBefore; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
	}
}

// driveHTTP runs the two clients over HTTP for dur and returns every
// request's record.
func (r *rig) driveHTTP(plan []plannedOp, dur time.Duration, tr *tracer) []opRecord {
	t0 := time.Now().Add(leadIn)
	end := t0.Add(dur)
	var short, long []opRecord
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		c := newClient(r)
		defer c.hc.CloseIdleConnections()
		for i, p := range plan {
			due := t0.Add(time.Duration(i) * shortPeriod)
			if !due.Before(end) {
				break
			}
			sleepUntil(due)
			rec := opRecord{op: p.op, sess: p.sess, req: r.newReq(), due: due, sent: time.Now()}
			c.do(p.op, r.shortIDs[p.sess], rec.req, &rec)
			tr.add("client."+p.op, rec.sent, rec.done, -1, rec.req, 1)
			short = append(short, rec)
		}
	}()
	go func() {
		defer wg.Done()
		c := newClient(r)
		defer c.hc.CloseIdleConnections()
		for i := 0; ; i++ {
			due := t0.Add(longStart + time.Duration(i)*longPeriod)
			if !due.Before(end) {
				break
			}
			sleepUntil(due)
			rec := opRecord{op: "long", sess: i % len(r.longIDs), req: r.newReq(), due: due, sent: time.Now()}
			c.do("long", r.longIDs[rec.sess], rec.req, &rec)
			tr.add("client.long", rec.sent, rec.done, -1, rec.req, 2)
			long = append(long, rec)
		}
	}()
	wg.Wait()
	return append(short, long...)
}

// callRecord is one replayed call on the Server methods.
type callRecord struct {
	op   string
	kind sessKind
	dur  time.Duration
	at   time.Time
}

// replay runs the same schedule on the Server methods directly, in
// process, so call time can be split from JSON, routing and transport.
func (r *rig) replay(plan []plannedOp, dur time.Duration, tr *tracer) ([]callRecord, error) {
	t0 := time.Now().Add(leadIn)
	end := t0.Add(dur)
	var short, long []callRecord
	var errs [2]error
	timed := func(op string, kind sessKind, due time.Time, lane int, fn func() error) (callRecord, error) {
		sleepUntil(due)
		a := time.Now()
		err := fn()
		b := time.Now()
		tr.add("serve.Server."+op, a, b, -1, -1, lane)
		return callRecord{op: op, kind: kind, dur: b.Sub(a), at: due}, err
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i, p := range plan {
			due := t0.Add(time.Duration(i) * shortPeriod)
			if !due.Before(end) {
				break
			}
			id := r.shortIDs[p.sess]
			kind := r.shortKinds[p.sess]
			rec, err := timed(p.op, kind, due, 1, func() error {
				switch p.op {
				case "step":
					res, err := r.srv.Step(id, stepCycles)
					if err == nil && res.CyclesRun != stepCycles {
						err = fmt.Errorf("step %s ran %d cycles", id, res.CyclesRun)
					}
					return err
				case "inspect":
					_, err := r.srv.Inspect(id)
					return err
				case "snapshot":
					_, err := r.srv.SnapshotBytes(id)
					return err
				case "fork":
					info, err := r.srv.Fork(id)
					if err != nil {
						return err
					}
					return r.srv.Delete(info.ID)
				default:
					_ = r.srv.Stats()
					return nil
				}
			})
			if err != nil && errs[0] == nil {
				errs[0] = err
			}
			short = append(short, rec)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			due := t0.Add(longStart + time.Duration(i)*longPeriod)
			if !due.Before(end) {
				break
			}
			id := r.longIDs[i%len(r.longIDs)]
			rec, err := timed("long", kindLong, due, 2, func() error {
				res, err := r.srv.Step(id, longCycles)
				if err == nil && res.CyclesRun != longCycles {
					err = fmt.Errorf("long step %s ran %d cycles", id, res.CyclesRun)
				}
				return err
			})
			if err != nil && errs[1] == nil {
				errs[1] = err
			}
			long = append(long, rec)
		}
	}()
	wg.Wait()
	return append(short, long...), errors.Join(errs[0], errs[1])
}

// forkCheck forks a session over HTTP, steps parent and twin in
// lockstep, and requires byte-identical snapshot downloads.
func (r *rig) forkCheck(id string) error {
	c := newClient(r)
	defer c.hc.CloseIdleConnections()
	var twin serve.SessionInfo
	if err := c.call("POST", "/v1/sessions/"+id+"/fork", nil, http.StatusCreated, &twin); err != nil {
		return err
	}
	var blobs [2][]byte
	for i, sid := range []string{id, twin.ID} {
		var res serve.StepResult
		if err := c.call("POST", "/v1/sessions/"+sid+"/step", stepBody(stepCycles), http.StatusOK, &res); err != nil {
			return err
		}
		status, data, err := c.send("GET", "/v1/sessions/"+sid+"/snapshot", nil, r.newReq())
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("snapshot %s: status %d", sid, status)
		}
		blobs[i] = data
	}
	if !bytes.Equal(blobs[0], blobs[1]) {
		return fmt.Errorf("fork of %s: twin %s downloads a different snapshot after lockstep steps", id, twin.ID)
	}
	return c.call("DELETE", "/v1/sessions/"+twin.ID, nil, http.StatusOK, nil)
}

// setupServe starts a rig and warms it; it returns the rig, the
// digest, and the speed-normalized set-up time.
func setupServe(seed uint64, speeds *pulser, tr *tracer) (*rig, string, time.Duration, error) {
	specs := sessionSpecs(seed)
	t0 := time.Now()
	r, err := startRig(specs, tr)
	if err != nil {
		return nil, "", 0, err
	}
	t1 := time.Now()
	build := time.Duration(float64(t1.Sub(t0)) * speeds.during(t0, t1))
	dg, err := r.warm()
	if err != nil {
		r.close()
		return nil, "", 0, err
	}
	return r, dg, build, nil
}

func runServe(cfg runConfig) (*result, error) {
	res := newResult()
	tr := newTracer(cfg.trace)
	speeds := startPulser(pulsePeriod)
	defer speeds.finish()

	var r *rig
	var digests []string
	var builds []float64
	for i := 0; i < setupRepeats; i++ {
		if r != nil {
			r.close()
		}
		runtime.GC()
		rr, dg, build, err := setupServe(cfg.seed, speeds, tr)
		if err != nil {
			return nil, err
		}
		r, digests, builds = rr, append(digests, dg), append(builds, build.Seconds())
	}
	defer func() {
		if r != nil {
			r.close()
		}
	}()
	res.set("setup_s", median(builds))

	httpDur := cfg.duration()
	if cfg.trace {
		httpDur /= 2 // the other half replays the schedule in process
	}
	plan := planShort(cfg.seed, int(cfg.duration()/shortPeriod)+1, r.shortKinds)

	runtime.GC()
	gc0 := readGC()
	heap := startHeapWatch()
	httpStart := time.Now()
	recs := r.driveHTTP(plan, httpDur, tr)
	httpWall := time.Since(httpStart)
	var calls []callRecord
	var replayErr error
	if cfg.trace {
		calls, replayErr = r.replay(plan, httpDur, tr)
	}
	gc := readGC().since(gc0)
	heapMB := heap.finish()

	// Latencies from due time, normalized by the host speed around them.
	lat := map[string][]float64{}
	rtt := map[string][]float64{}
	var lags, transport, handler []float64
	var cycles float64
	var last time.Time
	rejected := 0
	for _, rec := range recs {
		res.attempted++
		if rec.err != nil {
			res.failed++
			if rec.status == http.StatusTooManyRequests {
				rejected++
			}
			if len(res.problems) < 5 {
				res.fail("%s: %v", rec.op, rec.err)
			}
			continue
		}
		sp := speeds.around(rec.due, speedHalf)
		lat[rec.op] = append(lat[rec.op], ms(rec.done.Sub(rec.due))*sp)
		rtt[rec.op] = append(rtt[rec.op], ms(rec.done.Sub(rec.sent))*sp)
		lags = append(lags, ms(rec.sent.Sub(rec.due)))
		cycles += float64(rec.cycles)
		if rec.done.After(last) {
			last = rec.done
		}
		if r.timer != nil && rec.op == "step" {
			if h, ok := r.timer.get(rec.req); ok {
				handler = append(handler, ms(h)*sp)
				transport = append(transport, ms(rec.done.Sub(rec.sent)-h)*sp)
			}
		}
	}
	if len(lat["step"]) == 0 || len(lat["long"]) == 0 || len(lat["fork"]) == 0 {
		return nil, errors.New("serve_http: the run is too short to sample every operation")
	}
	mcyc := cycles / last.Sub(httpStart.Add(leadIn)).Seconds() / 1e6
	res.set("mcyc_per_s", mcyc)
	res.set("step_p50_ms", median(lat["step"]))
	res.set("step_p99_ms", quantile(lat["step"], 0.99))
	res.set("long_p50_ms", median(lat["long"]))
	res.set("fork_p50_ms", median(lat["fork"]))

	// The sampled forks: one plain and one block session, stepped in
	// lockstep with their twins, must download identical snapshots.
	checked := map[sessKind]bool{}
	for i, k := range r.shortKinds {
		if (k != kindPlain && k != kindBlock) || checked[k] {
			continue
		}
		checked[k] = true
		res.attempted++
		if err := r.forkCheck(r.shortIDs[i]); err != nil {
			res.failed++
			res.fail("fork check: %v", err)
		}
	}

	if cfg.trace {
		res.set("traced.mcyc_per_s", mcyc)
		res.set("traced.step_p50_ms", median(lat["step"]))
		for _, op := range serveOps {
			res.set("serve.rtt_ms."+op+".p50", median(rtt[op]))
			res.set("serve.rtt_ms."+op+".p99", quantile(rtt[op], 0.99))
			res.set("serve.count."+op, float64(len(lat[op])))
		}
		// Handler time per op, by request id.
		hop := map[string][]float64{}
		for _, rec := range recs {
			if h, ok := r.timer.get(rec.req); ok && rec.err == nil {
				hop[rec.op] = append(hop[rec.op], ms(h)*speeds.around(rec.due, speedHalf))
			}
		}
		cop := map[string][]float64{}
		var obsStep, plainStep []float64
		for _, c := range calls {
			d := ms(c.dur) * speeds.around(c.at, speedHalf)
			cop[c.op] = append(cop[c.op], d)
			if c.op == "step" && c.kind == kindObs {
				obsStep = append(obsStep, d)
			}
			if c.op == "step" && c.kind == kindPlain {
				plainStep = append(plainStep, d)
			}
		}
		if replayErr != nil {
			res.fail("replay: %v", replayErr)
		}
		for _, op := range serveOps {
			res.set("serve.handler_ms."+op+".p50", median(hop[op]))
			res.set("serve.handler_ms."+op+".p99", quantile(hop[op], 0.99))
			res.set("serve.call_ms."+op+".p50", median(cop[op]))
			res.set("serve.call_ms."+op+".p99", quantile(cop[op], 0.99))
		}
		res.set("serve.call_ms.step_obs.p50", median(obsStep))
		res.set("serve.call_ms.step_plain.p50", median(plainStep))
		// Attribution of a step: transport (rtt − handler), JSON and
		// routing (handler − call) and the Server.Step call.
		tp, js, call := median(transport), median(hop["step"])-median(cop["step"]), median(cop["step"])
		res.set("serve.transport_ms.step", tp)
		res.set("serve.json_ms.step", js)
		closure := (tp + js + call) / median(rtt["step"])
		res.set("attr.serve.closure", closure)
		if closure < 1-attrTolerance || closure > 1+attrTolerance {
			res.fail("attribution: serve step layers sum to %.3f of rtt, tolerance %.2f", closure, attrTolerance)
		}
		stepMed := median(lat["step"])
		blocked := 0
		for _, v := range lat["step"] {
			if v > 10*stepMed {
				blocked++
			}
		}
		res.set("serve.blocked_share", float64(blocked)/float64(len(lat["step"])))
		res.set("serve.rejected", float64(rejected))
		res.set("gen.lag_p99_ms", quantile(lags, 0.99))
		res.set("gc.cycles", float64(gc.cycles))
		res.set("gc.pause_ms", float64(gc.pauseNs)/1e6)
		res.set("alloc_mb", float64(gc.alloc)/(1<<20))
		if err := serveLayerCalls(res, r.specs, tr); err != nil {
			return nil, err
		}
	}
	res.set("host.speed", speeds.mean())
	fmt.Fprintf(os.Stderr, "discbench: serve_http: %d requests in %.1fs, %d short steps, %d long, %d forks\n",
		len(recs), httpWall.Seconds(), len(lat["step"]), len(lat["long"]), len(lat["fork"]))

	r.close()
	r = nil
	dflt := digests[0]
	if cfg.seed != defaultSeed {
		rd, dg, _, err := setupServe(defaultSeed, speeds, nil)
		if err != nil {
			return nil, err
		}
		rd.close()
		dflt = dg
	}
	res.checkDigests("serve_http", digests, dflt)
	res.set("heap_mb", heapMB)
	if err := tr.write(tracePath(cfg, "serve_http")); err != nil {
		return nil, err
	}
	return res, nil
}

// serveLayerCalls times the layers a session build and a fork run,
// called directly on the session programs: asm.Assemble, blockc.Attach,
// and snap.Bytes / snap.Decode + Restore on a machine with the
// standard board built from the same program.
func serveLayerCalls(res *result, specs []sessSpec, tr *tracer) error {
	var asmMs, attachMs, encMs, decMs, size []float64
	for rep := 0; rep < 5; rep++ {
		for _, s := range specs {
			t0 := time.Now()
			im, err := asm.Assemble(s.req.Program)
			if err != nil {
				return err
			}
			t1 := time.Now()
			tr.add("asm.Assemble", t0, t1, -1, -1, 4)
			asmMs = append(asmMs, ms(t1.Sub(t0)))
			if s.kind != kindBlock && s.kind != kindLong {
				continue
			}
			m, err := boardMachine(im, 1)
			if err != nil {
				return err
			}
			opts := analysis.Options{VectorBase: 0x0200, Streams: 1, BusRanges: boardRanges()}
			t2 := time.Now()
			blockc.Attach(m, im, opts)
			t3 := time.Now()
			tr.add("blockc.Attach", t2, t3, -1, -1, 4)
			attachMs = append(attachMs, ms(t3.Sub(t2)))
		}
		// snap on a plain session's program, after some steps.
		im, err := asm.Assemble(specs[0].req.Program)
		if err != nil {
			return err
		}
		m, err := boardMachine(im, 4)
		if err != nil {
			return err
		}
		if err := advance(m.NewGuard(serve.DefaultStallWindow), 50_000); err != nil {
			return err
		}
		twin, err := boardMachine(im, 4)
		if err != nil {
			return err
		}
		t0 := time.Now()
		blob, err := snap.Bytes(m)
		if err != nil {
			return err
		}
		t1 := time.Now()
		sn, err := snap.Decode(blob)
		if err != nil {
			return err
		}
		if err := twin.Restore(sn); err != nil {
			return err
		}
		t2 := time.Now()
		tr.add("snap.Bytes", t0, t1, -1, -1, 4)
		tr.add("snap.Decode+Restore", t1, t2, -1, -1, 4)
		encMs, decMs, size = append(encMs, ms(t1.Sub(t0))), append(decMs, ms(t2.Sub(t1))), append(size, float64(len(blob)))
	}
	res.set("asm.assemble_ms", median(asmMs))
	res.set("blockc.attach_ms", median(attachMs))
	res.set("snap.encode_ms", median(encMs))
	res.set("snap.decode_restore_ms", median(decMs))
	res.set("snap.bytes", median(size))
	return nil
}

// boardMachine builds a machine with discserve's standard board and im
// loaded, streams started at their "sN" labels (or main).
func boardMachine(im *asm.Image, streams int) (*core.Machine, error) {
	m, err := core.New(core.Config{Streams: streams, VectorBase: 0x0200})
	if err != nil {
		return nil, err
	}
	b := m.Bus()
	devs := []struct {
		base, size uint16
		dev        bus.Device
	}{
		{isa.ExternalBase, 0x1000, bus.NewRAM("extram", 0x1000, 4)},
		{isa.IOBase + 0x00, 4, bus.NewTimer("timer0", 2, m.RaiseIRQ, 0, 4)},
		{isa.IOBase + 0x10, 2, bus.NewUART("uart0", 6)},
		{isa.IOBase + 0x20, 8, bus.NewGPIO("gpio0", 1)},
		{isa.IOBase + 0x30, 4, bus.NewADC("adc0", 4, 25, nil)},
		{isa.IOBase + 0x40, 2, bus.NewStepper("step0", 3)},
	}
	for _, d := range devs {
		if err := b.Attach(d.base, d.size, d.dev); err != nil {
			return nil, err
		}
	}
	for _, sec := range im.Sections {
		if err := m.LoadProgram(sec.Base, sec.Words); err != nil {
			return nil, err
		}
	}
	for s := 0; s < streams; s++ {
		at, ok := im.Symbol(fmt.Sprintf("s%d", s))
		if !ok {
			at, _ = im.Symbol("main")
		}
		if err := m.StartStream(s, at); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// boardRanges is the standard board as the static analyzer sees it.
func boardRanges() []analysis.BusRange {
	return []analysis.BusRange{
		{Base: isa.ExternalBase, Size: 0x1000, Wait: 4},
		{Base: isa.IOBase + 0x00, Size: 4, Wait: 2},
		{Base: isa.IOBase + 0x10, Size: 2, Wait: 6},
		{Base: isa.IOBase + 0x20, Size: 8, Wait: 1},
		{Base: isa.IOBase + 0x30, Size: 4, Wait: 4},
		{Base: isa.IOBase + 0x40, Size: 2, Wait: 3},
	}
}
