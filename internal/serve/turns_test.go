package serve

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"disc/internal/snap"
)

// The tests here pin the worker's turn-taking: slicing a step must not
// change any machine, and the schedule is built deterministically by
// holding the worker and queueing requests in a known order rather
// than by timing.

// mixedProgram runs four streams through ALU work, external-memory
// loads and taken branches, and never halts.
const mixedProgram = `
main:
    LI   R7, 0x8000
    LDI  R0, 0
loop:
    ADDI R0, 3
    LD   R1, [R7+2]
    XOR  R2, R0, R1
    CMPI R2, 7
    BNE  skip
    ADDI R3, 1
skip:
    STM  R0, [0x40]
    JMP  loop
`

// fusedProgram is a counted inner loop the block engine fuses, inside
// an endless outer loop.
const fusedProgram = `
main:
    LDI R0, 0
outer:
    LDI R1, 100
inner:
    ADDI R2, 3
    ADD  R3, R2, R4
    ADDI R4, 5
    XOR  R5, R3, R2
    SUBI R1, 1
    BNE  inner
    ADDI R0, 1
    JMP  outer
`

// countdown runs a counted loop of 30 000 iterations, long enough to
// span several slices, and then ends with tail.
func countdown(tail string) string {
	return `
main:
    LI   R0, 30000
loop:
    SUBI R0, 1
    BNE  loop
` + tail
}

// sessionOf returns the registered session behind id.
func sessionOf(t *testing.T, s *Server, id string) *Session {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.sessions[id]
	if !ok {
		t.Fatalf("no session %s", id)
	}
	return sess
}

// newServer starts a server that the test's cleanup closes. Cleanups
// run after the test's defers and in reverse order, so a worker held
// by hold or by a probe is released before Close waits for it, even
// when the test fails midway.
func newServer(t *testing.T, cfg Config) *Server {
	s := New(cfg)
	t.Cleanup(s.Close)
	return s
}

// unblock returns a channel and an idempotent close for it, which the
// test's cleanup also calls.
func unblock(t *testing.T) (chan struct{}, func()) {
	c := make(chan struct{})
	release := sync.OnceFunc(func() { close(c) })
	t.Cleanup(release)
	return c, release
}

// hold queues a request on sess that keeps its worker until release is
// called, and waits until the worker is running it.
func hold(t *testing.T, s *Server, sess *Session) (release func(), held *task) {
	t.Helper()
	released, release := unblock(t)
	running := make(chan struct{})
	held = newTask(func() bool {
		close(running)
		<-released
		return true
	})
	if err := s.enqueue(sess, held, false); err != nil {
		t.Fatal(err)
	}
	<-running
	return release, held
}

// queueStep queues a step request on sess without waiting for it.
func queueStep(t *testing.T, s *Server, sess *Session, cycles int) (*stepRun, *task) {
	t.Helper()
	st := &stepRun{sess: sess, max: cycles}
	tk := newTask(st.turn)
	if err := s.enqueue(sess, tk, false); err != nil {
		t.Fatal(err)
	}
	return st, tk
}

// waitPending waits until worker w holds at least n unfinished
// requests, i.e. until a request issued from another goroutine is
// queued.
func waitPending(s *Server, w, n int) {
	wk := s.workers[w]
	for {
		wk.mu.Lock()
		p := wk.pending
		wk.mu.Unlock()
		if p >= n {
			return
		}
		runtime.Gosched()
	}
}

// refStep is the unsliced reference for one step request: the budget
// clamp and then a single Guard.StepN loop over every cycle asked for,
// the way the server ran a step before it sliced them.
func refStep(sess *Session, max int) StepResult {
	if sess.budget > 0 {
		if rem := sess.budget - sess.stepped; uint64(max) > rem {
			max = int(rem)
		}
	}
	n, done := 0, false
	var runErr error
	for n < max {
		k, d, err := sess.g.StepN(max - n)
		n += k
		if err != nil {
			runErr = err
			break
		}
		if d {
			done = true
			break
		}
	}
	return sess.finishStep(n, done, runErr)
}

// TestSlicedStepByteIdentical runs one MaxStepCycles request through
// the server, which slices it, and the unsliced reference loop on a
// twin machine built from the same request. The results and the
// disc-snap/1 bytes must be identical, including for steps that end
// between slice boundaries. MaxStepCycles is set to eleven slices, the
// last one partial, so the 4-stream case stays quick under -race.
func TestSlicedStepByteIdentical(t *testing.T) {
	const maxStep = 10*stepSlice + 4321
	notBoundary := func(t *testing.T, res StepResult) {
		if res.CyclesRun <= stepSlice || res.CyclesRun%stepSlice == 0 {
			t.Fatalf("step ended after %d cycles, want past the first slice and off a boundary", res.CyclesRun)
		}
	}
	cases := []struct {
		name  string
		req   CreateRequest
		check func(t *testing.T, res StepResult)
	}{
		{"plain 4-stream", CreateRequest{Program: mixedProgram,
			Start: map[string]string{"0": "main", "1": "main", "2": "main", "3": "main"}},
			func(t *testing.T, res StepResult) {
				if res.Status != "running" || res.CyclesRun != maxStep {
					t.Fatalf("result: %+v", res)
				}
			}},
		{"block engine", CreateRequest{Program: fusedProgram, Streams: 1, BlockEngine: true},
			func(t *testing.T, res StepResult) {
				if res.Status != "running" || res.CyclesRun != maxStep {
					t.Fatalf("result: %+v", res)
				}
			}},
		{"halt mid-slice", CreateRequest{Program: countdown("    HALT\n"), Streams: 1},
			func(t *testing.T, res StepResult) {
				if !res.Done || res.Status != "idle" {
					t.Fatalf("result: %+v", res)
				}
				notBoundary(t, res)
			}},
		{"deadlock mid-slice", CreateRequest{Program: countdown("    WAITI 2\n    HALT\n"), Streams: 1,
			StallWindow: u64(400)},
			func(t *testing.T, res StepResult) {
				if res.Status != "deadlock" || len(res.Diagnosis) == 0 {
					t.Fatalf("result: %+v", res)
				}
				notBoundary(t, res)
			}},
		{"budget mid-slice", CreateRequest{Program: counterProgram, Streams: 1, CycleBudget: 2*stepSlice + 777},
			func(t *testing.T, res StepResult) {
				if res.CyclesRun != 2*stepSlice+777 || res.BudgetRemaining == nil || *res.BudgetRemaining != 0 {
					t.Fatalf("result: %+v", res)
				}
				notBoundary(t, res)
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := newServer(t, Config{MaxStepCycles: maxStep})
			info := mustCreate(t, s, tc.req)
			twin, err := buildSession(info.ID, 0, tc.req)
			if err != nil {
				t.Fatal(err)
			}

			got, err := s.Step(info.ID, maxStep)
			if err != nil {
				t.Fatalf("Step: %v", err)
			}
			want := refStep(twin, maxStep)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("sliced step differs from the unsliced loop:\nsliced   %+v\nunsliced %+v", got, want)
			}
			tc.check(t, got)

			gotBlob, err := s.SnapshotBytes(info.ID)
			if err != nil {
				t.Fatal(err)
			}
			wantBlob, err := snap.Bytes(twin.m)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotBlob, wantBlob) {
				t.Fatal("sliced and unsliced snapshots differ")
			}
			if tc.req.BlockEngine {
				if bi, err := s.Inspect(info.ID); err != nil || bi.Block == nil || bi.Block.Sessions == 0 {
					t.Fatalf("block engine did not run: %v %+v", err, bi.Block)
				}
			}
		})
	}
}

// TestShortStepPassesLongStep queues a long step and then a short step
// on another session of the same worker: the short step must finish
// after one slice of the long one, not after all of it.
func TestShortStepPassesLongStep(t *testing.T) {
	s := newServer(t, Config{Workers: 1})
	long := sessionOf(t, s, mustCreate(t, s, CreateRequest{Program: counterProgram, Streams: 1}).ID)
	short := sessionOf(t, s, mustCreate(t, s, CreateRequest{Program: counterProgram, Streams: 1}).ID)

	release, _ := hold(t, s, short)
	longStep, longTask := queueStep(t, s, long, 4*stepSlice)
	shortStep, shortTask := queueStep(t, s, short, 2000)
	// A probe behind the short step reads the long session's machine on
	// the worker, between two of the long step's slices.
	var longAt uint64
	longDone := true
	probe := newTask(func() bool {
		longAt = long.m.Cycle()
		select {
		case <-longTask.done:
		default:
			longDone = false
		}
		return true
	})
	if err := s.enqueue(short, probe, false); err != nil {
		t.Fatal(err)
	}
	release()

	<-shortTask.done
	<-probe.done
	<-longTask.done
	if shortStep.res.CyclesRun != 2000 || shortStep.res.Cycle != 2000 {
		t.Fatalf("short step: %+v", shortStep.res)
	}
	// Turns alternate: long slice, short step, long slice, probe.
	if longDone || longAt != 2*stepSlice {
		t.Fatalf("probe saw the long session at cycle %d (step finished: %v), want %d mid-step",
			longAt, longDone, 2*stepSlice)
	}
	if longStep.res.CyclesRun != 4*stepSlice || longStep.res.Cycle != 4*stepSlice {
		t.Fatalf("long step: %+v", longStep.res)
	}
}

// TestInspectQueuedBehindLongStep: a session's requests stay FIFO, so
// an inspect issued while the session's long step is in flight sees
// the machine after the whole step.
func TestInspectQueuedBehindLongStep(t *testing.T) {
	s := newServer(t, Config{Workers: 1})
	info := mustCreate(t, s, CreateRequest{Program: counterProgram, Streams: 1})
	sess := sessionOf(t, s, info.ID)

	release, _ := hold(t, s, sess)
	const cycles = 3*stepSlice + 5
	queueStep(t, s, sess, cycles)
	got := make(chan SessionInfo, 1)
	go func() {
		in, err := s.Inspect(info.ID)
		if err != nil {
			t.Errorf("Inspect: %v", err)
		}
		got <- in
	}()
	waitPending(s, 0, 3) // the hold, the step, the inspect
	release()
	if in := <-got; in.Cycle != cycles || in.Steps != 1 || in.SteppedCycles != cycles {
		t.Fatalf("inspect behind the step saw cycle %d, %d steps, %d stepped; want %d, 1, %d",
			in.Cycle, in.Steps, in.SteppedCycles, cycles, cycles)
	}
}

// TestDrainWaitsForInFlightStep: Drain begins while a long step is
// between slices, and the drained snapshot holds the whole step.
func TestDrainWaitsForInFlightStep(t *testing.T) {
	s := newServer(t, Config{Workers: 1})
	a := sessionOf(t, s, mustCreate(t, s, CreateRequest{Program: counterProgram, Streams: 1}).ID)
	b := sessionOf(t, s, mustCreate(t, s, CreateRequest{Program: counterProgram, Streams: 1}).ID)

	release, _ := hold(t, s, b)
	const cycles = 3*stepSlice + 5
	st, stepTask := queueStep(t, s, a, cycles)
	// After the step's first slice, this probe on b reports where a is
	// and keeps the worker until Drain has queued a's snapshot.
	at := make(chan uint64)
	resume, resumeWorker := unblock(t)
	probe := newTask(func() bool {
		at <- a.m.Cycle()
		<-resume
		return true
	})
	if err := s.enqueue(b, probe, false); err != nil {
		t.Fatal(err)
	}
	release()
	if c := <-at; c != stepSlice {
		t.Fatalf("probe saw a at cycle %d, want %d (one slice in)", c, stepSlice)
	}

	dir := t.TempDir()
	drained := make(chan error, 1)
	go func() { drained <- s.Drain(dir) }()
	waitPending(s, 0, 3) // a's step, the probe, a's drain snapshot
	resumeWorker()
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	<-stepTask.done
	if st.res.CyclesRun != cycles {
		t.Fatalf("step: %+v", st.res)
	}
	for id, want := range map[string]uint64{a.id: cycles, b.id: 0} {
		sn, err := snap.Load(filepath.Join(dir, id+".snap"))
		if err != nil {
			t.Fatal(err)
		}
		if sn.Cycle != want {
			t.Fatalf("drained %s at cycle %d, want %d", id, sn.Cycle, want)
		}
	}
}

// TestPanicQuarantinesOnlyItsSession injects a panicking request: its
// session is marked crashed and answers ErrCrashed (HTTP 500, with the
// stack and, for a metrics session, its flight recorder's post-mortem)
// for the request queued behind it and for every later
// machine-touching request, Drain skips and reports it, and the same
// worker goes on serving its other session.
func TestPanicQuarantinesOnlyItsSession(t *testing.T) {
	s := newServer(t, Config{Workers: 1})
	ts := httptest.NewServer(NewMux(s))
	defer ts.Close()
	a := mustCreate(t, s, CreateRequest{Program: counterProgram, Streams: 1})
	b := mustCreate(t, s, CreateRequest{Program: counterProgram, Streams: 1})
	c := mustCreate(t, s, CreateRequest{Program: counterProgram, Streams: 1, Metrics: true})
	as := sessionOf(t, s, a.ID)

	release, _ := hold(t, s, as)
	boom := newTask(func() bool { panic("injected fault") })
	if err := s.enqueue(as, boom, false); err != nil {
		t.Fatal(err)
	}
	behind := make(chan error, 1)
	go func() {
		_, err := s.Step(a.ID, 100)
		behind <- err
	}()
	waitPending(s, 0, 3) // the hold, the panicking request, the step
	release()

	<-boom.done
	var crash *CrashError
	if !errors.As(boom.err, &crash) || crash.ID != a.ID || crash.Value != "injected fault" ||
		!strings.Contains(crash.Stack, "panic") || crash.PostMortem != "" {
		t.Fatalf("panicking request answered %+v, want the session's CrashError with its stack and no recorder tail", boom.err)
	}
	if err := <-behind; !errors.Is(err, ErrCrashed) {
		t.Fatalf("step queued behind the panic: got %v, want ErrCrashed", err)
	}
	if _, err := s.Inspect(a.ID); !errors.Is(err, ErrCrashed) {
		t.Fatalf("inspect of a crashed session: got %v, want ErrCrashed", err)
	}
	if _, err := s.SnapshotBytes(a.ID); !errors.Is(err, ErrCrashed) {
		t.Fatalf("snapshot of a crashed session: got %v, want ErrCrashed", err)
	}
	if _, err := s.Fork(a.ID); !errors.Is(err, ErrCrashed) {
		t.Fatalf("fork of a crashed session: got %v, want ErrCrashed", err)
	}
	var body apiError
	if code := httpJSON(t, ts.Client(), "POST", ts.URL+"/v1/sessions/"+a.ID+"/step", stepRequest{Cycles: 10}, &body); code != http.StatusInternalServerError ||
		!strings.Contains(body.Error, "injected fault") || body.Stack == "" || body.PostMortem != "" {
		t.Fatalf("HTTP step of a crashed session: %d %+v", code, body)
	}

	// A metrics session's crash carries its flight recorder's tail.
	if _, err := s.Step(c.ID, 100); err != nil {
		t.Fatal(err)
	}
	boomC := newTask(func() bool { panic("injected fault") })
	if err := s.enqueue(sessionOf(t, s, c.ID), boomC, false); err != nil {
		t.Fatal(err)
	}
	<-boomC.done
	if !errors.As(boomC.err, &crash) || crash.ID != c.ID || !strings.Contains(crash.PostMortem, "post-mortem") {
		t.Fatalf("metrics session's crash: %+v", boomC.err)
	}
	body = apiError{}
	if code := httpJSON(t, ts.Client(), "GET", ts.URL+"/v1/sessions/"+c.ID, nil, &body); code != http.StatusInternalServerError ||
		body.PostMortem != crash.PostMortem {
		t.Fatalf("HTTP inspect of a crashed metrics session: %d %+v", code, body)
	}

	// The worker still serves the other session.
	if res, err := s.Step(b.ID, 1000); err != nil || res.CyclesRun != 1000 {
		t.Fatalf("neighbour step after the crash: %+v %v", res, err)
	}
	ls := s.List()
	if len(ls) != 3 || ls[0].Status != "crashed" || ls[1].Status != "running" || ls[1].Cycle != 1000 ||
		ls[2].Status != "crashed" {
		t.Fatalf("listing: %+v", ls)
	}

	dir := t.TempDir()
	err := s.Drain(dir)
	if !errors.Is(err, ErrCrashed) || !strings.Contains(err.Error(), a.ID) {
		t.Fatalf("Drain: got %v, want the crash of %s reported", err, a.ID)
	}
	if _, err := os.Stat(filepath.Join(dir, a.ID+".snap")); !os.IsNotExist(err) {
		t.Fatalf("crashed session was snapshotted: %v", err)
	}
	if sn, err := snap.Load(filepath.Join(dir, b.ID+".snap")); err != nil || sn.Cycle != 1000 {
		t.Fatalf("neighbour's drained snapshot: %v", err)
	}
}
