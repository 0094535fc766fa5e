// Package serve is the simulation-as-a-service layer of the DISC
// reproduction: a multi-tenant session server hosting many concurrent
// machine simulations behind a versioned HTTP/JSON API (schema
// disc-serve/1, DESIGN.md §15). cmd/discserve is the CLI front end.
//
// # Architecture
//
// Sessions are sharded across a fixed pool of worker goroutines. Every
// operation that touches a session's machine — step, inspect,
// snapshot, the parent half of a fork — is a request queued on the one
// worker that owns the session, so the deterministic core stays
// single-threaded: no machine is ever stepped and snapshotted from two
// goroutines at once, and `go test -race` proves it. The HTTP layer
// only marshals JSON and waits for its request to complete.
//
// Each session keeps its requests in a FIFO of its own, and the worker
// takes turns among the sessions with queued work, round-robin. A turn
// runs one request, or one slice of at most stepSlice cycles of a
// step, so a 5M-cycle step no longer holds every other session on its
// worker until it ends. Slicing only chooses where the worker may
// pause: a sliced step leaves its machine byte-identical to an
// unsliced one.
//
// Overload is handled by bounded queues, not unbounded goroutines: a
// worker accepts at most QueueDepth unfinished requests, and the next
// one fails fast with ErrBusy (HTTP 429) instead of piling up. A
// server being drained refuses new work with ErrDraining (HTTP 503)
// while in-flight requests finish. A request that panics quarantines
// only its own session: that session answers ErrCrashed (HTTP 500,
// with the panic's stack and the session's flight-recorder tail) from
// then on, and the worker goes on serving the others.
//
// # Determinism
//
// A session's machine is driven exclusively through core.Guard with
// the session's own stall window and cycle budget, so a wedged or
// runaway guest program is diagnosed and contained without affecting
// its neighbors — the per-session counterpart of discsim's liveness
// guards. Execution itself is bit-deterministic: a forked twin
// (Restore into a fresh machine, proven by internal/snap) that steps
// the same number of cycles as its parent reaches a byte-identical
// snapshot. Wall-clock only enters this package at the measurement
// edges (request latency, uptime), never in simulation state.
package serve

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime/debug"
	"sort"
	"sync"

	"disc/internal/obs"
	"disc/internal/snap"
)

// stepSlice bounds one turn of a step request: a worker runs at most
// this many cycles of one session's step before it moves on to the
// next session with queued work. 1<<15 cycles is about 0.5 ms on the
// fused long-step program (DESIGN.md §15.1). A step of stepSlice
// cycles or fewer runs in one turn, as one Guard.StepN call.
const stepSlice = 1 << 15

// Config sizes the server. The zero value selects the defaults.
type Config struct {
	// Workers is the number of session shards (worker goroutines).
	// Default 4.
	Workers int
	// QueueDepth bounds each worker's accepted but unfinished requests,
	// the one being served included. The next request fails with
	// ErrBusy rather than queueing unboundedly. Default 64.
	QueueDepth int
	// MaxSessions caps live sessions across the server. Default 1024.
	MaxSessions int
	// MaxStepCycles caps a single step request's cycle count; larger
	// requests are invalid. The worker runs a step in slices of
	// stepSlice cycles, so a long step does not hold up the other
	// sessions on its worker. Default 5e6.
	MaxStepCycles int
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 1024
	}
	if c.MaxStepCycles <= 0 {
		c.MaxStepCycles = 5_000_000
	}
	return c
}

// Sentinel errors the HTTP layer maps to status codes.
var (
	ErrNotFound     = errors.New("serve: no such session")            // 404
	ErrBusy         = errors.New("serve: worker queue full, retry")   // 429
	ErrDraining     = errors.New("serve: server is draining")         // 503
	ErrSessionLimit = errors.New("serve: session limit reached")      // 429
	ErrBudget       = errors.New("serve: session cycle budget spent") // 409
	ErrClosed       = errors.New("serve: server is closed")           // 503
	ErrCrashed      = errors.New("serve: session crashed")            // 500
)

// CrashError is the post-mortem of a session whose request panicked.
// That request and every later one touching the session's machine
// answer it; errors.Is(err, ErrCrashed) holds.
type CrashError struct {
	ID    string // the quarantined session
	Value string // the panic value
	Stack string // the worker's stack at the panic
	// PostMortem is the flight recorder's last events per stream at the
	// panic; empty when the session records no metrics.
	PostMortem string
}

func (e *CrashError) Error() string {
	return fmt.Sprintf("serve: session %s crashed: %s", e.ID, e.Value)
}

func (e *CrashError) Unwrap() error { return ErrCrashed }

// Server hosts simulation sessions over a fixed worker pool.
type Server struct {
	cfg Config
	met *Metrics

	mu       sync.Mutex
	sessions map[string]*Session
	nextID   uint64
	draining bool
	closed   bool

	workers []*worker
	wg      sync.WaitGroup
}

// task is one queued request. run performs one turn of it and reports
// whether the request is finished: a step takes one turn per slice,
// every other request a single turn. err is the crash the request
// answers instead, and done closes when the request is finished.
type task struct {
	run  func() bool
	err  error
	done chan struct{}
}

func newTask(run func() bool) *task { return &task{run: run, done: make(chan struct{})} }

// worker serves the sessions it owns. mu guards its fields and every
// owned session's queue.
type worker struct {
	mu      sync.Mutex
	wake    sync.Cond  // signalled when ready gains a session or the pool closes
	ready   []*Session // sessions with queued work and no turn running, in turn order
	pending int        // accepted, unfinished requests
	closed  bool
}

// New starts a server with cfg's worker pool. Close releases it.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		met:      newMetrics(),
		sessions: make(map[string]*Session),
	}
	for i := 0; i < cfg.Workers; i++ {
		w := &worker{}
		w.wake.L = &w.mu
		s.workers = append(s.workers, w)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			w.serve()
		}()
	}
	return s
}

// serve is the worker loop: it gives the session at the head of ready
// one turn, sends it to the back while it still has queued work, and
// returns once the pool is closed and nothing is left.
func (w *worker) serve() {
	w.mu.Lock()
	defer w.mu.Unlock()
	for {
		for len(w.ready) == 0 && !w.closed {
			w.wake.Wait()
		}
		if len(w.ready) == 0 {
			return
		}
		sess := w.ready[0]
		w.ready = w.ready[:copy(w.ready, w.ready[1:])]
		t := sess.queue[0]
		w.mu.Unlock()
		finished := sess.turn(t)
		w.mu.Lock()
		if finished {
			n := copy(sess.queue, sess.queue[1:])
			sess.queue[n] = nil
			sess.queue = sess.queue[:n]
			w.pending--
			close(t.done)
		}
		if len(sess.queue) > 0 {
			w.ready = append(w.ready, sess)
		}
	}
}

// turn runs one turn of t, the head of the session's queue, on its
// worker. A panic quarantines the session: t finishes with the crash,
// and so does every later request that reaches the session.
func (sess *Session) turn(t *task) (finished bool) {
	if sess.crash != nil {
		t.err = sess.crash
		return true
	}
	defer func() {
		if v := recover(); v != nil {
			sess.crash = &CrashError{ID: sess.id, Value: fmt.Sprint(v), Stack: string(debug.Stack()),
				PostMortem: sess.postMortem()}
			t.err = sess.crash
			finished = true
		}
	}()
	return t.run()
}

// postMortem reads the flight recorder's tail after a panic. The
// machine may be inconsistent by then, so a panic while reading it
// returns an empty tail instead of escaping the worker.
func (sess *Session) postMortem() string {
	defer func() { _ = recover() }()
	return sess.m.PostMortem(obs.DefaultPostMortemEvents)
}

// Close stops the worker pool after the queued work drains. Requests
// issued after Close fail with ErrClosed.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	for _, w := range s.workers {
		w.mu.Lock()
		w.closed = true
		w.wake.Broadcast()
		w.mu.Unlock()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// Metrics exposes the server-wide counters and latency sampler.
func (s *Server) Metrics() *Metrics { return s.met }

// SessionsLive reports the number of registered sessions.
func (s *Server) SessionsLive() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

// enqueue appends t to sess's queue on its worker. The bound is
// non-blocking: a worker already holding QueueDepth unfinished
// requests refuses with ErrBusy, the caller's backpressure. Drain
// passes force, because it must reach every session even when the
// pool is saturated; it adds at most one request per session.
func (s *Server) enqueue(sess *Session, t *task, force bool) error {
	w := s.workers[sess.worker]
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	if !force && w.pending >= s.cfg.QueueDepth {
		s.met.rejected()
		return ErrBusy
	}
	w.pending++
	sess.queue = append(sess.queue, t)
	if len(sess.queue) == 1 {
		w.ready = append(w.ready, sess)
		w.wake.Signal()
	}
	return nil
}

// submitTurns queues a request on sess's worker and waits until it is
// finished; run is called once per turn until it reports so.
func (s *Server) submitTurns(sess *Session, run func() bool) error {
	t := newTask(run)
	if err := s.enqueue(sess, t, false); err != nil {
		return err
	}
	<-t.done
	return t.err
}

// submit runs fn as a one-turn request on sess's worker and waits.
func (s *Server) submit(sess *Session, fn func()) error {
	return s.submitTurns(sess, func() bool { fn(); return true })
}

// lookup finds a session, honouring the drain gate.
func (s *Server) lookup(id string) (*Session, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	if s.draining {
		return nil, ErrDraining
	}
	sess, ok := s.sessions[id]
	if !ok {
		return nil, ErrNotFound
	}
	return sess, nil
}

// admit reports why the server takes no new session, if it does not.
// The caller holds s.mu.
func (s *Server) admit() error {
	switch {
	case s.closed:
		return ErrClosed
	case s.draining:
		return ErrDraining
	case len(s.sessions) >= s.cfg.MaxSessions:
		return ErrSessionLimit
	}
	return nil
}

// register gives a new session an ID and a worker, has build construct
// it off-pool — the machine is single-owner until registered, so
// assembly, restore and the first inspection need no worker yet — and
// registers it. The server is asked to admit it both before the build
// and at registration, so sessions built concurrently never register
// past MaxSessions or after a drain began.
func (s *Server) register(build func(id string, worker int) (*Session, error)) (SessionInfo, error) {
	s.mu.Lock()
	if err := s.admit(); err != nil {
		s.mu.Unlock()
		return SessionInfo{}, err
	}
	s.nextID++
	id := fmt.Sprintf("s-%d", s.nextID)
	widx := int(s.nextID % uint64(len(s.workers)))
	s.mu.Unlock()

	sess, err := build(id, widx)
	if err != nil {
		return SessionInfo{}, err
	}
	info := sess.info()

	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.admit(); err != nil {
		return SessionInfo{}, err
	}
	s.sessions[id] = sess
	return info, nil
}

// Create builds a new session from req — an assembled program or an
// uploaded disc-snap/1 blob — and registers it.
func (s *Server) Create(req CreateRequest) (SessionInfo, error) {
	info, err := s.register(func(id string, worker int) (*Session, error) {
		return buildSession(id, worker, req)
	})
	if err == nil {
		s.met.sessionCreated()
	}
	return info, err
}

// Step advances a session by up to `cycles` cycles under its guard.
func (s *Server) Step(id string, cycles int) (StepResult, error) {
	if cycles <= 0 || cycles > s.cfg.MaxStepCycles {
		return StepResult{}, fmt.Errorf("serve: step cycles %d outside 1..%d", cycles, s.cfg.MaxStepCycles)
	}
	sess, err := s.lookup(id)
	if err != nil {
		return StepResult{}, err
	}
	st := &stepRun{sess: sess, max: cycles}
	if err := s.submitTurns(sess, st.turn); err != nil {
		return StepResult{}, err
	}
	if st.err != nil {
		return StepResult{}, st.err
	}
	s.met.stepped(uint64(st.res.CyclesRun))
	return st.res, nil
}

// Inspect reports a session's registers, statistics and status.
func (s *Server) Inspect(id string) (SessionInfo, error) {
	sess, err := s.lookup(id)
	if err != nil {
		return SessionInfo{}, err
	}
	var info SessionInfo
	if err := s.submit(sess, func() { info = sess.info() }); err != nil {
		return SessionInfo{}, err
	}
	return info, nil
}

// SnapshotBytes captures a session into the disc-snap/1 wire form.
func (s *Server) SnapshotBytes(id string) ([]byte, error) {
	sess, err := s.lookup(id)
	if err != nil {
		return nil, err
	}
	var blob []byte
	var snapErr error
	if err := s.submit(sess, func() { blob, snapErr = snap.Bytes(sess.m) }); err != nil {
		return nil, err
	}
	return blob, snapErr
}

// Fork snapshots a session on its own worker and restores the blob
// into a twin registered as a fresh session. The twin inherits the
// parent's board, fault policy, guard window and remaining budget; its
// continuation is byte-identical to the parent's by the internal/snap
// restore proof.
func (s *Server) Fork(id string) (SessionInfo, error) {
	parent, err := s.lookup(id)
	if err != nil {
		return SessionInfo{}, err
	}
	// The blob and the budget accounting are captured in one request on
	// the parent's worker, so the pair is a consistent cut of a machine
	// nobody else is stepping.
	var blob []byte
	var stepped uint64
	var snapErr error
	if err := s.submit(parent, func() {
		blob, snapErr = snap.Bytes(parent.m)
		stepped = parent.stepped
	}); err != nil {
		return SessionInfo{}, err
	}
	if snapErr != nil {
		return SessionInfo{}, snapErr
	}

	info, err := s.register(func(id string, worker int) (*Session, error) {
		return forkSession(id, worker, parent, blob, stepped)
	})
	if err == nil {
		s.met.forked()
	}
	return info, err
}

// Delete unregisters a session. Work already queued for it finishes
// harmlessly; new requests see ErrNotFound.
func (s *Server) Delete(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if _, ok := s.sessions[id]; !ok {
		return ErrNotFound
	}
	delete(s.sessions, id)
	return nil
}

// sorted returns the live sessions in session-ID order.
func (s *Server) sorted() []*Session {
	s.mu.Lock()
	out := make([]*Session, 0, len(s.sessions))
	//detlint:ignore collection pass; sorted before use
	for _, sess := range s.sessions {
		out = append(out, sess)
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// List returns every live session's summary, in session-ID order. A
// crashed session lists with status "crashed" and nothing else, since
// its machine is no longer read.
func (s *Server) List() []SessionSummary {
	sessions := s.sorted()
	out := make([]SessionSummary, 0, len(sessions))
	for _, sess := range sessions {
		var sum SessionSummary
		err := s.submit(sess, func() { sum = sess.summary() })
		switch {
		case errors.Is(err, ErrCrashed):
			sum = SessionSummary{ID: sess.id, Status: "crashed"}
		case err != nil:
			continue // busy or closed mid-list: skip, don't block the listing
		}
		out = append(out, sum)
	}
	return out
}

// Drain gates out new work, waits for the queued work to finish, and
// snapshots every live session crash-atomically into dir as
// <session-id>.snap (skipped when dir is empty). A session's snapshot
// queues behind its own requests, so it includes a step that was in
// flight when Drain began. A crashed session is not snapshotted; its
// crash is in the returned error, with any failed capture. This is the
// graceful half of discserve's SIGINT/SIGTERM handling; the sessions
// stay registered so a supervisor can still inspect them before exit.
func (s *Server) Drain(dir string) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	s.draining = true
	s.mu.Unlock()

	var errs []error
	for _, sess := range s.sorted() {
		var err error
		t := newTask(func() bool {
			if dir != "" {
				err = snap.Capture(filepath.Join(dir, sess.id+".snap"), sess.m)
			}
			return true
		})
		if werr := s.enqueue(sess, t, true); werr != nil {
			err = werr
		} else {
			<-t.done
			if t.err != nil {
				err = t.err
			}
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("serve: drain %s: %w", sess.id, err))
		}
	}
	return errors.Join(errs...)
}
