// Package serve is the simulation-as-a-service layer of the DISC
// reproduction: a multi-tenant session server hosting many concurrent
// machine simulations behind a versioned HTTP/JSON API (schema
// disc-serve/1, DESIGN.md §15). cmd/discserve is the CLI front end.
//
// # Architecture
//
// Sessions are sharded across a fixed pool of worker goroutines. Every
// operation that touches a session's machine — step, inspect,
// snapshot, the parent half of a fork — runs as a closure on the one
// worker that owns the session, so the deterministic core stays
// single-threaded: no machine is ever stepped and snapshotted from two
// goroutines at once, and `go test -race` proves it. The HTTP layer
// only marshals JSON and waits for its closure to complete.
//
// Overload is handled by bounded queues, not unbounded goroutines:
// each worker has a fixed-depth request queue, and a request that
// finds the queue full fails fast with ErrBusy (HTTP 429) instead of
// piling up. A server being drained refuses new work with ErrDraining
// (HTTP 503) while in-flight requests finish.
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
	"sort"
	"sync"

	"disc/internal/snap"
)

// Config sizes the server. The zero value selects the defaults.
type Config struct {
	// Workers is the number of session shards (worker goroutines).
	// Default 4.
	Workers int
	// QueueDepth is each worker's bounded request queue. A request
	// that finds its session's queue full fails with ErrBusy rather
	// than queueing unboundedly. Default 64.
	QueueDepth int
	// MaxSessions caps live sessions across the server. Default 1024.
	MaxSessions int
	// MaxStepCycles caps a single step request's cycle count; larger
	// requests are invalid (split them client-side). Default 5e6.
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
)

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

// task is one unit of session work; done closes when fn has run.
type task struct {
	fn   func()
	done chan struct{}
}

type worker struct{ queue chan task }

// New starts a server with cfg's worker pool. Close releases it.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		met:      newMetrics(),
		sessions: make(map[string]*Session),
	}
	for i := 0; i < cfg.Workers; i++ {
		w := &worker{queue: make(chan task, cfg.QueueDepth)}
		s.workers = append(s.workers, w)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for t := range w.queue {
				t.fn()
				close(t.done)
			}
		}()
	}
	return s
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
		close(w.queue)
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

// submit runs fn on worker w and waits for it. The enqueue is
// non-blocking: a full queue is ErrBusy, the caller's backpressure.
func (s *Server) submit(w int, fn func()) error {
	t := task{fn: fn, done: make(chan struct{})}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	select {
	case s.workers[w].queue <- t:
	default:
		s.mu.Unlock()
		s.met.rejected()
		return ErrBusy
	}
	s.mu.Unlock()
	<-t.done
	return nil
}

// submitWait is submit without the fail-fast: it blocks until the
// queue has room. Only the drain path uses it — drain must reach every
// session even when the pool is saturated.
func (s *Server) submitWait(w int, fn func()) error {
	t := task{fn: fn, done: make(chan struct{})}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	s.workers[w].queue <- t
	s.mu.Unlock()
	<-t.done
	return nil
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

// Create builds a new session from req — an assembled program or an
// uploaded disc-snap/1 blob — and registers it.
func (s *Server) Create(req CreateRequest) (SessionInfo, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return SessionInfo{}, ErrClosed
	}
	if s.draining {
		s.mu.Unlock()
		return SessionInfo{}, ErrDraining
	}
	if len(s.sessions) >= s.cfg.MaxSessions {
		s.mu.Unlock()
		return SessionInfo{}, ErrSessionLimit
	}
	s.nextID++
	id := fmt.Sprintf("s-%d", s.nextID)
	widx := int(s.nextID % uint64(len(s.workers)))
	s.mu.Unlock()

	// Build off-pool: the machine is single-owner until registered, so
	// assembly and restore need no worker serialization yet.
	sess, err := buildSession(id, widx, req)
	if err != nil {
		return SessionInfo{}, err
	}

	s.mu.Lock()
	if s.closed || s.draining {
		s.mu.Unlock()
		return SessionInfo{}, ErrDraining
	}
	if len(s.sessions) >= s.cfg.MaxSessions {
		s.mu.Unlock()
		return SessionInfo{}, ErrSessionLimit
	}
	s.sessions[id] = sess
	s.mu.Unlock()
	s.met.sessionCreated()
	return sess.info(), nil
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
	var res StepResult
	var stepErr error
	if err := s.submit(sess.worker, func() { res, stepErr = sess.step(cycles) }); err != nil {
		return StepResult{}, err
	}
	if stepErr != nil {
		return StepResult{}, stepErr
	}
	s.met.stepped(uint64(res.CyclesRun))
	return res, nil
}

// Inspect reports a session's registers, statistics and status.
func (s *Server) Inspect(id string) (SessionInfo, error) {
	sess, err := s.lookup(id)
	if err != nil {
		return SessionInfo{}, err
	}
	var info SessionInfo
	if err := s.submit(sess.worker, func() { info = sess.info() }); err != nil {
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
	if err := s.submit(sess.worker, func() { blob, snapErr = snap.Bytes(sess.m) }); err != nil {
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
	// The blob and the budget accounting are captured in one closure on
	// the parent's worker, so the pair is a consistent cut of a machine
	// nobody else is stepping.
	var blob []byte
	var stepped uint64
	var snapErr error
	if err := s.submit(parent.worker, func() {
		blob, snapErr = snap.Bytes(parent.m)
		stepped = parent.stepped
	}); err != nil {
		return SessionInfo{}, err
	}
	if snapErr != nil {
		return SessionInfo{}, snapErr
	}

	s.mu.Lock()
	if s.closed || s.draining {
		s.mu.Unlock()
		return SessionInfo{}, ErrDraining
	}
	if len(s.sessions) >= s.cfg.MaxSessions {
		s.mu.Unlock()
		return SessionInfo{}, ErrSessionLimit
	}
	s.nextID++
	twinID := fmt.Sprintf("s-%d", s.nextID)
	widx := int(s.nextID % uint64(len(s.workers)))
	s.mu.Unlock()

	twin, err := forkSession(twinID, widx, parent, blob, stepped)
	if err != nil {
		return SessionInfo{}, err
	}
	s.mu.Lock()
	if s.closed || s.draining {
		s.mu.Unlock()
		return SessionInfo{}, ErrDraining
	}
	s.sessions[twinID] = twin
	s.mu.Unlock()
	s.met.forked()
	return twin.info(), nil
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

// List returns every live session's summary, in session-ID order.
func (s *Server) List() []SessionSummary {
	s.mu.Lock()
	ids := make([]string, 0, len(s.sessions))
	byID := make(map[string]*Session, len(s.sessions))
	//detlint:ignore collection pass; sorted before use
	for id, sess := range s.sessions {
		ids = append(ids, id)
		byID[id] = sess
	}
	s.mu.Unlock()
	sort.Strings(ids)
	out := make([]SessionSummary, 0, len(ids))
	for _, id := range ids {
		sess := byID[id]
		var sum SessionSummary
		if err := s.submit(sess.worker, func() { sum = sess.summary() }); err != nil {
			continue // busy or deleted mid-list: skip, don't block the listing
		}
		out = append(out, sum)
	}
	return out
}

// Drain gates out new work, waits for the queued work to finish, and
// snapshots every live session crash-atomically into dir as
// <session-id>.snap (skipped when dir is empty). This is the graceful
// half of discserve's SIGINT/SIGTERM handling; the sessions stay
// registered so a supervisor can still inspect them before exit.
func (s *Server) Drain(dir string) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	s.draining = true
	ids := make([]string, 0, len(s.sessions))
	byID := make(map[string]*Session, len(s.sessions))
	//detlint:ignore collection pass; sorted before use
	for id, sess := range s.sessions {
		ids = append(ids, id)
		byID[id] = sess
	}
	s.mu.Unlock()
	sort.Strings(ids)

	var firstErr error
	for _, id := range ids {
		sess := byID[id]
		var err error
		werr := s.submitWait(sess.worker, func() {
			if dir != "" {
				err = snap.Capture(filepath.Join(dir, id+".snap"), sess.m)
			}
		})
		if werr != nil {
			err = werr
		}
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("serve: drain %s: %w", id, err)
		}
	}
	return firstErr
}
