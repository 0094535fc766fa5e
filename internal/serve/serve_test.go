package serve

import (
	"bytes"
	"errors"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"disc/internal/board"
	"disc/internal/snap"
)

// counterProgram never halts: every cycle makes progress, so a session
// running it steps exactly as many cycles as it is asked to.
const counterProgram = `
main:
    LDI R0, 0
loop:
    ADDI R0, 1
    STM  R0, [0x40]
    JMP  loop
`

// haltProgram computes 5*4 and halts — the clean-idle path.
const haltProgram = `
main:
    LDI R0, 5
    LDI R1, 4
    MUL R2, R0, R1
    STM R2, [0x40]
    HALT
`

// wedgeProgram waits on an IR bit nothing raises — the deadlock path.
const wedgeProgram = `
main:
    WAITI 2
    HALT
`

func u64(v uint64) *uint64 { return &v }

func mustCreate(t *testing.T, s *Server, req CreateRequest) SessionInfo {
	t.Helper()
	info, err := s.Create(req)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	return info
}

func TestCreateStepInspect(t *testing.T) {
	s := New(Config{})
	defer s.Close()

	info := mustCreate(t, s, CreateRequest{Program: counterProgram, Streams: 1})
	if info.Status != "running" || info.Cycle != 0 {
		t.Fatalf("fresh session: %+v", info)
	}
	res, err := s.Step(info.ID, 1000)
	if err != nil {
		t.Fatalf("Step: %v", err)
	}
	if res.CyclesRun != 1000 || res.Done || res.Status != "running" {
		t.Fatalf("step result: %+v", res)
	}
	got, err := s.Inspect(info.ID)
	if err != nil {
		t.Fatalf("Inspect: %v", err)
	}
	if got.Cycle != 1000 || got.SteppedCycles != 1000 || got.Steps != 1 {
		t.Fatalf("inspect after step: %+v", got)
	}
	if len(got.Streams) != 1 || got.Streams[0].State != "run" {
		t.Fatalf("stream view: %+v", got.Streams)
	}
	if got.Stats.Retired == 0 {
		t.Fatal("no instructions retired in 1000 cycles")
	}
}

func TestStepUntilIdle(t *testing.T) {
	s := New(Config{})
	defer s.Close()

	info := mustCreate(t, s, CreateRequest{Program: haltProgram, Streams: 1})
	res, err := s.Step(info.ID, 10_000)
	if err != nil {
		t.Fatalf("Step: %v", err)
	}
	if !res.Done || res.Status != "idle" {
		t.Fatalf("halting program did not go idle: %+v", res)
	}
	if res.CyclesRun >= 10_000 {
		t.Fatalf("idle detection did not stop the step early: %+v", res)
	}
	got, _ := s.Inspect(info.ID)
	if got.Status != "idle" || got.Stats.Retired != 5 {
		t.Fatalf("idle session view: %+v", got)
	}
}

func TestDeadlockIsAResultNotAnError(t *testing.T) {
	s := New(Config{})
	defer s.Close()

	info := mustCreate(t, s, CreateRequest{
		Program: wedgeProgram, Streams: 1, StallWindow: u64(400),
	})
	res, err := s.Step(info.ID, 50_000)
	if err != nil {
		t.Fatalf("deadlock must be reported in the result, got error %v", err)
	}
	if res.Status != "deadlock" || !strings.Contains(res.Error, "deadlock") {
		t.Fatalf("step result: %+v", res)
	}
	if len(res.Diagnosis) == 0 || !strings.Contains(strings.Join(res.Diagnosis, ";"), "IR bit 2") {
		t.Fatalf("diagnosis missing the blocked stream: %+v", res.Diagnosis)
	}
	if res.CyclesRun >= 50_000 {
		t.Fatalf("watchdog did not cut the step short: %+v", res)
	}
	// The session stays inspectable with the verdict attached.
	got, err := s.Inspect(info.ID)
	if err != nil {
		t.Fatalf("Inspect after deadlock: %v", err)
	}
	if got.Status != "deadlock" || got.Error == "" || len(got.Diagnosis) == 0 {
		t.Fatalf("deadlocked session view: %+v", got)
	}
}

func TestCycleBudget(t *testing.T) {
	s := New(Config{})
	defer s.Close()

	info := mustCreate(t, s, CreateRequest{
		Program: counterProgram, Streams: 1, CycleBudget: 500,
	})
	res, err := s.Step(info.ID, 1000)
	if err != nil {
		t.Fatalf("Step: %v", err)
	}
	if res.CyclesRun != 500 {
		t.Fatalf("budget did not clamp the step: %+v", res)
	}
	if res.BudgetRemaining == nil || *res.BudgetRemaining != 0 {
		t.Fatalf("budget accounting: %+v", res)
	}
	if _, err := s.Step(info.ID, 1); !errors.Is(err, ErrBudget) {
		t.Fatalf("spent budget: got %v, want ErrBudget", err)
	}
	got, _ := s.Inspect(info.ID)
	if got.Status != "budget" {
		t.Fatalf("status after spent budget: %+v", got)
	}
}

func TestCreateValidation(t *testing.T) {
	s := New(Config{})
	defer s.Close()

	cases := []CreateRequest{
		{},                              // neither program nor snapshot
		{Program: "main:\n    BOGUS\n"}, // assembly error
		{Program: counterProgram, Snapshot: []byte{1}},                                   // both
		{Snapshot: []byte{1, 2, 3}},                                                      // not a disc-snap/1 blob
		{Snapshot: []byte{1, 2, 3}, BlockEngine: true},                                   // block engine needs an image
		{Program: counterProgram, Streams: 1, Start: map[string]string{"7": "main"}},     // stream out of range
		{Program: counterProgram, Streams: 1, Fault: map[string]FaultConfig{"nope": {}}}, // unknown device
	}
	for i, req := range cases {
		if _, err := s.Create(req); err == nil {
			t.Errorf("case %d: invalid create accepted: %+v", i, req)
		}
	}
	if s.SessionsLive() != 0 {
		t.Fatalf("failed creates leaked sessions: %d live", s.SessionsLive())
	}
}

func TestStepValidationAndNotFound(t *testing.T) {
	s := New(Config{MaxStepCycles: 1000})
	defer s.Close()

	info := mustCreate(t, s, CreateRequest{Program: counterProgram, Streams: 1})
	if _, err := s.Step(info.ID, 0); err == nil {
		t.Fatal("step of 0 cycles accepted")
	}
	if _, err := s.Step(info.ID, 1001); err == nil {
		t.Fatal("step above MaxStepCycles accepted")
	}
	if _, err := s.Step("s-999", 10); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown session: got %v, want ErrNotFound", err)
	}
	if err := s.Delete(info.ID); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := s.Step(info.ID, 10); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted session: got %v, want ErrNotFound", err)
	}
	if err := s.Delete(info.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete: got %v, want ErrNotFound", err)
	}
}

func TestSessionLimit(t *testing.T) {
	s := New(Config{MaxSessions: 2})
	defer s.Close()

	mustCreate(t, s, CreateRequest{Program: counterProgram, Streams: 1})
	mustCreate(t, s, CreateRequest{Program: counterProgram, Streams: 1})
	if _, err := s.Create(CreateRequest{Program: counterProgram, Streams: 1}); !errors.Is(err, ErrSessionLimit) {
		t.Fatalf("third create: got %v, want ErrSessionLimit", err)
	}
}

// TestConcurrentForksHoldSessionLimit forks one session from eight
// goroutines at once under MaxSessions 2: at most one twin may register,
// and every other fork must answer ErrSessionLimit. The parent's worker
// is held until all eight forks are queued on it, so their snapshots run
// back to back and every fork passes the admission check before the
// first twin is built; only the check at registration can hold the cap.
// The parent records metrics, so each twin also builds a flight
// recorder, which widens the race; the rounds repeat it.
func TestConcurrentForksHoldSessionLimit(t *testing.T) {
	const forks = 8
	for round := 0; round < 20; round++ {
		s := newServer(t, Config{MaxSessions: 2})
		parent := mustCreate(t, s, CreateRequest{Program: counterProgram, Streams: 1, Metrics: true})
		sess := sessionOf(t, s, parent.ID)
		release, _ := hold(t, s, sess)
		var wg sync.WaitGroup
		errs := make([]error, forks)
		for i := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, errs[i] = s.Fork(parent.ID)
			}()
		}
		waitPending(s, sess.worker, 1+forks)
		release()
		wg.Wait()
		ok := 0
		for _, err := range errs {
			switch {
			case err == nil:
				ok++
			case !errors.Is(err, ErrSessionLimit):
				t.Fatalf("round %d: fork: %v", round, err)
			}
		}
		if live := s.SessionsLive(); live > 2 || ok != live-1 {
			t.Fatalf("round %d: %d forks registered, %d live sessions under MaxSessions 2", round, ok, live)
		}
		s.Close()
	}
}

// TestBusyBackpressure holds the (single) worker on a request of its
// own, which fills its QueueDepth of one, so the next request must fail
// fast with ErrBusy — the bounded-queue overload contract behind HTTP
// 429 — and be counted, and service must recover once it finishes.
func TestBusyBackpressure(t *testing.T) {
	s := newServer(t, Config{Workers: 1, QueueDepth: 1})

	info := mustCreate(t, s, CreateRequest{Program: counterProgram, Streams: 1})
	other := mustCreate(t, s, CreateRequest{Program: counterProgram, Streams: 1})
	release, held := hold(t, s, sessionOf(t, s, info.ID))

	// The bound is the worker's, so it refuses every session it owns.
	for _, id := range []string{info.ID, other.ID} {
		if _, err := s.Step(id, 10); !errors.Is(err, ErrBusy) {
			t.Fatalf("saturated queue, step %s: got %v, want ErrBusy", id, err)
		}
	}
	if st := s.Stats(); st.RejectedBusy == 0 {
		t.Fatalf("rejection not counted: %+v", st)
	}

	release()
	<-held.done
	if _, err := s.Step(info.ID, 10); err != nil {
		t.Fatalf("step after the queue drained: %v", err)
	}
}

// forkCases are the session kinds the fork tests cover: a plain
// session, and a block-engine one whose twin re-attaches its table
// from the parent's image (a memoized plan in internal/blockc).
var forkCases = []struct {
	name string
	req  CreateRequest
}{
	{"plain", CreateRequest{Program: counterProgram, Streams: 1}},
	{"block_engine", CreateRequest{Program: fusedProgram, Streams: 1, BlockEngine: true}},
}

// requireFused fails unless a block-engine session ran fused sessions;
// a plain session must have no block table. It may run on any
// goroutine.
func requireFused(t *testing.T, s *Server, id string, block bool) {
	t.Helper()
	info, err := s.Inspect(id)
	if err != nil {
		t.Errorf("Inspect %s: %v", id, err)
		return
	}
	if block != (info.Block != nil && info.Block.Sessions > 0) {
		t.Errorf("session %s: block engine %v, block stats %+v", id, block, info.Block)
	}
}

// TestForkByteIdenticalContinuation pins the fork contract: the twin's
// snapshot equals the parent's at fork time, and stays byte-identical
// to the parent's after both step the same number of cycles — the
// disc-snap/1 canonical form makes state equality visible as byte
// equality. A block-engine twin must also fuse.
func TestForkByteIdenticalContinuation(t *testing.T) {
	for _, tc := range forkCases {
		t.Run(tc.name, func(t *testing.T) {
			s := New(Config{})
			defer s.Close()

			parent := mustCreate(t, s, tc.req)
			if _, err := s.Step(parent.ID, 1237); err != nil {
				t.Fatalf("Step: %v", err)
			}
			twin, err := s.Fork(parent.ID)
			if err != nil {
				t.Fatalf("Fork: %v", err)
			}
			if twin.Cycle != 1237 || twin.SteppedCycles != 1237 {
				t.Fatalf("twin did not inherit the parent's position: %+v", twin)
			}

			pb, err := s.SnapshotBytes(parent.ID)
			if err != nil {
				t.Fatal(err)
			}
			tb, err := s.SnapshotBytes(twin.ID)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(pb, tb) {
				t.Fatal("fork-time snapshots differ")
			}

			for _, id := range []string{parent.ID, twin.ID} {
				if _, err := s.Step(id, 911); err != nil {
					t.Fatalf("Step %s: %v", id, err)
				}
			}
			pb2, _ := s.SnapshotBytes(parent.ID)
			tb2, _ := s.SnapshotBytes(twin.ID)
			if !bytes.Equal(pb2, tb2) {
				t.Fatal("continuations diverged after 911 cycles")
			}
			if bytes.Equal(pb, pb2) {
				t.Fatal("continuation snapshot did not change — machine not advancing")
			}
			requireFused(t, s, twin.ID, tc.req.BlockEngine)
		})
	}
}

// TestConcurrentStepSnapshotFork is the race-detector proof that the
// worker-ownership design keeps every machine single-threaded: many
// sessions, interleaved step/snapshot/fork/inspect/list from many
// goroutines, run under `make race`. With the block engine, twins on
// several workers attach from one image at once.
func TestConcurrentStepSnapshotFork(t *testing.T) {
	for _, tc := range forkCases {
		t.Run(tc.name, func(t *testing.T) {
			s := New(Config{Workers: 4, QueueDepth: 1024})
			defer s.Close()

			const n = 8
			ids := make([]string, n)
			for i := range ids {
				ids[i] = mustCreate(t, s, tc.req).ID
			}
			var wg sync.WaitGroup
			for _, id := range ids {
				id := id
				wg.Add(3)
				go func() {
					defer wg.Done()
					for j := 0; j < 20; j++ {
						if _, err := s.Step(id, 200); err != nil && !errors.Is(err, ErrBusy) {
							t.Errorf("Step %s: %v", id, err)
						}
					}
				}()
				go func() {
					defer wg.Done()
					for j := 0; j < 10; j++ {
						if _, err := s.SnapshotBytes(id); err != nil && !errors.Is(err, ErrBusy) {
							t.Errorf("Snapshot %s: %v", id, err)
						}
						s.List()
					}
				}()
				go func() {
					defer wg.Done()
					for j := 0; j < 5; j++ {
						twin, err := s.Fork(id)
						if err != nil {
							if !errors.Is(err, ErrBusy) && !errors.Is(err, ErrSessionLimit) {
								t.Errorf("Fork %s: %v", id, err)
							}
							continue
						}
						if _, err := s.Step(twin.ID, 100); err != nil && !errors.Is(err, ErrBusy) {
							t.Errorf("Step twin %s: %v", twin.ID, err)
						} else if err == nil {
							requireFused(t, s, twin.ID, tc.req.BlockEngine)
						}
						if err := s.Delete(twin.ID); err != nil {
							t.Errorf("Delete twin %s: %v", twin.ID, err)
						}
					}
				}()
			}
			wg.Wait()
			if live := s.SessionsLive(); live != n {
				t.Fatalf("%d sessions live after the storm, want %d", live, n)
			}
		})
	}
}

func TestDrainSnapshotsEverySession(t *testing.T) {
	s := New(Config{})
	defer s.Close()

	a := mustCreate(t, s, CreateRequest{Program: counterProgram, Streams: 1})
	b := mustCreate(t, s, CreateRequest{Program: counterProgram, Streams: 1})
	if _, err := s.Step(a.ID, 700); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Step(b.ID, 300); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	if err := s.Drain(dir); err != nil {
		t.Fatalf("Drain: %v", err)
	}

	// Every session landed as a loadable checkpoint at its drain cycle.
	for id, cyc := range map[string]uint64{a.ID: 700, b.ID: 300} {
		sn, err := snap.Load(filepath.Join(dir, id+".snap"))
		if err != nil {
			t.Fatalf("drained snapshot %s: %v", id, err)
		}
		m, err := board.Default().Resume(sn).New()
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Restore(sn); err != nil {
			t.Fatalf("restore drained %s: %v", id, err)
		}
		if m.Cycle() != cyc {
			t.Fatalf("drained %s at cycle %d, want %d", id, m.Cycle(), cyc)
		}
	}

	// A draining server refuses new work.
	if _, err := s.Create(CreateRequest{Program: counterProgram, Streams: 1}); !errors.Is(err, ErrDraining) {
		t.Fatalf("create while draining: got %v, want ErrDraining", err)
	}
	if _, err := s.Step(a.ID, 10); !errors.Is(err, ErrDraining) {
		t.Fatalf("step while draining: got %v, want ErrDraining", err)
	}
}

func TestSnapshotUploadRoundTrip(t *testing.T) {
	s := New(Config{})
	defer s.Close()

	src := mustCreate(t, s, CreateRequest{Program: counterProgram, Streams: 1})
	if _, err := s.Step(src.ID, 4321); err != nil {
		t.Fatal(err)
	}
	blob, err := s.SnapshotBytes(src.ID)
	if err != nil {
		t.Fatal(err)
	}

	// A session created from the uploaded blob continues byte-identically.
	dup := mustCreate(t, s, CreateRequest{Snapshot: blob})
	if dup.Cycle != 4321 {
		t.Fatalf("uploaded session resumed at cycle %d, want 4321", dup.Cycle)
	}
	for _, id := range []string{src.ID, dup.ID} {
		if _, err := s.Step(id, 555); err != nil {
			t.Fatal(err)
		}
	}
	b1, _ := s.SnapshotBytes(src.ID)
	b2, _ := s.SnapshotBytes(dup.ID)
	if !bytes.Equal(b1, b2) {
		t.Fatal("uploaded twin diverged from its source")
	}
}

func TestListSortedAndStats(t *testing.T) {
	s := New(Config{})
	defer s.Close()

	for i := 0; i < 3; i++ {
		mustCreate(t, s, CreateRequest{Program: counterProgram, Streams: 1})
	}
	ls := s.List()
	if len(ls) != 3 {
		t.Fatalf("listed %d sessions, want 3", len(ls))
	}
	for i := 1; i < len(ls); i++ {
		if ls[i-1].ID >= ls[i].ID {
			t.Fatalf("listing not sorted: %+v", ls)
		}
	}
	if _, err := s.Step(ls[0].ID, 250); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Schema != Schema || st.SessionsLive != 3 || st.Steps != 1 || st.SteppedCycles != 250 {
		t.Fatalf("server stats: %+v", st)
	}
	if st.SessionsCreated != 3 || st.HostCPUs < 1 {
		t.Fatalf("server stats: %+v", st)
	}
}

func TestClosedServerRefuses(t *testing.T) {
	s := New(Config{})
	info := mustCreate(t, s, CreateRequest{Program: counterProgram, Streams: 1})
	s.Close()
	if _, err := s.Step(info.ID, 10); !errors.Is(err, ErrClosed) {
		t.Fatalf("step after Close: got %v, want ErrClosed", err)
	}
	if _, err := s.Create(CreateRequest{Program: counterProgram}); !errors.Is(err, ErrClosed) {
		t.Fatalf("create after Close: got %v, want ErrClosed", err)
	}
	s.Close() // idempotent
}
