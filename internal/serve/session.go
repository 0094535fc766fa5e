package serve

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"disc/internal/asm"
	"disc/internal/blockc"
	"disc/internal/board"
	"disc/internal/bus"
	"disc/internal/core"
	"disc/internal/fault"
	"disc/internal/isa"
	"disc/internal/obs"
	"disc/internal/snap"
)

// Schema versions every JSON body this package emits. Field additions
// are compatible; removals or meaning changes bump the version.
const Schema = "disc-serve/1"

// DefaultStallWindow is the per-session deadlock watchdog window when
// a create request does not choose one (discsim's default).
const DefaultStallWindow = 50_000

// FaultWindow is a half-open cycle interval, the JSON mirror of
// fault.Window.
type FaultWindow struct {
	From uint64 `json:"from"`
	To   uint64 `json:"to"`
}

// FaultConfig is the JSON mirror of fault.DeviceConfig: the per-device
// fault policy a tenant may attach to its own session's board.
type FaultConfig struct {
	Seed          uint64        `json:"seed,omitempty"`
	ExtraWaitProb float64       `json:"extra_wait_prob,omitempty"`
	ExtraWaitMax  int           `json:"extra_wait_max,omitempty"`
	BitFlipProb   float64       `json:"bit_flip_prob,omitempty"`
	FaultProb     float64       `json:"fault_prob,omitempty"`
	StuckBusyProb float64       `json:"stuck_busy_prob,omitempty"`
	StuckBusyLen  uint64        `json:"stuck_busy_len,omitempty"`
	Dead          []FaultWindow `json:"dead,omitempty"`
}

func (f FaultConfig) device() fault.DeviceConfig {
	cfg := fault.DeviceConfig{
		Seed:          f.Seed,
		ExtraWaitProb: f.ExtraWaitProb,
		ExtraWaitMax:  f.ExtraWaitMax,
		BitFlipProb:   f.BitFlipProb,
		FaultProb:     f.FaultProb,
		StuckBusyProb: f.StuckBusyProb,
		StuckBusyLen:  f.StuckBusyLen,
	}
	for _, w := range f.Dead {
		cfg.Dead = append(cfg.Dead, fault.Window{From: w.From, To: w.To})
	}
	return cfg
}

// CreateRequest creates a session from an assembled program or an
// uploaded disc-snap/1 blob (Snapshot is base64 in JSON). With a
// snapshot the machine geometry comes from the blob and Streams /
// Start / Shares / VectorBase / BusTimeout / TrapBusFault are ignored;
// the board fields (ExtramWaits, Fault) must describe the board the
// snapshot was taken against, exactly as with discsim -resume.
type CreateRequest struct {
	Program  string `json:"program,omitempty"`
	Snapshot []byte `json:"snapshot,omitempty"`

	Streams      int               `json:"streams,omitempty"`       // default 4
	Start        map[string]string `json:"start,omitempty"`         // stream -> label/addr, default {"0": "0"}
	Shares       []int             `json:"shares,omitempty"`        // scheduler partition weights
	VectorBase   uint16            `json:"vector_base,omitempty"`   // default 0x0200
	BusTimeout   int               `json:"bus_timeout,omitempty"`   // ABI bounded-wait budget, 0 = wait forever
	TrapBusFault bool              `json:"trap_busfault,omitempty"` // raise IR bit 5 on failed accesses

	ExtramWaits *int                   `json:"extram_waits,omitempty"` // default 4
	Fault       map[string]FaultConfig `json:"fault,omitempty"`        // device name -> policy

	StallWindow *uint64 `json:"stall_window,omitempty"` // deadlock watchdog, default 50000, 0 = off
	CycleBudget uint64  `json:"cycle_budget,omitempty"` // lifetime cycle budget, 0 = unlimited

	BlockEngine bool `json:"block_engine,omitempty"` // fused block sessions (program path only)
	Metrics     bool `json:"metrics,omitempty"`      // attach the obs metrics registry
}

// Session is one hosted simulation. The fields below the worker index
// are owned by that worker: only requests running on it may touch
// them once the session is registered. Fields up to and including im
// are immutable after construction and safe to read from any
// goroutine; queue is guarded by the worker's mutex.
type Session struct {
	id     string
	worker int

	spec        board.Spec // the machine and board, for forks and the block engine
	stallWindow uint64
	budget      uint64 // lifetime cycle budget, 0 = unlimited
	blockEngine bool
	im          *asm.Image // program-path sessions: retained for fork re-attach

	queue []*task // this session's requests, oldest first; the head is served

	// Worker-owned state.
	m       *core.Machine
	g       *core.Guard
	rec     *obs.Recorder
	met     *obs.Metrics
	stepped uint64 // cycles executed by this server (budget accounting)
	steps   uint64 // step requests served
	status  string // running | idle | deadlock | budget
	lastErr string
	diag    []string
	crash   *CrashError // set once a request panicked; the session is quarantined
}

// specOf is the machine req asks for: its geometry, with the board's
// defaults for what it leaves zero, and the fault policies wrapped
// around the devices they name.
func specOf(req CreateRequest) (board.Spec, error) {
	spec := board.Default()
	spec.Config = core.Config{
		Streams:       cmp.Or(req.Streams, spec.Config.Streams),
		VectorBase:    cmp.Or(req.VectorBase, spec.Config.VectorBase),
		TrapBusFaults: req.TrapBusFault,
		Shares:        req.Shares,
	}
	spec.BusTimeout = req.BusTimeout
	if req.ExtramWaits != nil {
		spec.RAMWaits = *req.ExtramWaits
	}
	if len(req.Fault) == 0 {
		return spec, nil
	}
	names := board.Names()
	policy := make(map[string]fault.DeviceConfig, len(req.Fault))
	//detlint:ignore collection pass into a keyed map; order-free
	for name, cfg := range req.Fault {
		if !slices.Contains(names, name) {
			return board.Spec{}, fmt.Errorf("serve: fault policy names unknown device %q (board: %s)",
				name, strings.Join(names, ", "))
		}
		policy[name] = cfg.device()
	}
	spec.Wrap = func(name string, d bus.Device) bus.Device {
		if cfg, ok := policy[name]; ok {
			return fault.Wrap(d, cfg)
		}
		return d
	}
	return spec, nil
}

// buildSession constructs a machine for req and wraps it as a session.
func buildSession(id string, worker int, req CreateRequest) (*Session, error) {
	spec, err := specOf(req)
	if err != nil {
		return nil, err
	}
	stallWindow := uint64(DefaultStallWindow)
	if req.StallWindow != nil {
		stallWindow = *req.StallWindow
	}
	sess := &Session{
		id:          id,
		worker:      worker,
		stallWindow: stallWindow,
		budget:      req.CycleBudget,
		blockEngine: req.BlockEngine,
		status:      "running",
	}

	var sn *core.Snapshot
	starts := map[int]string{}
	switch {
	case len(req.Snapshot) > 0:
		if req.Program != "" {
			return nil, errors.New("serve: create wants program or snapshot, not both")
		}
		if req.BlockEngine {
			return nil, errors.New("serve: block_engine needs a program (no image travels with a snapshot)")
		}
		if sn, err = snap.Decode(req.Snapshot); err != nil {
			return nil, err
		}
		spec = spec.Resume(sn)
	case req.Program == "":
		return nil, errors.New("serve: create needs a program or a snapshot")
	default:
		if sess.im, err = asm.Assemble(req.Program); err != nil {
			return nil, err
		}
		start := req.Start
		if len(start) == 0 {
			start = map[string]string{"0": "0"}
		}
		//detlint:ignore validation pass into a keyed map; order-free
		for key, at := range start {
			sid, err := strconv.Atoi(key)
			if err != nil || sid < 0 || sid >= spec.Config.Streams {
				return nil, fmt.Errorf("serve: start names stream %q, machine has 0..%d", key, spec.Config.Streams-1)
			}
			starts[sid] = at
		}
	}
	sess.spec = spec
	if err := sess.start(sn, req.Metrics, starts); err != nil {
		return nil, err
	}
	return sess, nil
}

// forkSession restores blob into a twin of parent. stepped is the
// parent's budget accounting at snapshot time, captured on the
// parent's worker alongside the blob.
func forkSession(id string, worker int, parent *Session, blob []byte, stepped uint64) (*Session, error) {
	sn, err := snap.Decode(blob)
	if err != nil {
		return nil, err
	}
	sess := &Session{
		id:          id,
		worker:      worker,
		spec:        parent.spec.Resume(sn),
		stallWindow: parent.stallWindow,
		budget:      parent.budget,
		blockEngine: parent.blockEngine,
		im:          parent.im,
		stepped:     stepped,
		status:      "running",
	}
	if err := sess.start(sn, parent.met != nil, nil); err != nil {
		return nil, err
	}
	return sess, nil
}

// start builds the session's machine from its spec and either restores
// sn (whose geometry the spec already holds) into it or loads the
// session's image and starts the streams in starts. With metrics the
// flight recorder is attached before either, so its record covers the
// machine from its first event. A session with the block engine gets
// its table after the load or restore: Restore detaches any table (the
// program-store version advanced), and blockc memoizes the plan of
// (image, options), so a fork rebuilds only the table, against the
// twin's restored program store (DESIGN.md §14).
func (sess *Session) start(sn *core.Snapshot, metrics bool, starts map[int]string) error {
	m, err := sess.spec.New()
	if err != nil {
		return err
	}
	if metrics {
		rec := obs.NewRecorder(obs.DefaultCapacity)
		sess.met = rec.EnableMetrics(sess.spec.Config.Streams)
		sess.rec = rec
		m.SetRecorder(rec)
	}
	if sn != nil {
		err = m.Restore(sn)
	} else {
		err = sess.im.Load(m, starts)
	}
	if err != nil {
		return err
	}
	if sess.blockEngine && sess.im != nil {
		// The returned analysis report is advisory here; the table is
		// attached (or empty) either way, and the session stays exact.
		blockc.Attach(m, sess.im, sess.spec.Analysis())
	}
	sess.m = m
	sess.g = m.NewGuard(sess.stallWindow)
	return nil
}

// StepResult reports one step call's outcome.
type StepResult struct {
	Schema          string   `json:"schema"`
	ID              string   `json:"id"`
	CyclesRun       int      `json:"cycles_run"`
	Cycle           uint64   `json:"cycle"` // machine cycle counter after the step
	Done            bool     `json:"done"`  // machine went cleanly idle
	Status          string   `json:"status"`
	Error           string   `json:"error,omitempty"`
	Diagnosis       []string `json:"diagnosis,omitempty"`
	BudgetRemaining *uint64  `json:"budget_remaining,omitempty"`
}

// stepRun is one step request in progress on the session's worker.
// Each turn is one Guard.StepN call of at most stepSlice cycles. The
// dispatches, the budget clamp and the result are those of one
// unsliced StepN call of max cycles: between turns the machine is at
// rest, so slicing only chooses where the worker may serve another
// session.
type stepRun struct {
	sess *Session
	max  int // cycles asked for, clamped to the budget on the first turn
	n    int // cycles run so far; only the first turn sees 0
	res  StepResult
	err  error // ErrBudget
}

// turn runs the next slice of the step and reports whether the step is
// finished. A spent budget is ErrBudget; a deadlock diagnosis is a
// result, not an error — the session stays inspectable.
func (st *stepRun) turn() bool {
	sess := st.sess
	if st.n == 0 && sess.budget > 0 {
		rem := sess.budget - sess.stepped
		if rem == 0 {
			sess.status = "budget"
			st.err = ErrBudget
			return true
		}
		if uint64(st.max) > rem {
			st.max = int(rem)
		}
	}
	k, done, err := sess.g.StepN(min(stepSlice, st.max-st.n))
	st.n += k
	if err != nil || done {
		st.res = sess.finishStep(st.n, done, err)
		return true
	}
	if st.n < st.max {
		return false
	}
	st.res = sess.finishStep(st.n, false, nil)
	return true
}

// finishStep books a step of n cycles that ended idle (done), with a
// guard verdict (runErr), or with its cycles spent, and reports it.
func (sess *Session) finishStep(n int, done bool, runErr error) StepResult {
	sess.stepped += uint64(n)
	sess.steps++
	switch {
	case runErr != nil:
		sess.status = "deadlock"
		sess.lastErr = runErr.Error()
		sess.diag = nil
		var dl *core.DeadlockError
		if errors.As(runErr, &dl) {
			for _, d := range dl.Streams {
				sess.diag = append(sess.diag, d.String())
			}
		}
	case done:
		sess.status = "idle"
	default:
		sess.status = "running"
	}
	res := StepResult{
		Schema:    Schema,
		ID:        sess.id,
		CyclesRun: n,
		Cycle:     sess.m.Cycle(),
		Done:      done,
		Status:    sess.status,
	}
	if runErr != nil {
		res.Error = sess.lastErr
		res.Diagnosis = sess.diag
	}
	if sess.budget > 0 {
		rem := sess.budget - sess.stepped
		res.BudgetRemaining = &rem
	}
	return res
}

// StreamInfo is one stream's architectural view.
type StreamInfo struct {
	Stream int      `json:"stream"`
	PC     uint16   `json:"pc"`
	State  string   `json:"state"`
	Flags  uint8    `json:"flags"`
	H      uint16   `json:"h"`
	Window []uint16 `json:"window"` // visible stack-window registers
}

// SessionSummary is the listing row.
type SessionSummary struct {
	ID            string `json:"id"`
	Status        string `json:"status"`
	Cycle         uint64 `json:"cycle"`
	SteppedCycles uint64 `json:"stepped_cycles"`
	Steps         uint64 `json:"steps"`
}

// SessionInfo is the full inspection view.
type SessionInfo struct {
	Schema          string           `json:"schema"`
	ID              string           `json:"id"`
	Status          string           `json:"status"`
	Cycle           uint64           `json:"cycle"`
	SteppedCycles   uint64           `json:"stepped_cycles"`
	Steps           uint64           `json:"steps"`
	BudgetRemaining *uint64          `json:"budget_remaining,omitempty"`
	Error           string           `json:"error,omitempty"`
	Diagnosis       []string         `json:"diagnosis,omitempty"`
	Streams         []StreamInfo     `json:"streams"`
	Globals         []uint16         `json:"globals"`
	Stats           core.Stats       `json:"stats"`
	Block           *core.BlockStats `json:"block,omitempty"`
	Metrics         string           `json:"metrics,omitempty"` // rendered obs registry
}

func (sess *Session) summary() SessionSummary {
	return SessionSummary{
		ID:            sess.id,
		Status:        sess.status,
		Cycle:         sess.m.Cycle(),
		SteppedCycles: sess.stepped,
		Steps:         sess.steps,
	}
}

// info runs on the owning worker and reads the machine directly.
func (sess *Session) info() SessionInfo {
	m := sess.m
	info := SessionInfo{
		Schema:        Schema,
		ID:            sess.id,
		Status:        sess.status,
		Cycle:         m.Cycle(),
		SteppedCycles: sess.stepped,
		Steps:         sess.steps,
		Error:         sess.lastErr,
		Diagnosis:     sess.diag,
		Stats:         m.Stats(),
	}
	if sess.budget > 0 {
		rem := sess.budget - sess.stepped
		info.BudgetRemaining = &rem
	}
	for i := 0; i < m.Streams(); i++ {
		win := m.Window(i)
		info.Streams = append(info.Streams, StreamInfo{
			Stream: i,
			PC:     m.StreamPC(i),
			State:  m.StreamState(i).String(),
			Flags:  m.StreamFlags(i),
			H:      m.StreamH(i),
			Window: append([]uint16(nil), win[:]...),
		})
	}
	for g := 0; g < isa.NumGlobals; g++ {
		info.Globals = append(info.Globals, m.Global(g))
	}
	if m.AttachedBlockTable() != nil {
		bs := m.BlockStats()
		info.Block = &bs
	}
	if sess.met != nil {
		info.Metrics = sess.met.Render()
	}
	return info
}
