package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
)

// fuzzCfg keeps every fuzzed session small: a handful of sessions and
// steps short enough that an input of many operations stays quick.
var fuzzCfg = Config{Workers: 2, QueueDepth: 16, MaxSessions: 3, MaxStepCycles: 40_000}

// fuzzSession is what the client side knows of a live session: the
// lifetime budget it was created with and the cycles it has stepped.
type fuzzSession struct {
	id      string
	budget  uint64 // 0: unlimited
	stepped uint64
}

// apiFuzzer drives one server through its HTTP handler, one operation
// at a time, and checks the API's promises after every response.
type apiFuzzer struct {
	t        *testing.T
	s        *Server
	mux      http.Handler
	sessions []*fuzzSession
	blob     []byte // the last snapshot downloaded
}

func (f *apiFuzzer) do(method, path string, body []byte) (int, []byte) {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	f.mux.ServeHTTP(rec, req)
	if rec.Code >= 500 {
		f.t.Fatalf("%s %s %q: status %d: %s", method, path, body, rec.Code, rec.Body.Bytes())
	}
	if n := f.s.SessionsLive(); n > fuzzCfg.MaxSessions {
		f.t.Fatalf("%d live sessions, limit %d", n, fuzzCfg.MaxSessions)
	}
	return rec.Code, rec.Body.Bytes()
}

// pick maps a selector byte to a live session, or to an unknown ID.
func (f *apiFuzzer) pick(b byte) (*fuzzSession, string) {
	if i := int(b) % (len(f.sessions) + 1); i < len(f.sessions) {
		return f.sessions[i], f.sessions[i].id
	}
	return nil, "s-999"
}

func (f *apiFuzzer) create(body []byte) {
	full := f.s.SessionsLive() >= fuzzCfg.MaxSessions
	code, out := f.do("POST", "/v1/sessions", body)
	if code != http.StatusCreated {
		return
	}
	if full {
		f.t.Fatalf("create past the session limit answered %d", code)
	}
	var req CreateRequest
	var info SessionInfo
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		f.t.Fatalf("accepted create body does not decode: %v", err)
	}
	if err := json.Unmarshal(out, &info); err != nil {
		f.t.Fatal(err)
	}
	f.sessions = append(f.sessions, &fuzzSession{id: info.ID, budget: req.CycleBudget})
}

func (f *apiFuzzer) step(sess *fuzzSession, id string, body []byte) {
	// Decoded the way the handler decodes it; a body that does not
	// decode leaves Cycles 0, which the server must refuse.
	var req stepRequest
	_ = json.NewDecoder(bytes.NewReader(body)).Decode(&req)
	code, out := f.do("POST", "/v1/sessions/"+id+"/step", body)
	if code != http.StatusOK {
		if sess != nil && code == http.StatusConflict && (sess.budget == 0 || sess.stepped != sess.budget) {
			f.t.Fatalf("step refused for budget with %d of %d cycles stepped", sess.stepped, sess.budget)
		}
		return
	}
	if sess == nil {
		f.t.Fatalf("step on unknown session %s answered %d", id, code)
	}
	if req.Cycles <= 0 || req.Cycles > fuzzCfg.MaxStepCycles {
		f.t.Fatalf("step of %d cycles accepted, cap %d", req.Cycles, fuzzCfg.MaxStepCycles)
	}
	var res StepResult
	if err := json.Unmarshal(out, &res); err != nil {
		f.t.Fatal(err)
	}
	want := uint64(req.Cycles)
	if sess.budget > 0 {
		want = min(want, sess.budget-sess.stepped)
	}
	if res.CyclesRun < 0 || uint64(res.CyclesRun) > want ||
		(res.Status == "running" && uint64(res.CyclesRun) != want) {
		f.t.Fatalf("step of %d cycles (budget %d, stepped %d) ran %d, status %s",
			req.Cycles, sess.budget, sess.stepped, res.CyclesRun, res.Status)
	}
	sess.stepped += uint64(res.CyclesRun)
	if sess.budget > 0 && (res.BudgetRemaining == nil || *res.BudgetRemaining != sess.budget-sess.stepped) {
		f.t.Fatalf("budget %d, stepped %d, reported remaining %v", sess.budget, sess.stepped, res.BudgetRemaining)
	}
}

func (f *apiFuzzer) fork(sess *fuzzSession, id string) {
	full := f.s.SessionsLive() >= fuzzCfg.MaxSessions
	code, out := f.do("POST", "/v1/sessions/"+id+"/fork", nil)
	if code != http.StatusCreated {
		return
	}
	if sess == nil || full {
		f.t.Fatalf("fork of %s (session limit reached: %v) answered %d", id, full, code)
	}
	var info SessionInfo
	if err := json.Unmarshal(out, &info); err != nil {
		f.t.Fatal(err)
	}
	if info.SteppedCycles != sess.stepped {
		f.t.Fatalf("twin stepped %d, parent %d", info.SteppedCycles, sess.stepped)
	}
	f.sessions = append(f.sessions, &fuzzSession{id: info.ID, budget: sess.budget, stepped: sess.stepped})
}

func (f *apiFuzzer) remove(id string) {
	if code, _ := f.do("DELETE", "/v1/sessions/"+id, nil); code != http.StatusOK {
		return
	}
	for i, sess := range f.sessions {
		if sess.id == id {
			f.sessions = append(f.sessions[:i], f.sessions[i+1:]...)
			return
		}
	}
	f.t.Fatalf("deleted unknown session %s", id)
}

// run interprets ops as a sequence of API calls. Each operation takes
// an opcode byte and one argument byte; create and step take their
// bodies from the fuzzed createBody and stepBody, or from the request
// shapes the API tests send.
func (f *apiFuzzer) run(createBody, stepBody string, ops []byte) {
	for len(ops) >= 2 {
		op, arg := ops[0], ops[1]
		ops = ops[2:]
		sess, id := f.pick(arg)
		switch op % 10 {
		case 0:
			f.create([]byte(createBody))
		case 1:
			f.create(fuzzCreates[int(arg)%len(fuzzCreates)])
		case 2:
			cycles := []int{1, 7, 300, 2000, fuzzCfg.MaxStepCycles, 0, -1, fuzzCfg.MaxStepCycles + 1}[arg%8]
			f.step(sess, id, []byte(fmt.Sprintf(`{"cycles":%d}`, cycles)))
		case 3:
			f.step(sess, id, []byte(stepBody))
		case 4:
			f.fork(sess, id)
		case 5:
			if code, out := f.do("GET", "/v1/sessions/"+id+"/snapshot", nil); code == http.StatusOK {
				f.blob = out
			}
		case 6:
			blob := append([]byte(nil), f.blob...)
			if len(blob) > 0 && arg&1 == 1 {
				blob[int(arg)%len(blob)] ^= arg
			}
			body, err := json.Marshal(CreateRequest{Snapshot: blob})
			if err != nil {
				f.t.Fatal(err)
			}
			f.create(body)
		case 7:
			f.remove(id)
		case 8:
			f.do("GET", "/v1/sessions/"+id, nil)
		case 9:
			f.do("GET", "/v1/sessions", nil)
			f.do("GET", "/v1/metrics", nil)
		}
	}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// fuzzCreates are the create requests the API and server tests send.
var fuzzCreates = [][]byte{
	mustJSON(CreateRequest{Program: counterProgram, Streams: 1}),
	mustJSON(CreateRequest{Program: haltProgram, Streams: 1}),
	mustJSON(CreateRequest{Program: wedgeProgram, Streams: 1, StallWindow: u64(200)}),
	mustJSON(CreateRequest{Program: counterProgram, Streams: 1, CycleBudget: 500}),
	mustJSON(CreateRequest{Program: fusedProgram, Streams: 1, BlockEngine: true}),
	mustJSON(CreateRequest{Program: counterProgram, Streams: 2, Metrics: true,
		Fault: map[string]FaultConfig{"extram": {Seed: 3, ExtraWaitProb: 0.5, ExtraWaitMax: 4, FaultProb: 0.1}}}),
}

// FuzzAPI drives the disc-serve/1 handler with fuzzed create and step
// bodies and fuzzed sequences of create, step, fork, snapshot,
// upload, inspect and delete requests. The server must never panic,
// never answer with a 5xx, never exceed MaxStepCycles or the session
// limit, and never step a session past its cycle budget; a step that
// reports "running" must have run every cycle it was allowed.
func FuzzAPI(f *testing.F) {
	for i, c := range fuzzCreates {
		f.Add(string(c), `{"cycles":300}`, []byte{0, 0, 3, 0, 4, 0, 2, byte(i), 5, 0, 6, 0, 6, 1, 8, 1, 9, 0, 7, 0})
	}
	for _, bad := range []CreateRequest{
		{},
		{Program: "main:\n    BOGUS\n"},
		{Program: counterProgram, Snapshot: []byte{1}},
		{Snapshot: []byte{1, 2, 3}},
		{Snapshot: []byte{1, 2, 3}, BlockEngine: true},
		{Program: counterProgram, Streams: 1, Start: map[string]string{"7": "main"}},
		{Program: counterProgram, Streams: 1, Fault: map[string]FaultConfig{"nope": {}}},
	} {
		f.Add(string(mustJSON(bad)), `{"cycles":0}`, []byte{0, 0, 1, 0, 3, 0, 2, 7, 2, 6})
	}
	f.Add(`{"program":`, `{"cycles":"x"}`, []byte{0, 0, 1, 3, 3, 0, 3, 1})
	f.Add(`{"program":"main:\n HALT\n","bogus":1}`, `{"nope":1}`, []byte{0, 0, 1, 1, 3, 0, 2, 4})
	f.Add(`{"program":"main:\n JMP main\n","stall_window":0,"cycle_budget":70000}`, `{"cycles":40000}`,
		[]byte{0, 0, 3, 0, 3, 0, 2, 4, 4, 0, 3, 1, 2, 1, 1, 1, 1, 2})
	f.Fuzz(func(t *testing.T, createBody, stepBody string, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		s := New(fuzzCfg)
		defer s.Close()
		fz := &apiFuzzer{t: t, s: s, mux: NewMux(s)}
		fz.run(createBody, stepBody, ops)
	})
}
