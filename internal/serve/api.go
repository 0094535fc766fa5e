package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"
)

// maxBodyBytes bounds request bodies (programs and uploaded
// snapshots); a full 64K-word program store snapshot is ~400KB, so
// 16MB leaves generous headroom without letting a tenant exhaust
// memory.
const maxBodyBytes = 16 << 20

// apiError is the uniform JSON error body. Stack and PostMortem are
// set only for a crashed session: the worker's stack at its panic and
// the session's flight-recorder tail (CrashError).
type apiError struct {
	Schema     string `json:"schema"`
	Error      string `json:"error"`
	Stack      string `json:"stack,omitempty"`
	PostMortem string `json:"post_mortem,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // a failed write means the client went away
}

func writeErr(w http.ResponseWriter, err error) {
	body := apiError{Schema: Schema, Error: err.Error()}
	var crash *CrashError
	if errors.As(err, &crash) {
		body.Stack, body.PostMortem = crash.Stack, crash.PostMortem
	}
	writeJSON(w, statusOf(err), body)
}

// statusOf maps the server's sentinel errors onto HTTP status codes;
// anything unrecognized is the client's fault (a bad program, a
// malformed snapshot, an out-of-range parameter).
func statusOf(err error) int {
	switch {
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, ErrBusy), errors.Is(err, ErrSessionLimit):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrDraining), errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrBudget):
		return http.StatusConflict
	case errors.Is(err, ErrCrashed):
		return http.StatusInternalServerError
	}
	return http.StatusBadRequest
}

// stepRequest is the /step body.
type stepRequest struct {
	Cycles int `json:"cycles"`
}

// listResponse is the /v1/sessions GET body.
type listResponse struct {
	Schema   string           `json:"schema"`
	Sessions []SessionSummary `json:"sessions"`
}

// NewMux routes the disc-serve/1 API onto s:
//
//	POST   /v1/sessions            create (program or snapshot upload)
//	GET    /v1/sessions            list live sessions
//	GET    /v1/sessions/{id}       inspect registers/stats/status
//	POST   /v1/sessions/{id}/step  {"cycles": n} advance under the guard
//	GET    /v1/sessions/{id}/snapshot  download the disc-snap/1 blob
//	POST   /v1/sessions/{id}/fork  restore a twin, return its info
//	DELETE /v1/sessions/{id}       delete
//	GET    /v1/metrics             server-wide counters + latency tail
func NewMux(s *Server) *http.ServeMux {
	mux := http.NewServeMux()

	mux.HandleFunc("POST /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		var req CreateRequest
		if err := decodeBody(w, r, &req); err != nil {
			writeErr(w, err)
			return
		}
		info, err := s.Create(req)
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusCreated, info)
	})

	mux.HandleFunc("GET /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, listResponse{Schema: Schema, Sessions: s.List()})
	})

	mux.HandleFunc("GET /v1/sessions/{id}", func(w http.ResponseWriter, r *http.Request) {
		info, err := s.Inspect(r.PathValue("id"))
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, info)
	})

	mux.HandleFunc("POST /v1/sessions/{id}/step", func(w http.ResponseWriter, r *http.Request) {
		var req stepRequest
		if err := decodeBody(w, r, &req); err != nil {
			writeErr(w, err)
			return
		}
		start := time.Now() //detlint:ignore serving-edge latency measurement, never in simulation state
		res, err := s.Step(r.PathValue("id"), req.Cycles)
		s.met.ObserveStepLatency(time.Since(start)) //detlint:ignore serving-edge latency measurement, never in simulation state
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, res)
	})

	mux.HandleFunc("GET /v1/sessions/{id}/snapshot", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		blob, err := s.SnapshotBytes(id)
		if err != nil {
			writeErr(w, err)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%s.snap", id))
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(blob)
	})

	mux.HandleFunc("POST /v1/sessions/{id}/fork", func(w http.ResponseWriter, r *http.Request) {
		info, err := s.Fork(r.PathValue("id"))
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusCreated, info)
	})

	mux.HandleFunc("DELETE /v1/sessions/{id}", func(w http.ResponseWriter, r *http.Request) {
		if err := s.Delete(r.PathValue("id")); err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, struct {
			Schema  string `json:"schema"`
			Deleted string `json:"deleted"`
		}{Schema, r.PathValue("id")})
	})

	mux.HandleFunc("GET /v1/metrics", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})

	return mux
}

func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("serve: bad request body: %w", err)
	}
	return nil
}
