// Command discserve hosts DISC simulation sessions as a service: a
// multi-tenant HTTP/JSON server (schema disc-serve/1, DESIGN.md §15)
// in which each session is one cycle-accurate machine driven under its
// own liveness guard, cycle budget and fault policy.
//
// Usage:
//
//	discserve [flags]
//
//	-addr host:port   listen address (default 127.0.0.1:8765; use
//	                  port 0 to pick a free port — the chosen address
//	                  is printed to stderr either way)
//	-workers n        session shards: worker goroutines, each owning
//	                  its sessions' machines exclusively (default 4)
//	-queue n          per-worker bound on accepted, unfinished requests;
//	                  the next request gets HTTP 429 (default 64)
//	-max-sessions n   live-session cap across the server (default 1024)
//	-max-step-cycles n
//	                  largest single step request in cycles
//	                  (default 5e6); a worker runs a step in slices
//	                  of 2^15 cycles, taking turns with its other
//	                  sessions
//	-drain-dir dir    on SIGINT/SIGTERM, after in-flight requests
//	                  finish, snapshot every live session into this
//	                  directory as <id>.snap (crash-atomically) before
//	                  exiting; empty skips the snapshots
//
// The API (see DESIGN.md §15 for the schema):
//
//	POST   /v1/sessions            create from {"program": "..."} or
//	                               {"snapshot": "<base64 disc-snap/1>"}
//	GET    /v1/sessions            list
//	GET    /v1/sessions/{id}       inspect registers/stats/status
//	POST   /v1/sessions/{id}/step  {"cycles": n}
//	GET    /v1/sessions/{id}/snapshot   download disc-snap/1 blob
//	POST   /v1/sessions/{id}/fork  byte-identical twin
//	DELETE /v1/sessions/{id}
//	GET    /v1/metrics             sessions live, steps/sec, p50/p99
//
// On SIGINT/SIGTERM the server drains gracefully: it stops accepting
// work, finishes in-flight steps, snapshots live sessions (with
// -drain-dir), and exits 0, or 1 when a session could not be
// snapshotted (a crashed one is skipped and named). A second signal
// kills it immediately.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"disc/internal/serve"
)

func main() {
	os.Exit(run())
}

func run() int {
	addr := flag.String("addr", "127.0.0.1:8765", "listen address (port 0 picks a free port)")
	workers := flag.Int("workers", 4, "session shards (worker goroutines)")
	queue := flag.Int("queue", 64, "per-worker bound on accepted, unfinished requests")
	maxSessions := flag.Int("max-sessions", 1024, "live-session cap")
	maxStepCycles := flag.Int("max-step-cycles", 5_000_000, "largest single step request in cycles")
	drainDir := flag.String("drain-dir", "", "snapshot live sessions here on graceful shutdown")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: discserve [flags]")
		flag.PrintDefaults()
		return 2
	}

	srv := serve.New(serve.Config{
		Workers:       *workers,
		QueueDepth:    *queue,
		MaxSessions:   *maxSessions,
		MaxStepCycles: *maxStepCycles,
	})
	defer srv.Close()

	// Catch signals before announcing the address: a supervisor may
	// signal as soon as it reads the announcement, and a signal that
	// arrived before Notify would kill the process undrained.
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "discserve:", err)
		return 1
	}
	// The resolved address matters with port 0; supervisors and the e2e
	// tests parse this line.
	fmt.Fprintf(os.Stderr, "discserve: listening on http://%s\n", ln.Addr())

	hs := &http.Server{Handler: serve.NewMux(srv)}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		fmt.Fprintln(os.Stderr, "discserve:", err)
		return 1
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "discserve: %v: draining (in-flight requests finish, new work gets 503)\n", sig)
	}
	// A second signal aborts the drain the conventional way.
	go func() {
		sig := <-sigc
		fmt.Fprintf(os.Stderr, "discserve: second %v: aborting drain\n", sig)
		os.Exit(1)
	}()

	// Stop accepting and let in-flight HTTP requests (and the worker
	// tasks they are waiting on) complete.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "discserve: shutdown:", err)
	}
	<-serveErr // Serve has returned once Shutdown completes

	if err := srv.Drain(*drainDir); err != nil {
		fmt.Fprintln(os.Stderr, "discserve:", err)
		return 1
	}
	if *drainDir != "" {
		fmt.Fprintf(os.Stderr, "discserve: drained %d session(s) into %s\n", srv.SessionsLive(), *drainDir)
	}
	return 0
}
