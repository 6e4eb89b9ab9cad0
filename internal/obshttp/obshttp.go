// Package obshttp serves a running pipeline's live endpoints: net/http/pprof
// profiles under /debug/pprof/, a run's obs registry's Prometheus text
// exposition under /metrics, the progress tracker's snapshot under /progress,
// and a live event tail under /events (Server-Sent Events). It lives apart
// from internal/obs so that the telemetry layer itself — imported by every
// hot package — never links net/http or touches the default serve mux.
package obshttp

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"time"

	"github.com/dbhammer/mirage/internal/obs"
)

// Server is a running debug/observability HTTP server. Callers own its
// lifecycle: Serve starts it, Shutdown (or Close) stops it — nothing is
// abandoned to the process lifetime.
type Server struct {
	addr string
	srv  *http.Server
	done chan struct{}
	err  error // Serve's exit error, readable after done closes
}

// Serve binds addr (e.g. ":6060", "localhost:0") and serves reg's
// observability endpoints from a background goroutine until Shutdown or
// Close. It returns the server handle — Addr reports the bound address,
// useful when addr requested an ephemeral port — or the listen error. The
// server uses its own mux, so importing this package never mutates
// http.DefaultServeMux.
func Serve(addr string, reg *obs.Registry) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{
		addr: ln.Addr().String(),
		done: make(chan struct{}),
		srv: &http.Server{
			Handler:           Handler(reg),
			ReadHeaderTimeout: 10 * time.Second,
			ReadTimeout:       30 * time.Second,
			// No WriteTimeout: /events streams for the run's lifetime and
			// pprof profiles block for their sampling window.
			IdleTimeout: 2 * time.Minute,
			ErrorLog:    log.New(os.Stderr, "obshttp: ", log.LstdFlags),
		},
	}
	go func() {
		s.err = s.srv.Serve(ln)
		close(s.done)
	}()
	return s, nil
}

// Addr returns the server's bound address ("" for nil).
func (s *Server) Addr() string {
	if s == nil {
		return ""
	}
	return s.addr
}

// Shutdown gracefully stops the server: no new connections, in-flight
// requests drain until ctx expires (then they are cut). Safe on nil and safe
// to call more than once.
func (s *Server) Shutdown(ctx context.Context) error {
	if s == nil {
		return nil
	}
	err := s.srv.Shutdown(ctx)
	<-s.done
	if s.err != nil && s.err != http.ErrServerClosed && err == nil {
		err = s.err
	}
	return err
}

// Close stops the server immediately, cutting in-flight requests. Safe on
// nil and safe after Shutdown.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	err := s.srv.Close()
	<-s.done
	return err
}

// Handler returns the observability mux over reg: /debug/pprof/*, /metrics,
// /progress, /events.
func Handler(reg *obs.Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	rt := routes{reg}
	mux.HandleFunc("/metrics", rt.metrics)
	mux.HandleFunc("/progress", rt.progress)
	mux.HandleFunc("/events", rt.events)
	return mux
}

// routes serves one registry's endpoints.
type routes struct{ reg *obs.Registry }

// metrics writes the registry's Prometheus exposition, or 503 when it is
// nil.
func (rt routes) metrics(w http.ResponseWriter, _ *http.Request) {
	if rt.reg == nil {
		http.Error(w, "telemetry disabled: no registry", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	rt.reg.WritePrometheus(w)
}

// progress writes the installed tracker's live snapshot as indented JSON, or
// 503 when no registry/tracker is installed (before a generation run begins).
func (rt routes) progress(w http.ResponseWriter, _ *http.Request) {
	tr := rt.reg.Tracker()
	if tr == nil {
		http.Error(w, "no progress tracker: generation has not started", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	tr.WriteJSON(w)
}

// events streams the journal as Server-Sent Events: first the ring's
// retained backlog, then live events as they are emitted, each as one
// `data: {json}` frame. The stream ends when the client disconnects or the
// server shuts down. 503 when the registry is nil.
func (rt routes) events(w http.ResponseWriter, r *http.Request) {
	if rt.reg == nil {
		http.Error(w, "telemetry disabled: no registry", http.StatusServiceUnavailable)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	// Push the headers out now: with an empty backlog the first frame may be
	// a long way off, and clients block on the status line until a flush.
	fl.Flush()

	backlog, ch, cancel := rt.reg.Events().Subscribe(256)
	defer cancel()
	send := func(ev obs.Event) bool {
		b, err := json.Marshal(ev)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "data: %s\n\n", b); err != nil {
			return false
		}
		fl.Flush()
		return true
	}
	for _, ev := range backlog {
		if !send(ev) {
			return
		}
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, ok := <-ch:
			if !ok {
				return
			}
			if !send(ev) {
				return
			}
		}
	}
}
