package telemetry

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// Handler builds the observability mux: Prometheus exposition on
// /metrics, a JSON dump of the journal's memory tail on /debug/vars, and
// the standard pprof profiles under /debug/pprof/. reg and j may each be
// nil, which disables the corresponding endpoint.
func Handler(reg *Registry, j *Journal) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if reg == nil {
			http.Error(w, "no metrics registry", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WritePrometheus(w)
	})
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, r *http.Request) {
		if j == nil {
			http.Error(w, "no journal", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_ = j.WriteJSON(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Server serves the observability endpoints on its own listener.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// NewServer starts serving Handler(reg, j) on addr (":0" picks a free
// port).
func NewServer(addr string, reg *Registry, j *Journal) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	s := &Server{
		ln:  ln,
		srv: &http.Server{Handler: Handler(reg, j), ReadHeaderTimeout: 5 * time.Second},
	}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Shutdown stops accepting new connections and waits for in-flight
// requests (a /metrics scrape mid-exposition, a pprof profile being
// written) to complete, up to the context deadline. The CLIs call this
// on exit so a scraper never sees a half-written exposition.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.srv.Shutdown(ctx)
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		// Drain window elapsed: hard-close whatever is left so the
		// process can exit.
		_ = s.srv.Close()
	}
	return err
}

// Close stops the server and its listener immediately, aborting
// in-flight requests. Prefer Shutdown on orderly exits.
func (s *Server) Close() error { return s.srv.Close() }
