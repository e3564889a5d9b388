package obs

import (
	"encoding/json"
	"expvar"
	"net/http"
	"net/http/pprof"
	"time"
)

// HandlerOptions parameterise HandlerOpts; the zero value serves the
// bare registry and probes.
type HandlerOptions struct {
	// Healthy gates /healthz; nil means always live.
	Healthy func() bool
	// Ready gates /readyz; nil falls back to Healthy.
	Ready func() bool
	// Detail, when set, is sampled per probe request and merged into
	// the probe's JSON body (role, replication lag, persistence state…) so
	// operators and dashboards can tell *why* a node is unready.
	Detail func() map[string]any
	// Trace, when set, serves the recorder's accumulated Chrome trace
	// at /trace.json.
	Trace *TraceRecorder
	// SLO, when set, serves the objective states at /slo.json.
	SLO *SLOEngine
	// Flight, when set, serves a live dump of the black-box ring at
	// /flight.json.
	Flight *FlightRecorder
}

// HandlerOpts serves the registry over HTTP for long-running commands:
//
//	/metrics       Prometheus text exposition
//	/metrics.json  Snapshot as JSON
//	/debug/vars    expvar (Go runtime memstats etc.)
//	/debug/pprof/  CPU/heap/goroutine profiles
//	/healthz       liveness (200 unless Healthy returns false)
//	/readyz        readiness (200 only when Ready returns true)
//
// plus /trace.json, /slo.json and /flight.json when opts names their
// source. The probes answer with a JSON body — {"ok":bool, ...detail}
// — so a load balancer checks the status code while curl and bmwtop get
// the reason a node is out of rotation.
//
// Only owned instruments (atomics) should live in a registry served
// live — callback instruments would be sampled concurrently with the
// producer. Long-running commands sample mutable sim state into
// gauges from their own loop instead.
func HandlerOpts(r *Registry, opts HandlerOptions) http.Handler {
	mux := http.NewServeMux()
	probe := func(check func() bool) http.HandlerFunc {
		return func(w http.ResponseWriter, _ *http.Request) {
			ok := check == nil || check()
			body := map[string]any{"ok": ok}
			if opts.Detail != nil {
				for k, v := range opts.Detail() {
					body[k] = v
				}
			}
			w.Header().Set("Content-Type", "application/json")
			if !ok {
				w.WriteHeader(http.StatusServiceUnavailable)
			}
			_ = json.NewEncoder(w).Encode(body)
		}
	}
	ready := opts.Ready
	if ready == nil {
		ready = opts.Healthy
	}
	mux.HandleFunc("/healthz", probe(opts.Healthy))
	mux.HandleFunc("/readyz", probe(ready))
	if opts.Trace != nil {
		mux.HandleFunc("/trace.json", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_, _ = opts.Trace.WriteTo(w)
		})
	}
	if opts.SLO != nil {
		mux.HandleFunc("/slo.json", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(opts.SLO.Status())
		})
	}
	if opts.Flight != nil {
		mux.HandleFunc("/flight.json", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_ = opts.Flight.Dump().WriteJSON(w)
		})
	}
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_ = r.WritePrometheus(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(r.Snapshot())
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// NewServerOpts builds the HandlerOpts server for addr without
// starting it, so callers own its lifecycle — in particular
// http.Server.Shutdown for a graceful drain on SIGINT/SIGTERM.
//
// The server carries header/read/idle timeouts so a stalled or
// malicious scraper cannot pin a connection (and its goroutine)
// forever: metrics responses are small, so seconds-scale budgets are
// generous. WriteTimeout stays 0 because /debug/pprof/profile and
// /debug/pprof/trace legitimately stream for their full -seconds
// argument.
func NewServerOpts(addr string, r *Registry, opts HandlerOptions) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           HandlerOpts(r, opts),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       10 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
}
