package obs

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
)

// HealthSource supplies live service state for /healthz beyond the
// device-degraded bit: the current overload-ladder rung and the admission
// queue depth. The service front-end (internal/serve) implements it;
// replay commands leave it unset and keep the plain ok/degraded report.
type HealthSource interface {
	// HealthStatus returns the overload state ("ok", "queueing",
	// "shedding", "rejecting", "read-only", "draining"), whether the
	// service is still accepting work, and the queued request count.
	HealthStatus() (status string, serving bool, queueDepth int64)
}

// SetHealthSource attaches a HealthSource consulted by /healthz. Safe to
// call while the handler is serving; a nil source detaches.
func (t *Telemetry) SetHealthSource(hs HealthSource) {
	if t != nil {
		t.health.Store(&hs)
	}
}

// healthSource returns the attached source, or nil.
func (t *Telemetry) healthSource() HealthSource {
	if t == nil {
		return nil
	}
	if hs := t.health.Load(); hs != nil {
		return *hs
	}
	return nil
}

// SetFlightRecorder attaches the flight recorder served on
// /debug/flightrec. Safe to call while the handler is serving; a nil
// recorder detaches.
func (t *Telemetry) SetFlightRecorder(fr *FlightRecorder) {
	if t != nil {
		t.flight.Store(fr)
	}
}

// flightRecorder returns the attached recorder, or nil.
func (t *Telemetry) flightRecorder() *FlightRecorder {
	if t == nil {
		return nil
	}
	return t.flight.Load()
}

// Handler returns the live exposition mux for this Telemetry:
//
//	/metrics       Prometheus text exposition of the whole catalog
//	/healthz       200 {"status":"ok"} while healthy,
//	               503 {"status":"degraded"} once the device goes read-only
//	/debug/flightrec  NDJSON snapshot of the attached flight recorder
//	                  (404 until SetFlightRecorder is called)
//	/debug/pprof/  the standard Go profiling endpoints
//	/              a plain-text index of the above
//
// The handler is safe to serve while the engine runs: every instrument is
// atomic and the registry is immutable after New.
func (t *Telemetry) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = t.Registry().WritePrometheus(w) // write errors mean the scraper hung up
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		// A service front-end reports its overload-ladder state and queue
		// depth; replay runs keep the plain ok/degraded contract.
		if hs := t.healthSource(); hs != nil {
			status, serving, depth := hs.HealthStatus()
			if serving {
				w.WriteHeader(http.StatusOK)
			} else {
				w.WriteHeader(http.StatusServiceUnavailable)
			}
			fmt.Fprintf(w, "{\"status\":%q,\"queue_depth\":%d}\n", status, depth)
			return
		}
		if t.Healthy() {
			w.WriteHeader(http.StatusOK)
			fmt.Fprintln(w, `{"status":"ok"}`)
			return
		}
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, `{"status":"degraded"}`)
	})
	mux.HandleFunc("/debug/flightrec", func(w http.ResponseWriter, r *http.Request) {
		fr := t.flightRecorder()
		if fr == nil {
			http.Error(w, "flight recorder not enabled", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		_ = fr.WriteSnapshot(w) // write errors mean the client hung up
	})
	// net/http/pprof registers on DefaultServeMux at import; wire its
	// handlers onto this mux explicitly so the default mux stays clean.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, "ssdsim telemetry\n\n/metrics\n/healthz\n/debug/flightrec\n/debug/pprof/\n")
	})
	return mux
}

// Server is a live telemetry listener with its bound address.
type Server struct {
	srv *http.Server
	ln  net.Listener
}

// Serve binds addr (e.g. "127.0.0.1:9090", or ":0" for an ephemeral port)
// and serves h on it in a background goroutine. The returned Server
// reports the actual bound address and shuts the listener down on Close.
func Serve(addr string, h http.Handler) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: h}
	go srv.Serve(ln) //nolint:errcheck // always ErrServerClosed after Close
	return &Server{srv: srv, ln: ln}, nil
}

// Addr returns the listener's bound address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the listener and in-flight handlers.
func (s *Server) Close() error { return s.srv.Close() }
