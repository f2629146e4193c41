package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"windar/internal/clock"
)

// RankHealth is one rank's liveness as reported by /healthz.
type RankHealth struct {
	Rank        int  `json:"rank"`
	Alive       bool `json:"alive"`
	Incarnation int  `json:"incarnation"`
	Finished    bool `json:"finished"`
}

// Health is the /healthz payload.
type Health struct {
	Finished bool         `json:"finished"` // every rank's application completed
	Ranks    []RankHealth `json:"ranks"`
}

// HistStat compresses one HistSnapshot for the JSON endpoint: totals
// plus the headline quantiles.
type HistStat struct {
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"`
	Max   int64 `json:"max"`
	P50   int64 `json:"p50"`
	P95   int64 `json:"p95"`
	P99   int64 `json:"p99"`
}

// StatOf summarizes a histogram snapshot into its headline statistics.
func StatOf(h HistSnapshot) HistStat {
	return HistStat{
		Count: h.Count, Sum: h.Sum, Max: h.Max,
		P50: h.Quantile(0.50), P95: h.Quantile(0.95), P99: h.Quantile(0.99),
	}
}

// HistVars is one family's /debug/vars entry.
type HistVars struct {
	Name  string     `json:"name"`
	Unit  string     `json:"unit,omitempty"`
	Ranks []HistStat `json:"ranks"`
	Total HistStat   `json:"total"`
}

// VarsSnapshot is the /debug/vars payload: run metadata, per-rank
// counters, histogram statistics (each family's exact cross-rank Total
// beside its per-rank figures) and health. windar-top decodes this type
// directly and derives rates from consecutive polls.
type VarsSnapshot struct {
	Meta     map[string]string `json:"meta,omitempty"`
	N        int               `json:"n"`
	UptimeNS int64             `json:"uptime_ns"`
	Health   *Health           `json:"health,omitempty"`
	Ranks    []RankCounters    `json:"ranks,omitempty"`
	Hists    []HistVars        `json:"hists,omitempty"`
}

// Source wires the debug server to a running cluster without obs
// importing harness or metrics: every field is optional and a nil
// accessor simply omits that section.
type Source struct {
	// Registry supplies the histogram families for /metrics and
	// /debug/vars.
	Registry *Registry
	// Counters supplies per-rank counter lists (metrics.Snapshot.Vars).
	Counters func() []RankCounters
	// Health supplies per-rank liveness/incarnation for /healthz.
	Health func() Health
	// Meta is static run metadata (app, protocol, transport...).
	Meta map[string]string
	// Clock times uptime; defaults to the real clock.
	Clock clock.Clock
	// Flight, if non-nil, streams the trace recorder's current window (a
	// JSONL export) — served as /debug/flight. obs stays a leaf package:
	// the accessor is wired by the embedder (windar.Cluster hands it
	// Config.Trace's Export).
	Flight func(w io.Writer) error
}

// Server is the debug HTTP endpoint set. Build one with NewServer (for
// embedding in a caller-owned mux or httptest) or Serve (to listen).
type Server struct {
	src   Source
	clk   clock.Clock
	start time.Time
	mux   *http.ServeMux

	ln net.Listener
	hs *http.Server
}

// NewServer builds the handler set without listening.
func NewServer(src Source) *Server {
	if src.Clock == nil {
		src.Clock = clock.Real{}
	}
	s := &Server{src: src, clk: src.Clock, start: src.Clock.Now(), mux: http.NewServeMux()}
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/debug/vars", s.handleVars)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/debug/flight", s.handleFlight)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s
}

// Serve builds a Server and listens on addr (e.g. "127.0.0.1:8077";
// port 0 picks a free one — read it back from Addr).
func Serve(addr string, src Source) (*Server, error) {
	s := NewServer(src)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: serve %s: %w", addr, err)
	}
	s.ln = ln
	s.hs = &http.Server{Handler: s.mux}
	go func() { _ = s.hs.Serve(ln) }()
	return s, nil
}

// Handler returns the route set for embedding in tests or other servers.
func (s *Server) Handler() http.Handler { return s.mux }

// Addr returns the bound listen address, "" when built with NewServer.
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops the listener. In-flight requests are abandoned; the debug
// server carries no state worth draining.
func (s *Server) Close() error {
	if s.hs == nil {
		return nil
	}
	return s.hs.Close()
}

func (s *Server) counters() []RankCounters {
	if s.src.Counters == nil {
		return nil
	}
	return s.src.Counters()
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = WritePromText(w, "windar", s.src.Registry.Snapshot(), s.counters())
}

// Vars assembles the /debug/vars payload (also used by tests and by
// callers embedding the server elsewhere).
func (s *Server) Vars() VarsSnapshot {
	v := VarsSnapshot{
		Meta:     s.src.Meta,
		N:        s.src.Registry.N(),
		UptimeNS: int64(s.clk.Now().Sub(s.start)),
		Ranks:    s.counters(),
	}
	if s.src.Health != nil {
		h := s.src.Health()
		v.Health = &h
		if v.N == 0 {
			v.N = len(h.Ranks)
		}
	}
	for _, f := range s.src.Registry.Snapshot() {
		hv := HistVars{Name: f.Name, Unit: f.Unit, Total: StatOf(f.Total)}
		for _, rh := range f.Ranks {
			hv.Ranks = append(hv.Ranks, StatOf(rh))
		}
		v.Hists = append(v.Hists, hv)
	}
	return v
}

func (s *Server) handleVars(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(s.Vars())
}

// handleFlight streams the trace recorder's current window as a JSONL
// trace (404 when no recorder is wired).
func (s *Server) handleFlight(w http.ResponseWriter, _ *http.Request) {
	if s.src.Flight == nil {
		http.Error(w, "no trace recorder wired", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	if err := s.src.Flight(w); err != nil {
		// Headers are gone; all we can do is cut the stream short.
		return
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	var h Health
	if s.src.Health != nil {
		h = s.src.Health()
	}
	code := http.StatusOK
	for _, r := range h.Ranks {
		if !r.Alive {
			code = http.StatusServiceUnavailable
			break
		}
	}
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(h)
}
