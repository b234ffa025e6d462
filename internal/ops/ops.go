// Package ops embeds a read-only operations endpoint into benchmark and
// simulation processes. Every route but the Go profiler's is under /v1/:
//
//	/v1/metrics       Prometheus exposition text (probe counters/gauges)
//	/v1/vars          full JSON snapshot (probes, series, trace tail)
//	/v1/series        virtual-time series dump (JSON)
//	/v1/healthz       liveness (always 200)
//	/v1/readyz        readiness (200 once the Done snapshot is published)
//	/debug/pprof/     Go runtime profiles
//
// Determinism boundary: the simulation never calls into this package.
// Producers publish immutable Snapshot values via an atomic pointer swap;
// handlers only ever read published snapshots, so wallclock time —
// sanctioned in this package alone — cannot leak into simulation inputs or
// outputs. No route mutates anything.
package ops

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"biza/internal/bench"
	"biza/internal/metrics"
)

// Snapshot is one immutable published view of a running (or finished)
// sweep. Producers build a fresh value per publish; handlers must not
// mutate it.
type Snapshot struct {
	Seq        uint64 `json:"seq"`                  // publish sequence number (assigned by Publish)
	Done       bool   `json:"done"`                 // final snapshot of the sweep
	Experiment string `json:"experiment,omitempty"` // experiment of the most recent point
	Point      string `json:"point,omitempty"`      // most recent completed config point
	PointsDone int    `json:"points_done"`          // config points completed so far
	Failed     int    `json:"failed"`               // experiments that ended in error (final snapshot)

	VirtualNanos int64                `json:"virtual_ns"`           // simulated time covered
	Probes       []metrics.ProbeStat  `json:"probes,omitempty"`     // cumulative probe readings
	Series       []metrics.SeriesDump `json:"series,omitempty"`     // virtual-time series
	TraceTail    []string             `json:"trace_tail,omitempty"` // last trace records, JSONL
}

// tailLines bounds the trace tail carried per snapshot.
const tailLines = 64

// Server publishes snapshots over HTTP. The zero value is not usable;
// call New.
type Server struct {
	mux  *http.ServeMux
	snap atomic.Pointer[Snapshot]

	mu    sync.Mutex
	httpd *http.Server
}

// New returns a server with an empty (not ready) snapshot published.
func New() *Server {
	s := &Server{mux: http.NewServeMux()}
	s.snap.Store(&Snapshot{})
	// Method enforcement (405) comes from the pattern router.
	s.mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/vars", s.handleVars)
	s.mux.HandleFunc("GET /v1/series", s.handleSeries)
	s.mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	s.mux.HandleFunc("GET /v1/readyz", s.handleReady)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s
}

// Handler exposes the endpoint mux for embedding into an existing server.
func (s *Server) Handler() http.Handler { return s.mux }

// Snapshot returns the most recently published snapshot (never nil).
func (s *Server) Snapshot() *Snapshot { return s.snap.Load() }

// Publish swaps in a new snapshot. The snapshot's Seq is assigned here;
// everything else is the caller's.
func (s *Server) Publish(snap Snapshot) {
	s.mu.Lock()
	snap.Seq = s.snap.Load().Seq + 1
	s.snap.Store(&snap)
	s.mu.Unlock()
}

// Start listens on addr ("host:port"; port 0 picks a free one) and serves
// in a background goroutine. The returned address is the bound one.
func (s *Server) Start(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	httpd := &http.Server{Handler: s.mux, ReadHeaderTimeout: 5 * time.Second}
	s.mu.Lock()
	s.httpd = httpd
	s.mu.Unlock()
	go httpd.Serve(ln) // returns ErrServerClosed on Close; nothing to report
	return ln.Addr(), nil
}

// Close stops a server previously started with Start.
func (s *Server) Close() error {
	s.mu.Lock()
	httpd := s.httpd
	s.mu.Unlock()
	if httpd == nil {
		return nil
	}
	return httpd.Close()
}

// Attach arms the runner so every completed config point publishes a
// cumulative snapshot: probes merge, series and trace tails accumulate.
// Call Finish with the sweep's report afterwards to publish the final
// Done snapshot (which flips /v1/readyz to 200).
func (s *Server) Attach(rn *bench.Runner) {
	var mu sync.Mutex
	var points int
	var probes []metrics.ProbeStat
	var series []metrics.SeriesDump
	var tail []string
	rn.Observer = func(experiment, point string, run *bench.Run) {
		mu.Lock()
		defer mu.Unlock()
		points++
		for _, tr := range run.Traces() {
			probes = metrics.MergeProbes(probes, tr.ProbeStats())
			series = append(series, tr.SeriesDumps()...)
			tail = append(tail, tr.TailJSONL(8)...)
		}
		if n := len(tail); n > tailLines {
			tail = append(tail[:0:0], tail[n-tailLines:]...)
		}
		s.Publish(Snapshot{
			Experiment: experiment,
			Point:      point,
			PointsDone: points,
			Probes:     append([]metrics.ProbeStat(nil), probes...),
			Series:     append([]metrics.SeriesDump(nil), series...),
			TraceTail:  append([]string(nil), tail...),
		})
	}
}

// Finish publishes the final snapshot of a completed sweep, rebuilt from
// the report itself (canonical order, independent of live publish
// interleaving), and marks the server ready.
func (s *Server) Finish(rep *bench.Report) {
	total := rep.Stats()
	snap := Snapshot{
		Done:         true,
		Failed:       len(rep.Failed()),
		VirtualNanos: total.VirtualNanos,
		Probes:       total.Probes,
	}
	for i := range rep.Results {
		snap.Series = append(snap.Series, rep.Results[i].Series...)
	}
	snap.PointsDone = s.Snapshot().PointsDone
	for _, tr := range rep.Traces {
		snap.TraceTail = append(snap.TraceTail, tr.TailJSONL(8)...)
	}
	if n := len(snap.TraceTail); n > tailLines {
		snap.TraceTail = snap.TraceTail[n-tailLines:]
	}
	s.Publish(snap)
}

func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	if !s.Snapshot().Done {
		http.Error(w, "sweep in progress", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ready")
}

func (s *Server) handleVars(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.Snapshot())
}

func (s *Server) handleSeries(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	snap := s.Snapshot()
	series := snap.Series
	if series == nil {
		series = []metrics.SeriesDump{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(series)
}

// handleMetrics renders the snapshot in Prometheus exposition text format
// (version 0.0.4). Probe names carry "/" and device suffixes, so they map
// to a name label on two fixed families rather than per-probe families.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	snap := s.Snapshot()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var b strings.Builder
	fmt.Fprintf(&b, "# HELP biza_sweep_done Whether the benchmark sweep has completed.\n")
	fmt.Fprintf(&b, "# TYPE biza_sweep_done gauge\n")
	fmt.Fprintf(&b, "biza_sweep_done %d\n", boolToInt(snap.Done))
	fmt.Fprintf(&b, "# HELP biza_points_done Config points completed so far.\n")
	fmt.Fprintf(&b, "# TYPE biza_points_done counter\n")
	fmt.Fprintf(&b, "biza_points_done %d\n", snap.PointsDone)
	fmt.Fprintf(&b, "# HELP biza_virtual_seconds_total Simulated time covered by the sweep.\n")
	fmt.Fprintf(&b, "# TYPE biza_virtual_seconds_total counter\n")
	fmt.Fprintf(&b, "biza_virtual_seconds_total %g\n", float64(snap.VirtualNanos)/1e9)

	probes := append([]metrics.ProbeStat(nil), snap.Probes...)
	sort.Slice(probes, func(i, j int) bool { return probes[i].Name < probes[j].Name })
	writeFamily(&b, "biza_probe_counter", "counter",
		"Cumulative observability probe counters.", probes, metrics.ProbeCounter)
	writeFamily(&b, "biza_probe_gauge", "gauge",
		"Peak-tracking observability probe gauges.", probes, metrics.ProbeGauge)
	w.Write([]byte(b.String()))
}

func writeFamily(b *strings.Builder, family, typ, help string, probes []metrics.ProbeStat, kind metrics.ProbeKind) {
	wrote := false
	for _, p := range probes {
		if p.Kind != kind {
			continue
		}
		if !wrote {
			fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", family, help, family, typ)
			wrote = true
		}
		fmt.Fprintf(b, "%s{name=\"%s\"} %g\n", family, escapeLabel(p.Name), p.Value)
	}
}

// escapeLabel escapes a Prometheus label value per the exposition format:
// backslash, newline, and double quote.
func escapeLabel(v string) string {
	return strings.NewReplacer("\\", "\\\\", "\n", "\\n", "\"", "\\\"").Replace(v)
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
