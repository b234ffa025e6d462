// Package ops embeds a live operations endpoint into benchmark and
// simulation processes. Every route but the Go profiler's is under /v1/:
//
//	/v1/metrics       Prometheus exposition text (probe counters/gauges)
//	/v1/vars          full JSON snapshot (probes, series, trace tail)
//	/v1/series        virtual-time series dump (JSON)
//	/v1/stream        server-sent events: one event per published snapshot
//	/v1/jobs          admin jobs: POST submits, GET lists
//	/v1/jobs/{id}     GET status, DELETE cancels
//	/v1/jobs/{id}/pause, /v1/jobs/{id}/resume
//	/v1/healthz       liveness (always 200)
//	/v1/readyz        readiness (200 once Done or serving a live array)
//	/debug/pprof/     Go runtime profiles
//
// Determinism boundary, read side: the simulation never calls into this
// package. Producers publish immutable Snapshot values via an atomic
// pointer swap; handlers only ever read published snapshots, so wallclock
// time — sanctioned in this package alone — cannot leak into simulation
// inputs or outputs.
//
// Determinism boundary, write side: mutating handlers never touch the
// simulation either. They stage typed commands on a JobSink (the admin
// gateway), and the simulation driver drains staged commands across its
// own injection boundary at virtual-time points of its choosing. A job
// POST therefore answers 202 Accepted: the command is journaled and will
// execute, but nothing has happened inside the simulation yet.
package ops

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"biza/internal/bench"
	"biza/internal/metrics"
	"biza/internal/storerr"
)

// JobSink is the write-side boundary: the admin gateway implements it.
// Submit/Cancel/Pause/Resume stage commands for later injection into the
// simulation (errors report only validation failures — unknown kinds,
// unknown ids, malformed params); JobJSON/JobsJSON read published job
// snapshots. All methods must be safe from any goroutine.
type JobSink interface {
	SubmitJob(kind string, params []byte) (uint64, error)
	CancelJob(id uint64) error
	PauseJob(id uint64) error
	ResumeJob(id uint64) error
	JobJSON(id uint64) ([]byte, bool)
	JobsJSON() []byte
}

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

	// Live marks a snapshot from a live array serving admin jobs rather
	// than a finite sweep; /v1/readyz reports ready while Live even though
	// Done never comes.
	Live bool `json:"live,omitempty"`

	VirtualNanos int64                `json:"virtual_ns"`           // simulated time covered
	Probes       []metrics.ProbeStat  `json:"probes,omitempty"`     // cumulative probe readings
	Series       []metrics.SeriesDump `json:"series,omitempty"`     // virtual-time series
	TraceTail    []string             `json:"trace_tail,omitempty"` // last trace records, JSONL
	// Jobs carries the admin job list (JSON array of admin.Job) when the
	// producer runs a control plane; /v1/vars surfaces it verbatim.
	Jobs json.RawMessage `json:"jobs,omitempty"`
}

// tailLines bounds the trace tail carried per snapshot.
const tailLines = 64

// Server publishes snapshots over HTTP. The zero value is not usable;
// call New.
type Server struct {
	mux  *http.ServeMux
	snap atomic.Pointer[Snapshot]

	mu     sync.Mutex
	change chan struct{} // closed and replaced on every Publish
	httpd  *http.Server
	ln     net.Listener

	jobs atomic.Pointer[JobSink]
}

// New returns a server with an empty (not ready) snapshot published.
func New() *Server {
	s := &Server{mux: http.NewServeMux(), change: make(chan struct{})}
	s.snap.Store(&Snapshot{})
	// Method enforcement (405) comes from the pattern router.
	s.mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/vars", s.handleVars)
	s.mux.HandleFunc("GET /v1/series", s.handleSeries)
	s.mux.HandleFunc("GET /v1/stream", s.handleStream)
	s.mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	s.mux.HandleFunc("GET /v1/readyz", s.handleReady)
	s.mux.HandleFunc("POST /v1/jobs", s.handleJobCreate)
	s.mux.HandleFunc("GET /v1/jobs", s.handleJobList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	s.mux.HandleFunc("POST /v1/jobs/{id}/pause", s.handleJobPause)
	s.mux.HandleFunc("POST /v1/jobs/{id}/resume", s.handleJobResume)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s
}

// SetJobs wires the admin job sink; until it is set (or when passed
// nil), every /v1/jobs route answers 503.
func (s *Server) SetJobs(sink JobSink) {
	if sink == nil {
		s.jobs.Store(nil)
		return
	}
	s.jobs.Store(&sink)
}

func (s *Server) jobSink() JobSink {
	if p := s.jobs.Load(); p != nil {
		return *p
	}
	return nil
}

// Handler exposes the endpoint mux for embedding into an existing server.
func (s *Server) Handler() http.Handler { return s.mux }

// Snapshot returns the most recently published snapshot (never nil).
func (s *Server) Snapshot() *Snapshot { return s.snap.Load() }

// Publish swaps in a new snapshot and wakes every /v1/stream subscriber.
// The snapshot's Seq is assigned here; everything else is the caller's.
func (s *Server) Publish(snap Snapshot) {
	s.mu.Lock()
	snap.Seq = s.snap.Load().Seq + 1
	s.snap.Store(&snap)
	close(s.change)
	s.change = make(chan struct{})
	s.mu.Unlock()
}

// changed returns a channel that closes at the next Publish.
func (s *Server) changed() <-chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.change
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
	s.httpd, s.ln = httpd, ln
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
	if snap := s.Snapshot(); !snap.Done && !snap.Live {
		http.Error(w, "sweep in progress", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ready")
}

// --- /v1/jobs: the mutating API ---

// errStatus maps storerr sentinels (wrapped through every admin layer)
// to HTTP statuses — the documented error contract of the jobs API.
func errStatus(err error) int {
	switch {
	case errors.Is(err, storerr.ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, storerr.ErrBadArgument):
		return http.StatusBadRequest
	case errors.Is(err, storerr.ErrNotSupported):
		return http.StatusNotImplemented
	case errors.Is(err, storerr.ErrExists),
		errors.Is(err, storerr.ErrNoSpace),
		errors.Is(err, storerr.ErrBusy),
		errors.Is(err, storerr.ErrWrongState):
		return http.StatusConflict
	default:
		return http.StatusInternalServerError
	}
}

// needSink fetches the job sink or answers 503 — a server without a
// control plane (plain benchmark sweeps) has no mutating surface.
func (s *Server) needSink(w http.ResponseWriter) (JobSink, bool) {
	sink := s.jobSink()
	if sink == nil {
		http.Error(w, "no admin control plane attached", http.StatusServiceUnavailable)
		return nil, false
	}
	return sink, true
}

func jobID(w http.ResponseWriter, r *http.Request) (uint64, bool) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		http.Error(w, "bad job id", http.StatusBadRequest)
		return 0, false
	}
	return id, true
}

// handleJobCreate accepts {"kind": "...", "params": {...}} and stages a
// submit. 202: the job is journaled, not yet executed — poll its id.
func (s *Server) handleJobCreate(w http.ResponseWriter, r *http.Request) {
	sink, ok := s.needSink(w)
	if !ok {
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		http.Error(w, "read body: "+err.Error(), http.StatusBadRequest)
		return
	}
	var req struct {
		Kind   string          `json:"kind"`
		Params json.RawMessage `json:"params"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return
	}
	id, err := sink.SubmitJob(req.Kind, req.Params)
	if err != nil {
		http.Error(w, err.Error(), errStatus(err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Location", fmt.Sprintf("/v1/jobs/%d", id))
	w.WriteHeader(http.StatusAccepted)
	fmt.Fprintf(w, "{\"id\":%d}\n", id)
}

func (s *Server) handleJobList(w http.ResponseWriter, _ *http.Request) {
	sink, ok := s.needSink(w)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(sink.JobsJSON())
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	sink, ok := s.needSink(w)
	if !ok {
		return
	}
	id, ok := jobID(w, r)
	if !ok {
		return
	}
	b, ok := sink.JobJSON(id)
	if !ok {
		http.Error(w, "no such job", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(b)
}

// stageVerb runs one staged mutation and answers 202 with the job's
// current (pre-injection) view.
func (s *Server) stageVerb(w http.ResponseWriter, r *http.Request, verb func(JobSink, uint64) error) {
	sink, ok := s.needSink(w)
	if !ok {
		return
	}
	id, ok := jobID(w, r)
	if !ok {
		return
	}
	if err := verb(sink, id); err != nil {
		http.Error(w, err.Error(), errStatus(err))
		return
	}
	b, hasView := sink.JobJSON(id)
	if hasView {
		w.Header().Set("Content-Type", "application/json")
	}
	w.WriteHeader(http.StatusAccepted)
	if hasView {
		w.Write(b)
	}
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	s.stageVerb(w, r, JobSink.CancelJob)
}

func (s *Server) handleJobPause(w http.ResponseWriter, r *http.Request) {
	s.stageVerb(w, r, JobSink.PauseJob)
}

func (s *Server) handleJobResume(w http.ResponseWriter, r *http.Request) {
	s.stageVerb(w, r, JobSink.ResumeJob)
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
	if sink := s.jobSink(); sink != nil {
		writeJobFamily(&b, sink)
	}
	w.Write([]byte(b.String()))
}

// writeJobFamily renders admin job counts by state and the cumulative
// rebuild progress, read from the sink's published job list.
func writeJobFamily(b *strings.Builder, sink JobSink) {
	var jobs []struct {
		Kind     string `json:"kind"`
		State    string `json:"state"`
		Progress struct {
			Done int64 `json:"done"`
		} `json:"progress"`
	}
	if json.Unmarshal(sink.JobsJSON(), &jobs) != nil {
		return
	}
	counts := map[string]int{}
	var rebuilt int64
	for _, j := range jobs {
		counts[j.State]++
		if j.Kind == "replace" {
			rebuilt += j.Progress.Done
		}
	}
	fmt.Fprintf(b, "# HELP biza_admin_jobs Admin jobs by lifecycle state.\n")
	fmt.Fprintf(b, "# TYPE biza_admin_jobs gauge\n")
	states := make([]string, 0, len(counts))
	for st := range counts {
		states = append(states, st)
	}
	sort.Strings(states)
	for _, st := range states {
		fmt.Fprintf(b, "biza_admin_jobs{state=\"%s\"} %d\n", escapeLabel(st), counts[st])
	}
	fmt.Fprintf(b, "# HELP biza_admin_rebuilt_stripes_total Stripes rebuilt by replace jobs.\n")
	fmt.Fprintf(b, "# TYPE biza_admin_rebuilt_stripes_total counter\n")
	fmt.Fprintf(b, "biza_admin_rebuilt_stripes_total %d\n", rebuilt)
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

// streamView is the compact per-event payload of /v1/stream: the snapshot
// minus its bulky series points and full tail.
type streamView struct {
	Seq          uint64 `json:"seq"`
	Done         bool   `json:"done"`
	Experiment   string `json:"experiment,omitempty"`
	Point        string `json:"point,omitempty"`
	PointsDone   int    `json:"points_done"`
	VirtualNanos int64  `json:"virtual_ns"`
	Probes       int    `json:"probes"`
	Series       int    `json:"series"`
	LastRecord   string `json:"last_record,omitempty"`
}

// handleStream serves server-sent events: the current snapshot summary
// immediately, then one event per Publish. The stream ends after the
// final Done snapshot or when the client disconnects.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	var last uint64
	sent := false
	for {
		ch := s.changed() // grab before reading so a racing Publish re-wakes us
		snap := s.Snapshot()
		if !sent || snap.Seq != last {
			sent, last = true, snap.Seq
			view := streamView{
				Seq: snap.Seq, Done: snap.Done,
				Experiment: snap.Experiment, Point: snap.Point,
				PointsDone: snap.PointsDone, VirtualNanos: snap.VirtualNanos,
				Probes: len(snap.Probes), Series: len(snap.Series),
			}
			if n := len(snap.TraceTail); n > 0 {
				view.LastRecord = snap.TraceTail[n-1]
			}
			data, err := json.Marshal(view)
			if err != nil {
				return
			}
			fmt.Fprintf(w, "event: snapshot\ndata: %s\n\n", data)
			fl.Flush()
			if snap.Done {
				return
			}
		}
		select {
		case <-r.Context().Done():
			return
		case <-ch:
		}
	}
}
