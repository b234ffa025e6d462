package ops

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"biza/internal/bench"
	"biza/internal/metrics"
)

func testSnapshot(done bool) Snapshot {
	return Snapshot{
		Done:         done,
		Experiment:   "fig10",
		Point:        "base",
		PointsDone:   3,
		VirtualNanos: 4_000_000,
		Probes: []metrics.ProbeStat{
			{Name: "busy/ch0", Kind: metrics.ProbeCounter, Value: 125000},
			{Name: `weird"name\n`, Kind: metrics.ProbeCounter, Value: 1},
			{Name: "qd/dev0", Kind: metrics.ProbeGauge, Value: 7},
		},
		Series: []metrics.SeriesDump{
			{Trace: "t0", Name: "qd/dev0", Kind: metrics.ProbeGauge, IntervalNs: 50000, Points: []float64{0, 1, 7}},
		},
		TraceTail: []string{`{"trace":1,"ts":100,"rec":"counter","probe":"qd/dev0","value":7}`},
	}
}

func get(t *testing.T, srv *Server, path string) (*http.Response, string) {
	t.Helper()
	return do(t, srv, "GET", path)
}

func do(t *testing.T, srv *Server, method, path string) (*http.Response, string) {
	t.Helper()
	req := httptest.NewRequest(method, path, nil)
	rw := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rw, req)
	res := rw.Result()
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	return res, string(body)
}

func TestHealthAndReadiness(t *testing.T) {
	s := New()
	if res, _ := get(t, s, "/v1/healthz"); res.StatusCode != 200 {
		t.Fatalf("/v1/healthz = %d before any publish", res.StatusCode)
	}
	if res, _ := get(t, s, "/v1/readyz"); res.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/v1/readyz = %d before the final snapshot, want 503", res.StatusCode)
	}
	s.Publish(testSnapshot(false))
	if res, _ := get(t, s, "/v1/readyz"); res.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/v1/readyz = %d on a snapshot before Done, want 503", res.StatusCode)
	}
	s.Publish(testSnapshot(true))
	if res, _ := get(t, s, "/v1/readyz"); res.StatusCode != 200 {
		t.Fatalf("/v1/readyz = %d after the Done snapshot, want 200", res.StatusCode)
	}
}

// promLine matches a Prometheus exposition sample line.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? [-+0-9.eE]+(Inf|NaN)?$`)

func TestMetricsExposition(t *testing.T) {
	s := New()
	s.Publish(testSnapshot(true))
	res, body := get(t, s, "/v1/metrics")
	if res.StatusCode != 200 {
		t.Fatalf("/v1/metrics = %d", res.StatusCode)
	}
	if ct := res.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	typed := map[string]bool{}
	samples := 0
	for _, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# TYPE "):
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			typed[f[2]] = true
		case strings.HasPrefix(line, "# HELP "):
		case line == "":
			t.Fatal("blank line in exposition body")
		default:
			if !promLine.MatchString(line) {
				t.Fatalf("malformed sample line %q", line)
			}
			name := line[:strings.IndexAny(line, "{ ")]
			if !typed[name] {
				t.Fatalf("sample %q precedes its # TYPE declaration", name)
			}
			samples++
		}
	}
	for _, want := range []string{
		"biza_sweep_done 1",
		"biza_points_done 3",
		`biza_probe_counter{name="busy/ch0"} 125000`,
		`biza_probe_counter{name="weird\"name\\n"} 1`,
		`biza_probe_gauge{name="qd/dev0"} 7`,
	} {
		if !strings.Contains(body, want+"\n") {
			t.Fatalf("exposition missing %q:\n%s", want, body)
		}
	}
	if samples < 6 {
		t.Fatalf("only %d sample lines", samples)
	}
}

func TestVarsAndSeriesJSON(t *testing.T) {
	s := New()
	s.Publish(testSnapshot(false))
	_, body := get(t, s, "/v1/vars")
	var snap Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/v1/vars is not valid JSON: %v", err)
	}
	if snap.Seq != 1 || snap.Experiment != "fig10" || len(snap.Probes) != 3 {
		t.Fatalf("unexpected /vars snapshot: %+v", snap)
	}
	_, body = get(t, s, "/v1/series")
	var series []metrics.SeriesDump
	if err := json.Unmarshal([]byte(body), &series); err != nil {
		t.Fatalf("/v1/series is not valid JSON: %v", err)
	}
	if len(series) != 1 || series[0].Name != "qd/dev0" || len(series[0].Points) != 3 {
		t.Fatalf("unexpected /series: %+v", series)
	}

	// Empty snapshot still serves a JSON array, not null.
	empty := New()
	if _, body := get(t, empty, "/v1/series"); strings.TrimSpace(body) != "[]" {
		t.Fatalf("/v1/series with no data = %q, want []", body)
	}
}

// TestRouteAndMethodErrors: unknown paths — the unversioned spellings and
// the write routes this endpoint no longer has among them — 404; wrong
// methods 405. Nothing answers a mutating method.
func TestRouteAndMethodErrors(t *testing.T) {
	s := New()
	s.Publish(testSnapshot(true))
	if res, _ := get(t, s, "/no/such/route"); res.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown route = %d, want 404", res.StatusCode)
	}
	for _, path := range []string{"/metrics", "/vars", "/series", "/healthz", "/readyz"} {
		if res, _ := get(t, s, path); res.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s = %d, want 404", path, res.StatusCode)
		}
		for _, method := range []string{"POST", "PUT", "DELETE"} {
			if res, _ := do(t, s, method, "/v1"+path); res.StatusCode != http.StatusMethodNotAllowed {
				t.Fatalf("%s /v1%s = %d, want 405", method, path, res.StatusCode)
			}
		}
		if res, _ := get(t, s, "/v1"+path); res.StatusCode != 200 {
			t.Fatalf("GET /v1%s = %d, want 200", path, res.StatusCode)
		}
	}
	for _, r := range []struct{ method, path string }{
		{"POST", "/v1/jobs"}, {"GET", "/v1/jobs"}, {"GET", "/v1/jobs/1"}, {"DELETE", "/v1/jobs/1"},
		{"POST", "/v1/jobs/1/pause"}, {"POST", "/v1/jobs/1/resume"}, {"GET", "/v1/stream"},
	} {
		if res, _ := do(t, s, r.method, r.path); res.StatusCode != http.StatusNotFound && res.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("%s %s = %d, want 404 or 405", r.method, r.path, res.StatusCode)
		}
	}
}

// Attach + Finish against a real quick sweep: live snapshots arrive while
// points complete, and the final snapshot carries the report's series.
func TestAttachPublishesLiveSweep(t *testing.T) {
	s := New()
	scale := bench.QuickScale()
	scale.Duration /= 4
	rn := &bench.Runner{Scale: scale, Seed: 7, Parallel: 2,
		Series: true}
	s.Attach(rn)
	rep := rn.Run([]string{"fig10"})
	if rep.Results[0].Error != "" {
		t.Fatalf("fig10 failed: %s", rep.Results[0].Error)
	}
	live := s.Snapshot()
	if live.PointsDone == 0 || live.Seq == 0 {
		t.Fatalf("no live snapshots published during the sweep: %+v", live)
	}
	if live.Done {
		t.Fatal("live snapshot marked Done before Finish")
	}
	if len(live.Probes) == 0 || len(live.Series) == 0 {
		t.Fatalf("live snapshot missing probes/series: %d/%d", len(live.Probes), len(live.Series))
	}
	s.Finish(rep)
	final := s.Snapshot()
	if !final.Done || final.VirtualNanos <= 0 {
		t.Fatalf("final snapshot %+v", final)
	}
	if len(final.Series) != len(rep.Results[0].Series) {
		t.Fatalf("final snapshot has %d series, report has %d",
			len(final.Series), len(rep.Results[0].Series))
	}
	if res, _ := get(t, s, "/v1/readyz"); res.StatusCode != 200 {
		t.Fatalf("/v1/readyz = %d after Finish", res.StatusCode)
	}
}

func TestStartServesOverTCP(t *testing.T) {
	s := New()
	s.Publish(testSnapshot(true))
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res, err := http.Get("http://" + addr.String() + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if res.StatusCode != 200 || !strings.Contains(string(body), "biza_sweep_done 1") {
		t.Fatalf("tcp /metrics: status %d body %q", res.StatusCode, body)
	}
	// pprof index must be mounted.
	res, err = http.Get("http://" + addr.String() + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, res.Body)
	res.Body.Close()
	if res.StatusCode != 200 {
		t.Fatalf("/debug/pprof/ = %d", res.StatusCode)
	}
}
