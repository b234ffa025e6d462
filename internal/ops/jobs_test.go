package ops

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"biza/internal/storerr"
)

// fakeSink is a minimal in-memory JobSink standing in for the admin
// gateway; it records calls and serves canned views.
type fakeSink struct {
	mu     sync.Mutex
	nextID uint64
	jobs   map[uint64]string // id -> state
	calls  []string
	err    error // forced error for the next mutating call
}

func newFakeSink() *fakeSink { return &fakeSink{jobs: map[uint64]string{}} }

func (f *fakeSink) SubmitJob(kind string, params []byte) (uint64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls = append(f.calls, "submit:"+kind)
	if f.err != nil {
		return 0, f.err
	}
	if kind != "replace" && kind != "scrub" {
		return 0, fmt.Errorf("unknown kind %q: %w", kind, storerr.ErrBadArgument)
	}
	f.nextID++
	f.jobs[f.nextID] = "pending"
	return f.nextID, nil
}

func (f *fakeSink) verb(name string, id uint64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls = append(f.calls, fmt.Sprintf("%s:%d", name, id))
	if f.err != nil {
		return f.err
	}
	if _, ok := f.jobs[id]; !ok {
		return fmt.Errorf("job %d: %w", id, storerr.ErrNotFound)
	}
	return nil
}

func (f *fakeSink) CancelJob(id uint64) error { return f.verb("cancel", id) }
func (f *fakeSink) PauseJob(id uint64) error  { return f.verb("pause", id) }
func (f *fakeSink) ResumeJob(id uint64) error { return f.verb("resume", id) }

func (f *fakeSink) JobJSON(id uint64) ([]byte, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	st, ok := f.jobs[id]
	if !ok {
		return nil, false
	}
	return []byte(fmt.Sprintf(`{"id":%d,"kind":"replace","state":%q,"progress":{"done":7,"total":9}}`, id, st)), true
}

func (f *fakeSink) JobsJSON() []byte {
	f.mu.Lock()
	defer f.mu.Unlock()
	var parts []string
	for id := uint64(1); id <= f.nextID; id++ {
		if st, ok := f.jobs[id]; ok {
			parts = append(parts, fmt.Sprintf(`{"id":%d,"kind":"replace","state":%q,"progress":{"done":7,"total":9}}`, id, st))
		}
	}
	return []byte("[" + strings.Join(parts, ",") + "]")
}

func do(t *testing.T, srv *Server, method, path, body string) (*http.Response, string) {
	t.Helper()
	var rd *strings.Reader
	if body == "" {
		rd = strings.NewReader("")
	} else {
		rd = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd)
	rw := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rw, req)
	res := rw.Result()
	b := rw.Body.String()
	return res, b
}

func TestJobRoutes(t *testing.T) {
	s := New()
	// No sink attached: the whole mutating surface answers 503.
	if res, _ := do(t, s, "POST", "/v1/jobs", `{"kind":"replace"}`); res.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST without sink = %d, want 503", res.StatusCode)
	}
	if res, _ := do(t, s, "GET", "/v1/jobs", ""); res.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("GET list without sink = %d, want 503", res.StatusCode)
	}

	sink := newFakeSink()
	s.SetJobs(sink)
	res, body := do(t, s, "POST", "/v1/jobs", `{"kind":"replace","params":{"device":1}}`)
	if res.StatusCode != http.StatusAccepted {
		t.Fatalf("POST = %d (%s), want 202", res.StatusCode, body)
	}
	if loc := res.Header.Get("Location"); loc != "/v1/jobs/1" {
		t.Fatalf("Location = %q", loc)
	}
	if !strings.Contains(body, `"id":1`) {
		t.Fatalf("create body = %s", body)
	}
	res, body = do(t, s, "GET", "/v1/jobs/1", "")
	if res.StatusCode != 200 || !strings.Contains(body, `"state":"pending"`) {
		t.Fatalf("GET job = %d %s", res.StatusCode, body)
	}
	res, body = do(t, s, "GET", "/v1/jobs", "")
	if res.StatusCode != 200 || !strings.HasPrefix(body, "[") {
		t.Fatalf("GET list = %d %s", res.StatusCode, body)
	}
	if res, _ := do(t, s, "POST", "/v1/jobs/1/pause", ""); res.StatusCode != http.StatusAccepted {
		t.Fatalf("pause = %d, want 202", res.StatusCode)
	}
	if res, _ := do(t, s, "POST", "/v1/jobs/1/resume", ""); res.StatusCode != http.StatusAccepted {
		t.Fatalf("resume = %d, want 202", res.StatusCode)
	}
	if res, _ := do(t, s, "DELETE", "/v1/jobs/1", ""); res.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel = %d, want 202", res.StatusCode)
	}
	want := []string{"submit:replace", "pause:1", "resume:1", "cancel:1"}
	if got := strings.Join(sink.calls, ","); got != strings.Join(want, ",") {
		t.Fatalf("sink calls = %s, want %s", got, strings.Join(want, ","))
	}

	// /metrics reflects the job list once a sink is attached.
	s.Publish(testSnapshot(false))
	_, metricsBody := do(t, s, "GET", "/v1/metrics", "")
	if !strings.Contains(metricsBody, `biza_admin_jobs{state="pending"} 1`) {
		t.Fatalf("metrics missing job family:\n%s", metricsBody)
	}
	if !strings.Contains(metricsBody, "biza_admin_rebuilt_stripes_total 7") {
		t.Fatalf("metrics missing rebuild progress:\n%s", metricsBody)
	}
}

// TestJobErrorMapping pins the storerr -> HTTP status contract.
func TestJobErrorMapping(t *testing.T) {
	s := New()
	sink := newFakeSink()
	s.SetJobs(sink)
	cases := []struct {
		err  error
		want int
	}{
		{storerr.ErrNotFound, http.StatusNotFound},
		{storerr.ErrBadArgument, http.StatusBadRequest},
		{storerr.ErrNotSupported, http.StatusNotImplemented},
		{storerr.ErrBusy, http.StatusConflict},
		{storerr.ErrWrongState, http.StatusConflict},
		{storerr.ErrExists, http.StatusConflict},
		{storerr.ErrNoSpace, http.StatusConflict},
	}
	for _, c := range cases {
		sink.err = fmt.Errorf("wrapped: %w", c.err)
		if res, body := do(t, s, "POST", "/v1/jobs", `{"kind":"replace"}`); res.StatusCode != c.want {
			t.Fatalf("%v -> %d (%s), want %d", c.err, res.StatusCode, body, c.want)
		}
	}
	sink.err = nil
	if res, _ := do(t, s, "GET", "/v1/jobs/999", ""); res.StatusCode != http.StatusNotFound {
		t.Fatal("unknown job id should 404")
	}
	if res, _ := do(t, s, "GET", "/v1/jobs/notanumber", ""); res.StatusCode != http.StatusBadRequest {
		t.Fatal("non-numeric job id should 400")
	}
	if res, _ := do(t, s, "POST", "/v1/jobs", `{nope`); res.StatusCode != http.StatusBadRequest {
		t.Fatal("malformed body should 400")
	}
}

// TestRouteAndMethodErrors: unknown paths — the unversioned spellings
// among them — 404; wrong methods 405.
func TestRouteAndMethodErrors(t *testing.T) {
	s := New()
	s.Publish(testSnapshot(true))
	if res, _ := do(t, s, "GET", "/no/such/route", ""); res.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown route = %d, want 404", res.StatusCode)
	}
	for _, path := range []string{"/metrics", "/vars", "/series", "/stream", "/healthz", "/readyz"} {
		if res, _ := do(t, s, "GET", path, ""); res.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s = %d, want 404", path, res.StatusCode)
		}
		if res, _ := do(t, s, "POST", "/v1"+path, ""); res.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("POST /v1%s = %d, want 405", path, res.StatusCode)
		}
		if res, _ := do(t, s, "GET", "/v1"+path, ""); res.StatusCode != 200 {
			t.Fatalf("GET /v1%s = %d, want 200", path, res.StatusCode)
		}
	}
	if res, _ := do(t, s, "DELETE", "/v1/jobs", ""); res.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE /v1/jobs = %d, want 405", res.StatusCode)
	}
}

// TestStreamClientDisconnect: a client dropping mid-stream must not wedge
// the handler; later publishes proceed normally.
func TestStreamClientDisconnect(t *testing.T) {
	s := New()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, "GET", ts.URL+"/v1/stream", nil)
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(res.Body)
	s.Publish(testSnapshot(false))
	found := false
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "data: ") {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no SSE event before disconnect")
	}
	cancel() // client walks away mid-stream
	res.Body.Close()

	// The server keeps serving: a fresh subscriber sees the next publish.
	s.Publish(testSnapshot(true))
	res2, err := http.Get(ts.URL + "/v1/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer res2.Body.Close()
	sc2 := bufio.NewScanner(res2.Body)
	got := false
	for sc2.Scan() {
		if strings.HasPrefix(sc2.Text(), "data: ") && strings.Contains(sc2.Text(), `"done":true`) {
			got = true
			break
		}
	}
	if !got {
		t.Fatal("fresh subscriber missed the final snapshot")
	}
}

// TestCloseRacesActiveStream: Server.Close while a stream is live (run
// under -race in CI). The stream must terminate rather than hang.
func TestCloseRacesActiveStream(t *testing.T) {
	s := New()
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	url := "http://" + addr.String()
	res, err := http.Get(url + "/v1/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		sc := bufio.NewScanner(res.Body)
		for sc.Scan() { // drain until the connection dies
		}
	}()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			s.Publish(testSnapshot(false))
		}
	}()
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	wg.Wait()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("stream reader still alive after Close")
	}
}

// TestReadyzLiveMode: a Live snapshot flips readiness without Done.
func TestReadyzLiveMode(t *testing.T) {
	s := New()
	if res, _ := do(t, s, "GET", "/v1/readyz", ""); res.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz = %d before anything, want 503", res.StatusCode)
	}
	s.Publish(Snapshot{Live: true})
	if res, _ := do(t, s, "GET", "/v1/readyz", ""); res.StatusCode != 200 {
		t.Fatalf("readyz = %d with live snapshot, want 200", res.StatusCode)
	}
}
