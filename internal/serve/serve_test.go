package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"prudentia/internal/core"
	"prudentia/internal/netem"
	"prudentia/internal/obs"
	"prudentia/internal/report"
	"prudentia/internal/services"
	"prudentia/internal/sim"
	"prudentia/internal/trace"
)

// fastOpts mirrors core's internal test protocol: tiny trials so a full
// cycle finishes in test time.
func fastOpts(net netem.Config) core.SchedulerOptions {
	o := core.PaperOptions(net)
	o.MinTrials, o.MaxTrials, o.Step = 2, 4, 2
	o.ToleranceMbps = 50
	o.Timing = func(s core.Spec) core.Spec {
		s.Duration, s.Warmup, s.Cooldown = 20*sim.Second, 4*sim.Second, 2*sim.Second
		return s
	}
	return o
}

// testWatchdog builds a two-service, one-setting watchdog with a fixed
// seed.
func testWatchdog(seed uint64) *core.Watchdog {
	w := core.NewWatchdog()
	w.Services = []services.Service{
		services.ByName("iPerf (Cubic)"),
		services.ByName("iPerf (BBR)"),
	}
	w.Settings = []netem.Config{netem.HighlyConstrained()}
	opts := fastOpts(w.Settings[0])
	opts.BaseSeed = seed
	w.Opts = opts
	return w
}

// newPublishedServer builds a server over a real watchdog, runs one
// cycle through the scheduler path, and returns it ready to serve.
func newPublishedServer(t *testing.T, seed uint64) (*Server, *core.Watchdog) {
	t.Helper()
	w := testWatchdog(seed)
	s, err := New(Config{
		Source:        w,
		Registry:      obs.NewRegistry(),
		CycleInterval: -1,
		MaxCycles:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.campaign(context.Background()); err != nil {
		t.Fatal(err)
	}
	return s, w
}

func get(t *testing.T, h http.Handler, path string, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestServeEndToEnd boots the full daemon — listener, scheduler, HTTP —
// over a real two-service watchdog, exercises every endpoint, and shuts
// it down gracefully.
func TestServeEndToEnd(t *testing.T) {
	w := &recordingSource{Watchdog: testWatchdog(42), results: make(chan *core.CycleResult, 1)}
	reg := obs.NewRegistry()
	s, err := New(Config{
		Source:        w,
		Registry:      reg,
		CycleInterval: -1,
		MaxCycles:     1,
		DrainTimeout:  2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- s.Run(ctx, ln) }()

	base := "http://" + ln.Addr().String()
	client := &http.Client{Timeout: 5 * time.Second}

	// healthz answers immediately; readyz flips once cycle 1 publishes.
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := client.Get(base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("daemon never became ready")
		}
		time.Sleep(50 * time.Millisecond)
	}

	fetch := func(path string) (*http.Response, []byte) {
		t.Helper()
		resp, err := client.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return resp, body
	}

	resp, body := fetch("/api/v1/report")
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/json" {
		t.Fatalf("report = %d %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	var doc report.ReportDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("report not valid JSON: %v", err)
	}
	if doc.Schema != report.ReportSchema || doc.Cycle != 1 || len(doc.Services) != 2 {
		t.Fatalf("report doc = %+v", doc)
	}
	etag := resp.Header.Get("Etag")
	if etag == "" {
		t.Fatal("report carries no ETag")
	}

	// Conditional revalidation: same ETag → 304 with no body.
	req, _ := http.NewRequest(http.MethodGet, base+"/api/v1/report", nil)
	req.Header.Set("If-None-Match", etag)
	resp2, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	b2, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotModified || len(b2) != 0 {
		t.Fatalf("revalidation = %d with %d body bytes, want 304 empty", resp2.StatusCode, len(b2))
	}

	// The text report is the exact batch rendering.
	_, txt := fetch("/api/v1/report.txt")
	cr := <-w.results
	want := report.ReportText(cr, w.SettingConfigs(), w.Catalog(), trace.Summary(cr.Faults))
	if string(txt) != want {
		t.Errorf("report.txt differs from batch rendering:\n%q\nvs\n%q", txt, want)
	}

	resp, body = fetch("/api/v1/heatmap")
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Errorf("heatmap Content-Type = %q", ct)
	}
	if !bytes.Contains(body, []byte(`<table class="heatmap">`)) {
		t.Error("heatmap page missing its table")
	}

	resp, _ = fetch("/api/v1/faults")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("faults = %d", resp.StatusCode)
	}

	_, body = fetch("/api/v1/cycles")
	var cycles CyclesDoc
	if err := json.Unmarshal(body, &cycles); err != nil || cycles.Latest != 1 || len(cycles.Retained) != 1 {
		t.Errorf("cycles doc = %+v (err %v)", cycles, err)
	}

	_, body = fetch("/metrics")
	for _, want := range []string{"prudentia_http_requests_total", "prudentia_serve_cycles_published_total 1"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// Submission is queued for a future cycle.
	sub, err := client.Post(base+"/api/v1/submissions", "application/json",
		strings.NewReader(`{"url":"https://example.com/x","access_code":"KD4p1Z8Gs1SVPHUrTOVTMNHtvUnMSmvZ","tenant":"t1"}`))
	if err != nil {
		t.Fatal(err)
	}
	sub.Body.Close()
	if sub.StatusCode != http.StatusAccepted {
		t.Errorf("submission = %d, want 202", sub.StatusCode)
	}

	cancel()
	select {
	case err := <-runDone:
		if err != nil {
			t.Fatalf("Run returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not drain after cancel")
	}
}

// TestServeDeterminism runs two independent daemons at the same seed
// and requires byte-identical artifacts and equal ETags for every
// cached endpoint — the property that lets CI diff a daemon against a
// batch run.
func TestServeDeterminism(t *testing.T) {
	s1, _ := newPublishedServer(t, 42)
	s2, _ := newPublishedServer(t, 42)
	for _, path := range []string{"/api/v1/report", "/api/v1/report.txt", "/api/v1/heatmap", "/api/v1/faults", "/api/v1/cycles"} {
		r1 := get(t, s1.Handler(), path, nil)
		r2 := get(t, s2.Handler(), path, nil)
		if !bytes.Equal(r1.Body.Bytes(), r2.Body.Bytes()) {
			t.Errorf("%s bodies differ across same-seed daemons", path)
		}
		if e1, e2 := r1.Header().Get("Etag"), r2.Header().Get("Etag"); e1 == "" || e1 != e2 {
			t.Errorf("%s ETags differ: %q vs %q", path, e1, e2)
		}
	}

	// A different seed must change the report (the ETag is load-bearing).
	s3, _ := newPublishedServer(t, 7)
	r1 := get(t, s1.Handler(), "/api/v1/report", nil)
	r3 := get(t, s3.Handler(), "/api/v1/report", nil)
	if r1.Header().Get("Etag") == r3.Header().Get("Etag") {
		t.Error("different seeds produced identical report ETags")
	}
}

// recordingSource runs a real watchdog and hands each cycle it returns
// to the test, which keeps no results of its own.
type recordingSource struct {
	*core.Watchdog
	results chan *core.CycleResult
}

func (r *recordingSource) RunCycle() (*core.CycleResult, error) {
	cr, err := r.Watchdog.RunCycle()
	if cr != nil {
		r.results <- cr
	}
	return cr, err
}

// fakeSource is a CycleSource stub for scheduler/handler unit tests.
// Setting failNext makes the next N RunCycle calls fail (without
// advancing the cycle number), mimicking an engine mid-outage.
type fakeSource struct {
	cycle     int
	submitted []string
	failNext  int
	failures  int
}

func (f *fakeSource) RunCycle() (*core.CycleResult, error) {
	if f.failNext > 0 {
		f.failNext--
		f.failures++
		return nil, errors.New("fake: cycle blew up")
	}
	f.cycle++
	return &core.CycleResult{Cycle: f.cycle}, nil
}
func (f *fakeSource) SettingConfigs() []netem.Config { return nil }
func (f *fakeSource) Catalog() []services.Service    { return nil }
func (f *fakeSource) Submit(url, code string) error {
	f.submitted = append(f.submitted, url)
	return nil
}

func newFakeServer(t *testing.T, src *fakeSource, mutate func(*Config)) *Server {
	t.Helper()
	cfg := Config{
		Source:        src,
		Registry:      obs.NewRegistry(),
		CycleInterval: -1,
		MaxCycles:     1,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestHistoryRing publishes more cycles than the ring retains and
// checks eviction, ?cycle=N addressing, and the index document.
func TestHistoryRing(t *testing.T) {
	src := &fakeSource{}
	s := newFakeServer(t, src, func(c *Config) { c.History = 2; c.MaxCycles = 3 })
	if err := s.campaign(context.Background()); err != nil {
		t.Fatal(err)
	}

	if rec := get(t, s.Handler(), "/api/v1/report?cycle=1", nil); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("evicted cycle 1 = %d, want 503", rec.Code)
	}
	for _, n := range []int{2, 3} {
		rec := get(t, s.Handler(), fmt.Sprintf("/api/v1/report?cycle=%d", n), nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("cycle %d = %d, want 200", n, rec.Code)
		}
		var doc report.ReportDoc
		if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil || doc.Cycle != n {
			t.Errorf("cycle %d doc = %+v (err %v)", n, doc, err)
		}
	}
	// The latest cycle serves on the fast path and via its number, with
	// the same bytes.
	latest := get(t, s.Handler(), "/api/v1/report", nil)
	byNum := get(t, s.Handler(), "/api/v1/report?cycle=3", nil)
	if !bytes.Equal(latest.Body.Bytes(), byNum.Body.Bytes()) {
		t.Error("latest fast path and ?cycle=3 disagree")
	}

	var cycles CyclesDoc
	rec := get(t, s.Handler(), "/api/v1/cycles", nil)
	if err := json.Unmarshal(rec.Body.Bytes(), &cycles); err != nil {
		t.Fatal(err)
	}
	if cycles.Latest != 3 || len(cycles.Retained) != 2 ||
		cycles.Retained[0].Cycle != 2 || cycles.Retained[1].Cycle != 3 {
		t.Errorf("cycles doc = %+v", cycles)
	}

	// Junk queries are a miss, not a panic.
	if rec := get(t, s.Handler(), "/api/v1/report?cycle=banana", nil); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("junk query = %d, want 503", rec.Code)
	}
}

// TestReadinessAndMethods covers the not-ready window and method
// rejection.
func TestReadinessAndMethods(t *testing.T) {
	s := newFakeServer(t, &fakeSource{}, nil)

	if rec := get(t, s.Handler(), "/readyz", nil); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("readyz before first cycle = %d, want 503", rec.Code)
	}
	if rec := get(t, s.Handler(), "/healthz", nil); rec.Code != http.StatusOK {
		t.Errorf("healthz = %d", rec.Code)
	}
	if rec := get(t, s.Handler(), "/api/v1/report", nil); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("report before first cycle = %d, want 503", rec.Code)
	}

	if err := s.campaign(context.Background()); err != nil {
		t.Fatal(err)
	}
	if rec := get(t, s.Handler(), "/readyz", nil); rec.Code != http.StatusOK {
		t.Errorf("readyz after first cycle = %d, want 200", rec.Code)
	}

	req := httptest.NewRequest(http.MethodDelete, "/api/v1/report", nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed || rec.Header().Get("Allow") != "GET, HEAD" {
		t.Errorf("DELETE report = %d Allow %q", rec.Code, rec.Header().Get("Allow"))
	}
	req = httptest.NewRequest(http.MethodGet, "/api/v1/submissions", nil)
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed || rec.Header().Get("Allow") != "POST" {
		t.Errorf("GET submissions = %d Allow %q", rec.Code, rec.Header().Get("Allow"))
	}
}

// TestZeroAllocHotPath pins the cached read path's allocation budget to
// exactly zero for every cached handler: the JSON report, the text
// report, the heatmap and the cycles index on a hit, and the 304
// revalidation.
func TestZeroAllocHotPath(t *testing.T) {
	s, _ := newPublishedServer(t, 42)

	for _, tc := range []struct {
		name, path, etagOf string
	}{
		{"report-hit", "/api/v1/report", ""},
		{"report-txt-hit", "/api/v1/report.txt", ""},
		{"heatmap-hit", "/api/v1/heatmap", ""},
		{"cycles-hit", "/api/v1/cycles", ""},
		{"report-304", "/api/v1/report", "/api/v1/report"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			req := httptest.NewRequest(http.MethodGet, tc.path, nil)
			if tc.etagOf != "" {
				etag := get(t, s.Handler(), tc.etagOf, nil).Header().Get("Etag")
				req.Header.Set("If-None-Match", etag)
			}
			h, pattern := s.mux.Handler(req)
			if pattern == "" {
				t.Fatal("no handler")
			}
			w := newNullResponseWriter()
			// Warm-up, then measure.
			h.ServeHTTP(w, req)
			if n := testing.AllocsPerRun(200, func() { h.ServeHTTP(w, req) }); n != 0 {
				t.Errorf("%s allocates %.1f per request, want 0", tc.name, n)
			}
		})
	}
}

// nullResponseWriter is the benchmark/alloc-test sink: a reusable
// ResponseWriter whose header map persists across requests (mirroring
// net/http's per-connection header reuse) and whose body writes are
// discarded.
type nullResponseWriter struct {
	h      http.Header
	status int
	n      int
}

func newNullResponseWriter() *nullResponseWriter {
	return &nullResponseWriter{h: make(http.Header, 8)}
}

func (w *nullResponseWriter) Header() http.Header { return w.h }
func (w *nullResponseWriter) WriteHeader(code int) {
	w.status = code
}
func (w *nullResponseWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

var _ io.Writer = (*nullResponseWriter)(nil)
