package serve

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"prudentia/internal/obs"
)

// metricsServer is a daemon over reg with its real mux behind a real
// listener; /metrics needs no completed cycle.
func metricsServer(t *testing.T, reg *obs.Registry) (*Server, *httptest.Server) {
	t.Helper()
	s := newFakeServer(t, &fakeSource{}, func(c *Config) { c.Registry = reg })
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	return s, srv
}

// scrape performs one request against /metrics over the socket and
// checks what every reply of the route owes: the exposition content
// type, an explicit Content-Length that matches the body (one write, no
// chunked framing) and no ETag (the body changes between requests).
func scrape(t *testing.T, srv *httptest.Server, method string) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest(method, srv.URL+"/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s /metrics = %d", method, resp.StatusCode)
	}
	if got := resp.Header.Get("Content-Type"); got != obs.PrometheusContentType {
		t.Errorf("%s Content-Type = %q, want %q", method, got, obs.PrometheusContentType)
	}
	if resp.Header.Get("Content-Length") == "" || len(resp.TransferEncoding) != 0 {
		t.Errorf("%s reply has Content-Length %q, Transfer-Encoding %v; want a length and no chunking",
			method, resp.Header.Get("Content-Length"), resp.TransferEncoding)
	}
	if method == http.MethodGet && resp.ContentLength != int64(len(body)) {
		t.Errorf("GET Content-Length = %d, body is %d bytes", resp.ContentLength, len(body))
	}
	if etag := resp.Header.Get("Etag"); etag != "" {
		t.Errorf("%s /metrics carries ETag %s", method, etag)
	}
	return resp, string(body)
}

// TestMetricsRouteExposition: a real HTTP round-trip through /metrics
// carries the Prometheus text content type, exposes counters
// monotonically across two scrapes, and emits families in deterministic
// sorted order.
func TestMetricsRouteExposition(t *testing.T) {
	reg := obs.NewRegistry()
	_, srv := metricsServer(t, reg)
	ri := obs.HTTPRoute(reg, "report")
	ri.Requests.Add(3)
	ri.CacheHits.Add(2)
	ri.NotModified.Inc()
	ri.WallLatency.Observe(0.002)
	reg.Gauge("prudentia_serve_ready").Set(1)

	_, body := scrape(t, srv, http.MethodGet)
	for _, want := range []string{
		"# TYPE prudentia_http_requests_total counter\n",
		`prudentia_http_requests_total{route="report"} 3` + "\n",
		`prudentia_http_cache_hits_total{route="report"} 2` + "\n",
		`prudentia_http_not_modified_total{route="report"} 1` + "\n",
		"# TYPE prudentia_http_request_wall_seconds histogram\n",
		`prudentia_http_request_wall_seconds_count{route="report"} 1` + "\n",
		"# TYPE prudentia_serve_ready gauge\nprudentia_serve_ready 1\n",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("first scrape missing %q in:\n%s", want, body)
		}
	}

	// Monotonicity: bump between scrapes, re-scrape, counters move up and
	// only up.
	ri.Requests.Add(4)
	ri.CacheHits.Inc()
	_, body2 := scrape(t, srv, http.MethodGet)
	for _, want := range []string{
		`prudentia_http_requests_total{route="report"} 7` + "\n",
		`prudentia_http_cache_hits_total{route="report"} 3` + "\n",
		`prudentia_http_not_modified_total{route="report"} 1` + "\n",
	} {
		if !strings.Contains(body2, want) {
			t.Errorf("second scrape missing %q in:\n%s", want, body2)
		}
	}

	// Deterministic ordering: scraping the same state twice must yield
	// byte-identical expositions (the route itself is uninstrumented, so
	// a scrape does not move what it reads).
	_, a := scrape(t, srv, http.MethodGet)
	_, b := scrape(t, srv, http.MethodGet)
	if a != b {
		t.Errorf("same-state scrapes differ:\n%s\nvs\n%s", a, b)
	}
	// And each family's TYPE header comes before any of its samples.
	seenSample := map[string]bool{}
	for _, line := range strings.Split(a, "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			fam := strings.Fields(line)[2]
			if seenSample[fam] {
				t.Errorf("TYPE header for %s appears after its samples", fam)
			}
			continue
		}
		if line == "" {
			continue
		}
		name := line
		if i := strings.IndexAny(name, "{ "); i >= 0 {
			name = name[:i]
		}
		seenSample[name] = true
	}
}

// TestMetricsRouteMethodsAndNil covers the edges: HEAD answers with the
// headers of a GET, length included, and no body; other methods are
// rejected with Allow; a daemon without a registry serves an empty but
// well-formed exposition.
func TestMetricsRouteMethodsAndNil(t *testing.T) {
	_, srv := metricsServer(t, obs.NewRegistry())

	_, body := scrape(t, srv, http.MethodGet)
	head, headBody := scrape(t, srv, http.MethodHead)
	if headBody != "" {
		t.Errorf("HEAD returned a %d-byte body", len(headBody))
	}
	if head.ContentLength != int64(len(body)) || len(body) == 0 {
		t.Errorf("HEAD Content-Length = %d, GET body is %d bytes", head.ContentLength, len(body))
	}

	resp, err := http.Post(srv.URL+"/metrics", "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST = %d, want 405", resp.StatusCode)
	}
	if got := resp.Header.Get("Allow"); got != "GET, HEAD" {
		t.Errorf("Allow = %q", got)
	}

	_, bare := metricsServer(t, nil)
	if resp, body := scrape(t, bare, http.MethodGet); body != "" || resp.ContentLength != 0 {
		t.Errorf("nil registry scrape = %q (Content-Length %d), want empty", body, resp.ContentLength)
	}
}

// TestMetricsRouteLive: the exposition is encoded per request from the
// live handles, so what a client did is in its next scrape with no wait
// — a counter bumped in process, and a submission accepted over the
// socket.
func TestMetricsRouteLive(t *testing.T) {
	reg := obs.NewRegistry()
	s, srv := metricsServer(t, reg)

	for i := 1; i <= 3; i++ {
		s.cyclesPublished.Inc()
		want := fmt.Sprintf("prudentia_serve_cycles_published_total %d\n", i)
		if _, body := scrape(t, srv, http.MethodGet); !strings.Contains(body, want) {
			t.Fatalf("scrape after increment %d is missing %q", i, want)
		}
	}

	accepted := func() int {
		_, body := scrape(t, srv, http.MethodGet)
		const name = "prudentia_serve_submissions_accepted_total "
		i := strings.Index(body, "\n"+name)
		if i < 0 {
			t.Fatalf("no %sin:\n%s", name, body)
		}
		rest := body[i+1+len(name):]
		n, err := strconv.Atoi(rest[:strings.IndexByte(rest, '\n')])
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	before := accepted()
	resp, err := http.Post(srv.URL+"/api/v1/submissions", "application/json",
		strings.NewReader(`{"url":"https://example.com/x","access_code":"KD4p1Z8Gs1SVPHUrTOVTMNHtvUnMSmvZ","tenant":"t1"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submission = %d, want 202", resp.StatusCode)
	}
	if after := accepted(); after != before+1 {
		t.Errorf("accepted submissions went %d -> %d across one 202, want +1", before, after)
	}
}

// TestMetricsRouteAllocs is the handler's allocation gate: the buffer is
// pooled and the walk allocates nothing, so a scrape costs at most the
// two allocations of its Content-Length header value.
func TestMetricsRouteAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops a quarter of its Puts on purpose, so the buffer is not reliably reused")
	}
	s, _ := newPublishedServer(t, 42)
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	h, pattern := s.mux.Handler(req)
	if pattern == "" {
		t.Fatal("no handler")
	}
	w := newNullResponseWriter()
	h.ServeHTTP(w, req) // warm-up: sizes the pooled buffer and the header map
	if w.status != http.StatusOK || w.n == 0 {
		t.Fatalf("scrape = %d with %d bytes", w.status, w.n)
	}
	if n := testing.AllocsPerRun(200, func() { h.ServeHTTP(w, req) }); n > 2 {
		t.Errorf("/metrics allocates %.1f per request, want at most 2", n)
	}
}
