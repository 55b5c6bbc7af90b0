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
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestDegradedModeServing: when cycles fail, reads never see a 5xx —
// the last good artifacts keep serving byte-identically, stamped with
// the staleness headers, the degraded flag in /api/v1/cycles, and the
// degraded metrics; a successful publish clears all of it.
func TestDegradedModeServing(t *testing.T) {
	src := &fakeSource{}
	s := newFakeServer(t, src, nil)
	if err := s.campaign(context.Background()); err != nil {
		t.Fatal(err)
	}
	healthy := get(t, s.Handler(), "/api/v1/report", nil)
	if h := healthy.Header(); h.Get("Warning") != "" || h.Get("X-Prudentia-Stale-Cycles") != "" {
		t.Fatalf("healthy response carries staleness headers: %v", h)
	}

	s.enterDegraded(2, errors.New("engine outage"))

	rec := get(t, s.Handler(), "/api/v1/report", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("degraded read = %d, want 200 (never 5xx while artifacts exist)", rec.Code)
	}
	if !bytes.Equal(rec.Body.Bytes(), healthy.Body.Bytes()) {
		t.Error("degraded mode changed the served bytes")
	}
	if e1, e2 := healthy.Header().Get("Etag"), rec.Header().Get("Etag"); e1 != e2 {
		t.Errorf("degraded mode changed the ETag: %q vs %q", e1, e2)
	}
	if w := rec.Header().Get("Warning"); w != `110 prudentia "Response is Stale"` {
		t.Errorf("Warning = %q", w)
	}
	if sc := rec.Header().Get("X-Prudentia-Stale-Cycles"); sc != "2" {
		t.Errorf("X-Prudentia-Stale-Cycles = %q, want 2", sc)
	}

	var doc CyclesDoc
	cyc := get(t, s.Handler(), "/api/v1/cycles", nil)
	if err := json.Unmarshal(cyc.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if !doc.Degraded || doc.StaleCycles != 2 || doc.Latest != 1 {
		t.Errorf("degraded cycles doc = %+v", doc)
	}
	// Still ready: the daemon is serving, just stale.
	if rec := get(t, s.Handler(), "/readyz", nil); rec.Code != http.StatusOK {
		t.Errorf("degraded readyz = %d, want 200", rec.Code)
	}
	metrics := get(t, s.Handler(), "/metrics", nil).Body.String()
	for _, want := range []string{"prudentia_serve_degraded 1", "prudentia_serve_stale_cycles 2", "prudentia_serve_cycle_failures_total 1"} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// Recovery: the next successful publish clears every signal.
	cr, err := src.RunCycle()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.publish(cr); err != nil {
		t.Fatal(err)
	}
	rec = get(t, s.Handler(), "/api/v1/report", nil)
	if h := rec.Header(); h.Get("Warning") != "" || h.Get("X-Prudentia-Stale-Cycles") != "" {
		t.Errorf("recovered response still stale: %v", h)
	}
	metrics = get(t, s.Handler(), "/metrics", nil).Body.String()
	if !strings.Contains(metrics, "prudentia_serve_degraded 0") {
		t.Error("degraded gauge not cleared after recovery")
	}
}

// TestCampaignRetriesFailedCycle: a failing cycle is retried (with
// backoff) under the same cycle number until it succeeds; the campaign
// completes its budget with no gap in the numbering. That holds for a
// cycle the engine failed and for one that ran but could not be
// published: the finished result is held and only the publish retried,
// so the engine is not asked for another cycle in between.
func TestCampaignRetriesFailedCycle(t *testing.T) {
	t.Run("engine fails twice", func(t *testing.T) {
		src := &fakeSource{failNext: 2}
		s := newFakeServer(t, src, func(c *Config) { c.MaxCycles = 1 })
		start := time.Now()
		if err := s.campaign(context.Background()); err != nil {
			t.Fatalf("campaign with transient failures = %v, want nil", err)
		}
		if src.failures != 2 || src.cycle != 1 {
			t.Fatalf("attempts = %d, published cycle = %d; want 2 failures then cycle 1", src.failures, src.cycle)
		}
		// Backoff before success: 100ms then 200ms (the CycleInterval<=0
		// floor doubled once).
		if elapsed := time.Since(start); elapsed < 250*time.Millisecond {
			t.Errorf("retries took %v, want >= ~300ms of backoff", elapsed)
		}
		if s.Latest() != 1 {
			t.Fatalf("latest = %d, want 1", s.Latest())
		}
	})
	t.Run("publish fails once", func(t *testing.T) {
		dir := t.TempDir()
		// A regular file where the artifacts directory belongs fails the
		// publish; the first failure report removes it.
		block := filepath.Join(dir, "cycles")
		failed := 0
		src := &fakeSource{}
		s := newFakeServer(t, src, func(c *Config) {
			c.MaxCycles = 2
			c.StateDir = dir
			c.Log = func(format string, _ ...any) {
				if strings.Contains(format, "cycle failed") {
					failed++
					os.Remove(block)
				}
			}
		})
		if err := os.WriteFile(block, nil, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := s.campaign(context.Background()); err != nil {
			t.Fatalf("campaign with a failed publish = %v, want nil", err)
		}
		if failed != 1 {
			t.Fatalf("publish failures reported = %d, want 1", failed)
		}
		// Two RunCycle calls for two published cycles: the one whose
		// publish failed was not run again, and no number was skipped.
		if src.cycle != 2 || s.Latest() != 2 {
			t.Fatalf("engine ran %d cycles, latest published = %d; want 2 and 2", src.cycle, s.Latest())
		}
		for _, n := range []int{1, 2} {
			if rec := get(t, s.Handler(), fmt.Sprintf("/api/v1/report?cycle=%d", n), nil); rec.Code != http.StatusOK {
				t.Fatalf("cycle %d = %d, want 200 (numbering must be contiguous)", n, rec.Code)
			}
		}
	})
}

// TestCampaignStopsDuringBackoff: cancellation during the failure
// backoff exits promptly instead of waiting the full backoff.
func TestCampaignStopsDuringBackoff(t *testing.T) {
	src := &fakeSource{failNext: 1 << 30}
	s := newFakeServer(t, src, func(c *Config) {
		c.MaxCycles = 1
		c.CycleInterval = time.Hour // backoff would be hours
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.campaign(ctx) }()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("campaign = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("campaign did not exit during backoff")
	}
}

// TestZeroAllocDegradedPath: the staleness headers are precomputed at
// cache-build time, so degraded-mode responses still allocate nothing
// on the hot path.
func TestZeroAllocDegradedPath(t *testing.T) {
	s, _ := newPublishedServer(t, 42)
	s.enterDegraded(3, errors.New("outage"))

	req := httptest.NewRequest(http.MethodGet, "/api/v1/report", nil)
	h, pattern := s.mux.Handler(req)
	if pattern == "" {
		t.Fatal("no handler")
	}
	w := newNullResponseWriter()
	h.ServeHTTP(w, req)
	if got := w.h.Get("X-Prudentia-Stale-Cycles"); got != "3" {
		t.Fatalf("stale header = %q", got)
	}
	if n := testing.AllocsPerRun(200, func() { h.ServeHTTP(w, req) }); n != 0 {
		t.Errorf("degraded hot path allocates %.1f per request, want 0", n)
	}
}

// TestDrainReadyz: once shutdown begins, /readyz answers 503
// ("draining") while the listener is still accepting — the window load
// balancers need to stop routing before connections fail.
func TestDrainReadyz(t *testing.T) {
	src := &fakeSource{}
	s := newFakeServer(t, src, func(c *Config) {
		c.MaxCycles = 1
		c.DrainGrace = 2 * time.Second
		c.DrainTimeout = time.Second
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- s.Run(ctx, ln) }()

	base := "http://" + ln.Addr().String()
	client := &http.Client{Timeout: 2 * time.Second}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := client.Get(base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("daemon never became ready")
		}
		time.Sleep(20 * time.Millisecond)
	}

	cancel()
	// Within the drain grace the listener still accepts and readyz
	// reports 503 draining.
	sawDraining := false
	deadline = time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := client.Get(base + "/readyz")
		if err != nil {
			break // listener closed; grace over
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable && strings.Contains(string(body), "draining") {
			sawDraining = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !sawDraining {
		t.Error("readyz never reported 503 draining during shutdown")
	}
	select {
	case err := <-runDone:
		if err != nil {
			t.Fatalf("Run = %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not finish draining")
	}
}
