package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"prudentia/internal/core"
	"prudentia/internal/journal"
	"prudentia/internal/obs"
	"prudentia/internal/trace"
)

// newStatefulServer builds a server over a fresh real watchdog wired to
// dir-backed persistence.
func newStatefulServer(t *testing.T, seed uint64, dir string, mutate func(*Config)) *Server {
	t.Helper()
	ledger := &trace.FaultLedger{}
	w := testWatchdog(seed, ledger)
	cfg := Config{
		Source:        w,
		Ledger:        ledger,
		Registry:      obs.NewRegistry(),
		CycleInterval: -1,
		StateDir:      dir,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.wal.close() })
	return s
}

// TestStateRehydration: a daemon restarted over the same state dir
// serves the same cycles — byte-identical artifacts, equal ETags, ready
// immediately — and then continues the campaign with the next cycle
// number, producing bytes identical to a never-restarted daemon.
func TestStateRehydration(t *testing.T) {
	dir := t.TempDir()

	// First process: cycles 1 and 2.
	s1 := newStatefulServer(t, 42, dir, func(c *Config) { c.MaxCycles = 2 })
	if err := s1.campaign(context.Background()); err != nil {
		t.Fatal(err)
	}
	s1.wal.close()

	// Second process: same dir, fresh watchdog. Ready before any cycle
	// runs, with the first process's bytes.
	s2 := newStatefulServer(t, 42, dir, func(c *Config) { c.MaxCycles = 3 })
	if s2.Latest() != 2 {
		t.Fatalf("rehydrated latest = %d, want 2", s2.Latest())
	}
	if s2.startCycle != 3 {
		t.Fatalf("startCycle = %d, want 3", s2.startCycle)
	}
	if rec := get(t, s2.Handler(), "/readyz", nil); rec.Code != http.StatusOK {
		t.Fatalf("readyz after rehydration = %d, want 200", rec.Code)
	}
	for _, path := range []string{"/api/v1/report", "/api/v1/report.txt", "/api/v1/heatmap", "/api/v1/cycles"} {
		r1 := get(t, s1.Handler(), path, nil)
		r2 := get(t, s2.Handler(), path, nil)
		if !bytes.Equal(r1.Body.Bytes(), r2.Body.Bytes()) {
			t.Errorf("%s differs across restart", path)
		}
		if e1, e2 := r1.Header().Get("Etag"), r2.Header().Get("Etag"); e1 == "" || e1 != e2 {
			t.Errorf("%s ETag %q != %q across restart", path, e1, e2)
		}
	}

	// Continue the campaign: cycle 3 runs with continued numbering and
	// must match an uninterrupted 3-cycle daemon byte for byte.
	if err := s2.campaign(context.Background()); err != nil {
		t.Fatal(err)
	}
	if s2.Latest() != 3 {
		t.Fatalf("post-restart campaign reached cycle %d, want 3", s2.Latest())
	}

	uninterrupted := newStatefulServer(t, 42, t.TempDir(), func(c *Config) { c.MaxCycles = 3 })
	if err := uninterrupted.campaign(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/api/v1/report", "/api/v1/report.txt", "/api/v1/cycles"} {
		r1 := get(t, s2.Handler(), path, nil)
		r2 := get(t, uninterrupted.Handler(), path, nil)
		if !bytes.Equal(r1.Body.Bytes(), r2.Body.Bytes()) {
			t.Errorf("%s: restarted daemon diverged from uninterrupted run", path)
		}
	}
}

// TestAdaptiveDaemonResumesFixedHeader: a daemon restarted with adaptive
// budgets over the header a fixed-protocol process left in its state
// dir publishes that cycle on the first attempt: the header records no
// protocol, so the resumed cycle simply runs adaptive.
func TestAdaptiveDaemonResumesFixedHeader(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "checkpoint.json")
	if err := core.SaveCheckpoint(ckpt, &core.Checkpoint{Cycle: 1}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := newStatefulServer(t, 42, dir, func(c *Config) {
		c.MaxCycles = 1
		w := c.Source.(*core.Watchdog)
		w.CheckpointPath = ckpt
		w.Opts.Adaptive = &core.AdaptiveOptions{}
		// A failed attempt is retried forever; the first one ends the test.
		c.Log = func(format string, args ...any) {
			if strings.Contains(format, "cycle failed") {
				t.Logf(format, args...)
				cancel()
			}
		}
	})
	if err := s.campaign(ctx); err != nil {
		t.Fatalf("campaign = %v, want cycle 1 published", err)
	}
	if s.Latest() != 1 {
		t.Fatalf("latest = %d, want 1", s.Latest())
	}
	if m := get(t, s.Handler(), "/metrics", nil).Body.String(); !strings.Contains(m, "prudentia_serve_cycle_failures_total 0\n") {
		t.Fatalf("metrics do not show zero cycle failures:\n%s", m)
	}
	if _, err := os.Stat(ckpt); !os.IsNotExist(err) {
		t.Fatalf("header not removed after the resumed cycle published: %v", err)
	}
}

// TestDaemonRefusesFutureCheckpoint: a daemon whose state dir holds a
// checkpoint header written by a newer build runs no cycle over it. The
// header is the cycle's error, as it is the batch CLI's: the file stays
// byte-unchanged for the build that wrote it, no cycle publishes, and
// the log names the refusal.
func TestDaemonRefusesFutureCheckpoint(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "checkpoint.json")
	future := []byte(`{"schema":"prudentia.checkpoint/9","cycle":7}`)
	if err := os.WriteFile(ckpt, future, 0o644); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var log strings.Builder
	s := newStatefulServer(t, 42, dir, func(c *Config) {
		c.MaxCycles = 1
		c.Source.(*core.Watchdog).CheckpointPath = ckpt
		// A failed attempt is retried forever; the first one ends the test.
		c.Log = func(format string, args ...any) {
			fmt.Fprintf(&log, format+"\n", args...)
			if strings.Contains(format, "cycle failed") {
				cancel()
			}
		}
	})
	if err := s.campaign(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("campaign = %v, want the failed cycle retried until cancelled", err)
	}
	if got, err := os.ReadFile(ckpt); err != nil || !bytes.Equal(got, future) {
		t.Fatalf("future header changed: %q, %v", got, err)
	}
	if s.Latest() != 0 {
		t.Fatalf("published cycle %d over a future header", s.Latest())
	}
	if !strings.Contains(log.String(), journal.ErrFutureVersion.Error()) {
		t.Fatalf("log does not name the future version:\n%s", log.String())
	}
}

// TestStatePrune: disk mirrors the in-memory history ring — evicted
// cycles' directories are removed.
func TestStatePrune(t *testing.T) {
	dir := t.TempDir()
	s := newStatefulServer(t, 42, dir, func(c *Config) { c.History = 2; c.MaxCycles = 3 })
	if err := s.campaign(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "cycles", "1")); !os.IsNotExist(err) {
		t.Errorf("evicted cycle 1 still on disk (err %v)", err)
	}
	for _, n := range []int{2, 3} {
		if _, err := os.Stat(filepath.Join(dir, "cycles", strconv.Itoa(n), "meta.json")); err != nil {
			t.Errorf("retained cycle %d missing: %v", n, err)
		}
	}
}

// TestStateIncompleteCycleDirSkipped: a cycle directory missing its
// meta.json (impossible through the rename protocol, possible through
// outside interference) is skipped, not fatal, and does not block
// serving the cycles that are complete.
func TestStateIncompleteCycleDirSkipped(t *testing.T) {
	dir := t.TempDir()
	s := newStatefulServer(t, 42, dir, func(c *Config) { c.MaxCycles = 2 })
	if err := s.campaign(context.Background()); err != nil {
		t.Fatal(err)
	}
	s.wal.close()
	if err := os.Remove(filepath.Join(dir, "cycles", "2", "meta.json")); err != nil {
		t.Fatal(err)
	}

	s2 := newStatefulServer(t, 42, dir, nil)
	if s2.Latest() != 1 {
		t.Fatalf("latest after damaged cycle 2 = %d, want 1", s2.Latest())
	}
	var doc CyclesDoc
	rec := get(t, s2.Handler(), "/api/v1/cycles", nil)
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil || doc.Latest != 1 || len(doc.Retained) != 1 {
		t.Fatalf("cycles doc = %+v (err %v)", doc, err)
	}
}

// TestRetryAfterDerivesFromInterval: the Retry-After value on
// rate-limit and queue-full denials reflects the configured cycle
// interval (the earliest moment retrying can help), clamped to an hour.
func TestRetryAfterDerivesFromInterval(t *testing.T) {
	s := newFakeServer(t, &fakeSource{}, func(c *Config) {
		c.CycleInterval = 120 * 1e9 // 120s
		c.TenantBurst = 1
	})
	postSubmission(t, s, `{"url":"https://a.example","access_code":"c","tenant":"t"}`)
	rec := postSubmission(t, s, `{"url":"https://b.example","access_code":"c","tenant":"t"}`)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("over-budget = %d", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got != "120" {
		t.Errorf("Retry-After = %q, want 120 (the cycle interval)", got)
	}

	long := newFakeServer(t, &fakeSource{}, func(c *Config) { c.CycleInterval = 2 * 3600 * 1e9 })
	if long.retryAfter != "3600" {
		t.Errorf("2h interval Retry-After = %q, want clamped 3600", long.retryAfter)
	}
}
