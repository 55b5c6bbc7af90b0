package main

// End-to-end acceptance tests for the adaptive trial-budget flags: the
// -adaptive run produces the observability evidence (manifest flag,
// stop counters, saved-trials counter), and resuming from a pre-adaptive
// checkpoint falls back to fixed trials with a warning instead of
// failing the cycle.

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"prudentia/internal/core"
	"prudentia/internal/obs"
)

// TestEndToEndAdaptiveRun: -adaptive completes a cycle, stamps the
// manifest, and records stop reasons plus a positive trials-saved
// count.
func TestEndToEndAdaptiveRun(t *testing.T) {
	bin := buildBinary(t)
	dir := t.TempDir()
	cmd := exec.Command(bin,
		"-cycles", "1", "-setting", "high", "-workers", "2", "-seed", "11",
		"-services", "iPerf (Reno),iPerf (Cubic),iPerf (BBR)",
		"-adaptive",
		"-manifest", filepath.Join(dir, "manifest.json"))
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("adaptive run: %v\n%s", err, out)
	}
	m, err := obs.ReadManifest(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !m.AdaptiveEnabled {
		t.Fatal("manifest does not record adaptive mode")
	}
	c := m.Metrics.Counters
	stops := c[`prudentia_adaptive_stops_total{reason="ci_width"}`] +
		c[`prudentia_adaptive_stops_total{reason="verdict_stable"}`] +
		c[`prudentia_adaptive_stops_total{reason="budget"}`]
	if stops != c["prudentia_pairs_completed_total"] {
		t.Fatalf("every completed pair must record a stop reason: stops=%d pairs=%d",
			stops, c["prudentia_pairs_completed_total"])
	}
	if c["prudentia_adaptive_trials_saved_total"] == 0 {
		t.Fatal("adaptive run saved zero trials")
	}
	if c["prudentia_adaptive_screen_trials_total"] == 0 {
		t.Fatal("adaptive run recorded no screening trials")
	}
}

// TestEndToEndAdaptiveResumeFallback: resuming -adaptive from a
// checkpoint written before the budget field existed must not error
// out — the binary warns on stderr and finishes the cycle with fixed
// trials (regression test for the ErrCheckpointNoBudget path).
func TestEndToEndAdaptiveResumeFallback(t *testing.T) {
	bin := buildBinary(t)
	ckpt := filepath.Join(t.TempDir(), "state.json")
	// A fixed-mode (and hence pre-adaptive-shaped) checkpoint: cycle 1,
	// no budget state.
	pre := &core.Checkpoint{Cycle: 1}
	if pre.HasBudgetState() {
		t.Fatal("setup: checkpoint must not carry budget state")
	}
	if err := core.SaveCheckpoint(ckpt, pre); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin,
		"-cycles", "1", "-setting", "high", "-workers", "2", "-seed", "42",
		"-services", "iPerf (Cubic),iPerf (BBR)",
		"-adaptive", "-checkpoint", ckpt)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("fallback run failed: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "predates adaptive budgets") {
		t.Fatalf("no fallback warning in output:\n%s", out)
	}
	if !strings.Contains(string(out), "=== cycle") {
		t.Fatalf("fallback run produced no cycle report:\n%s", out)
	}
}
