package main

// End-to-end acceptance tests for the adaptive trial-budget flags: the
// -adaptive run produces the observability evidence (manifest flag,
// stop counters, saved-trials counter), and a cycle a plain run left
// behind resumes under -adaptive as if it had run that way throughout.

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
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
		"-dir", dir)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("adaptive run: %v\n%s", err, out)
	}
	m := readManifest(t, filepath.Join(dir, "manifest.json"))
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

// TestEndToEndCrossProtocolResume: a plain -dir run interrupted
// mid-cycle and rerun with -adaptive exits 0, warns about nothing, and
// reports exactly what an uninterrupted -adaptive run reports — the
// header records no protocol, and the resumed run screens for itself.
func TestEndToEndCrossProtocolResume(t *testing.T) {
	bin := buildBinary(t)
	args := cycleArgs("31")
	ref, err := exec.Command(bin, append(args, "-adaptive")...).Output()
	if err != nil {
		t.Fatalf("adaptive reference run: %v", err)
	}

	dir := t.TempDir()
	interruptPlainRun(t, bin, append(args, "-dir", dir), dir)

	cmd := exec.Command(bin, append(args, "-adaptive", "-dir", dir)...)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("adaptive resume: %v\n%s%s", err, out, stderr.String())
	}
	if stderr.Len() != 0 {
		t.Fatalf("adaptive resume of a plain run's header wrote to stderr:\n%s", stderr.String())
	}
	if !strings.Contains(string(out), "resuming cycle 1 from") {
		t.Fatalf("rerun did not resume:\n%s", out)
	}
	if got, want := cycleOutput(t, out), cycleOutput(t, ref); got != want {
		t.Fatalf("resumed report differs from an uninterrupted -adaptive run:\n--- resumed ---\n%s\n--- reference ---\n%s", got, want)
	}
}

// interruptPlainRun starts bin with args and sends one SIGINT as soon as
// its trial journal (in the run directory dir) holds a record, so the
// graceful stop lands mid-cycle and leaves the header behind.
func interruptPlainRun(t *testing.T, bin string, args []string, dir string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if fi, err := os.Stat(filepath.Join(dir, "trials.wal")); err == nil && fi.Size() > 0 {
			break
		}
	}
	cmd.Process.Signal(os.Interrupt)
	if err := cmd.Wait(); err != nil {
		t.Fatalf("interrupted run: %v\n%s", err, out.Bytes())
	}
	if !strings.Contains(out.String(), "interrupted; cycle state saved") {
		t.Fatalf("SIGINT did not land mid-cycle:\n%s", out.Bytes())
	}
}
