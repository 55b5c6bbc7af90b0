package main

// End-to-end acceptance test for the observability surface: build the
// real binary, run a seeded cycle with every obs flag, and require the
// artifacts to exist, parse, and reconcile with each other.

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"prudentia/internal/obs"
)

// buildBinary compiles cmd/prudentia once per test run.
func buildBinary(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "prudentia")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// runCycle executes one seeded quick cycle over the two-baseline catalog
// with all observability sinks enabled, returning the artifact dir.
func runCycle(t *testing.T, bin string, seed string) string {
	t.Helper()
	dir := t.TempDir()
	cmd := exec.Command(bin,
		"-cycles", "1", "-setting", "high", "-workers", "4", "-seed", seed,
		"-services", "iPerf (Cubic),iPerf (BBR)",
		"-metrics-out", filepath.Join(dir, "metrics.prom"),
		"-timeline", filepath.Join(dir, "timeline.jsonl"),
		"-pprof-dir", filepath.Join(dir, "pprof"),
		"-faults-out", filepath.Join(dir, "faults.jsonl"),
	)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("prudentia run: %v\n%s", err, out)
	}
	return dir
}

func TestEndToEndObservabilityArtifacts(t *testing.T) {
	dir := runCycle(t, buildBinary(t), "42")

	// Manifest: schema, flag echo, and the reconciliation identity.
	m, err := obs.ReadManifest(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	if m.Schema != obs.ManifestSchema {
		t.Fatalf("manifest schema = %q", m.Schema)
	}
	if m.BaseSeed != 42 || m.Workers != 4 || m.Interrupted || m.ChaosEnabled {
		t.Fatalf("manifest envelope does not echo the flags: %+v", m)
	}
	if len(m.Services) != 2 || m.Services[0] != "iPerf (Cubic)" {
		t.Fatalf("manifest services = %v", m.Services)
	}
	c := m.Metrics.Counters
	started := c["prudentia_trials_started_total"]
	accounted := c["prudentia_trials_completed_total"] + c["prudentia_trials_failed_total"] +
		c["prudentia_trials_discarded_total"] + c["prudentia_trials_corrupt_total"]
	if started == 0 || started != accounted {
		t.Fatalf("trial ledger does not reconcile: started=%d, accounted=%d", started, accounted)
	}
	if c["prudentia_pairs_completed_total"] != 3 || c["prudentia_calibrations_total"] != 2 {
		t.Fatalf("2-service matrix must complete 3 pairs and 2 calibrations: %v", c)
	}
	if c["prudentia_netem_arrived_packets_total"] == 0 ||
		c["prudentia_netem_delivered_packets_total"] == 0 {
		t.Fatalf("netem counters empty: %v", c)
	}

	// Timeline: parses, and its trial events agree with the counters.
	f, err := os.Open(filepath.Join(dir, "timeline.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := obs.ReadTimeline(f)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int64{}
	for _, ev := range events {
		kinds[ev.Kind]++
	}
	if kinds["cycle_start"] != 1 || kinds["cycle_end"] != 1 {
		t.Fatalf("timeline framing: %v", kinds)
	}
	if kinds["trial_start"] != started {
		t.Fatalf("timeline trial_start=%d, manifest counter=%d", kinds["trial_start"], started)
	}
	if kinds["pair_done"] != 3 || kinds["calibration_done"] != 2 {
		t.Fatalf("timeline pair/calibration events: %v", kinds)
	}

	// Prometheus exposition: well-formed enough to contain the families.
	prom, err := os.ReadFile(filepath.Join(dir, "metrics.prom"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE prudentia_trials_started_total counter",
		"# TYPE prudentia_trial_sim_seconds histogram",
		`prudentia_trial_sim_seconds_bucket{le="+Inf"}`,
	} {
		if !strings.Contains(string(prom), want) {
			t.Fatalf("metrics.prom missing %q", want)
		}
	}

	// Profiles: both captured, non-empty.
	for _, name := range []string{"cycle1.cpu.pprof", "cycle1.heap.pprof"} {
		fi, err := os.Stat(filepath.Join(dir, "pprof", name))
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() == 0 {
			t.Fatalf("%s is empty", name)
		}
	}
}

// TestEndToEndSeededDeterminism: two runs of the same seeded cycle must
// produce identical metric snapshots once wall-clock metrics are
// stripped — the full-binary version of the core determinism test.
func TestEndToEndSeededDeterminism(t *testing.T) {
	bin := buildBinary(t)
	read := func(dir string) obs.Snapshot {
		m, err := obs.ReadManifest(filepath.Join(dir, "manifest.json"))
		if err != nil {
			t.Fatal(err)
		}
		return m.Metrics.StripWallClock()
	}
	a := read(runCycle(t, bin, "7"))
	b := read(runCycle(t, bin, "7"))
	if !a.Equal(b) {
		t.Fatal("identical seeded runs produced different metric snapshots")
	}
	if a.Counters["prudentia_trials_completed_total"] == 0 {
		t.Fatal("determinism check ran zero trials")
	}
}

// TestWriteMetricsKeepsOldFileOnFailure: -metrics-out is rewritten after
// every cycle while a textfile collector may be reading it, so the file
// is replaced atomically, in both formats. A write that fails (here the
// temp name journal.ReplaceFile stages under is taken by a directory)
// must return the error and leave the previous cycle's file whole,
// where truncating in place would already have emptied it.
func TestWriteMetricsKeepsOldFileOnFailure(t *testing.T) {
	for _, name := range []string{"metrics.prom", "metrics.json"} {
		path := filepath.Join(t.TempDir(), "out", name)
		reg := obs.NewRegistry()
		cycles := reg.Counter("cycles_total")
		cycles.Inc()
		if err := writeMetrics(path, reg); err != nil {
			t.Fatal(err)
		}
		first, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(first), "cycles_total") {
			t.Fatalf("%s after cycle 1 = %q", name, first)
		}
		if name == "metrics.prom" && string(first) != string(reg.AppendPrometheus(nil)) {
			t.Fatalf("%s = %q, want the registry's exposition", name, first)
		}

		tmp := filepath.Join(filepath.Dir(path), "."+name+".tmp")
		if err := os.Mkdir(tmp, 0o755); err != nil {
			t.Fatal(err)
		}
		cycles.Inc()
		if err := writeMetrics(path, reg); err == nil {
			t.Fatalf("%s: write with its temp name blocked reported no error", name)
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != string(first) {
			t.Fatalf("%s after a failed write = %q (err %v), want the previous file %q", name, got, err, first)
		}

		if err := os.Remove(tmp); err != nil {
			t.Fatal(err)
		}
		if err := writeMetrics(path, reg); err != nil {
			t.Fatal(err)
		}
		if got, _ := os.ReadFile(path); string(got) == string(first) {
			t.Fatalf("%s not replaced by the next successful write", name)
		}
	}
}
