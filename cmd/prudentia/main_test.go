package main

// End-to-end acceptance test for the observability surface: build the
// real binary, run a seeded cycle with a run directory, and require its
// artifacts to exist, parse, and reconcile with each other.

import (
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"slices"
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
// with a run directory, which enables every observability sink, and
// returns that directory.
func runCycle(t *testing.T, bin string, seed string) string {
	t.Helper()
	dir := t.TempDir()
	cmd := exec.Command(bin,
		"-cycles", "1", "-setting", "high", "-workers", "4", "-seed", seed,
		"-services", "iPerf (Cubic),iPerf (BBR)",
		"-dir", dir,
	)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("prudentia run: %v\n%s", err, out)
	}
	return dir
}

// deterministic drops the metrics that time this host: by convention each
// carries "wall" in its name. What remains is a pure function of the
// seeded work, so reruns and worker counts must agree on it.
func deterministic(s obs.Snapshot) obs.Snapshot {
	wall := func(name string) bool { return strings.Contains(name, "wall") }
	maps.DeleteFunc(s.Counters, func(k string, _ int64) bool { return wall(k) })
	maps.DeleteFunc(s.Gauges, func(k string, _ float64) bool { return wall(k) })
	maps.DeleteFunc(s.Histograms, func(k string, _ obs.HistogramSnapshot) bool { return wall(k) })
	return s
}

// batchRunFiles is what a completed batch cycle leaves in its run
// directory; the header and the journal stay with the cycle.
var batchRunFiles = []string{"checkpoint.json", "faults.jsonl", "manifest.json", "metrics.prom", "timeline.jsonl", "trials.wal"}

// requireDirFiles fails unless dir holds exactly the named entries: a
// run writes every file into its run directory and nothing else there.
func requireDirFiles(t *testing.T, dir string, want ...string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range entries {
		got = append(got, e.Name())
	}
	want = slices.Clone(want)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Errorf("%s holds %q, want %q", dir, got, want)
	}
}

// readManifest decodes a manifest the binary wrote.
func readManifest(t *testing.T, path string) obs.Manifest {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m obs.Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("parse manifest %s: %v", path, err)
	}
	return m
}

func TestEndToEndObservabilityArtifacts(t *testing.T) {
	dir := runCycle(t, buildBinary(t), "42")
	requireDirFiles(t, dir, batchRunFiles...)

	// Manifest: schema, flag echo, and the reconciliation identity.
	m := readManifest(t, filepath.Join(dir, "manifest.json"))
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

	// Written beside the manifest from the same registry, it carries the
	// manifest's counters.
	for name, v := range c {
		if line := fmt.Sprintf("\n%s %d\n", name, v); !strings.Contains(string(prom), line) {
			t.Errorf("metrics.prom lacks the manifest's %q", strings.TrimSpace(line))
		}
	}
}

// TestEndToEndSeededDeterminism: two runs of the same seeded cycle must
// produce identical metric snapshots once wall-clock metrics are
// stripped — the full-binary version of the core determinism test.
func TestEndToEndSeededDeterminism(t *testing.T) {
	bin := buildBinary(t)
	read := func(dir string) obs.Snapshot {
		m := readManifest(t, filepath.Join(dir, "manifest.json"))
		return deterministic(m.Metrics)
	}
	a := read(runCycle(t, bin, "7"))
	b := read(runCycle(t, bin, "7"))
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical seeded runs produced different metric snapshots")
	}
	if a.Counters["prudentia_trials_completed_total"] == 0 {
		t.Fatal("determinism check ran zero trials")
	}
}
