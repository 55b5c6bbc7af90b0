package main

// End-to-end tests of -sweep: a sweep is one watchdog cycle over its grid,
// so the worker count, the cycle flags and a SIGKILL with a resume leave
// its TSV/JSON artifacts byte-identical, its run directory holds what a
// cycle's does beside them, and every cycle flag has the effect it has
// for a cycle.

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"prudentia/internal/journal"
	"prudentia/internal/obs"
)

// sweepArgs is the shared seeded sweep: two cells at 8 Mbps over two
// baselines, run in the directory runDir.
func sweepArgs(runDir string, extra ...string) []string {
	return append([]string{
		"-sweep", "-sweep-rates", "8", "-sweep-rtts", "25,50", "-sweep-queues", "64",
		"-services", "iPerf (Cubic),iPerf (BBR)", "-seed", "7", "-dir", runDir,
	}, extra...)
}

// sweepRunFiles is what a completed sweep leaves in its run directory:
// a cycle's files and the two artifacts.
var sweepRunFiles = append([]string{"sweep.json", "sweep.tsv"}, batchRunFiles...)

// runSweepBin runs bin to completion and returns its stdout.
func runSweepBin(t *testing.T, bin string, args []string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("%q: %v\n%s%s", args, err, stdout.Bytes(), stderr.Bytes())
	}
	return stdout.String()
}

// sweepArtifacts reads a run directory's sweep.tsv and sweep.json.
func sweepArtifacts(t *testing.T, runDir string) (tsv, doc []byte) {
	t.Helper()
	tsv, err := os.ReadFile(filepath.Join(runDir, "sweep.tsv"))
	if err != nil {
		t.Fatal(err)
	}
	if doc, err = os.ReadFile(filepath.Join(runDir, "sweep.json")); err != nil {
		t.Fatal(err)
	}
	return tsv, doc
}

// requireSameSweep fails unless two runs wrote the same bytes.
func requireSameSweep(t *testing.T, what, got, want string) {
	t.Helper()
	gotTSV, gotJSON := sweepArtifacts(t, got)
	wantTSV, wantJSON := sweepArtifacts(t, want)
	if !bytes.Equal(gotTSV, wantTSV) {
		t.Errorf("%s: TSV differs:\n%s\nwant:\n%s", what, gotTSV, wantTSV)
	}
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Errorf("%s: JSON differs", what)
	}
}

// TestEndToEndSweepWorkers: the grid's cells are the cycle's settings,
// so one worker and four write the same artifacts, and a plain sweep's
// stdout is the run directory's fresh start and its one summary line.
func TestEndToEndSweepWorkers(t *testing.T) {
	bin := buildBinary(t)
	dir := t.TempDir()
	w1 := filepath.Join(dir, "w1")
	out := runSweepBin(t, bin, sweepArgs(w1, "-workers", "1"))
	if want := "no cycle to resume at " + filepath.Join(w1, "checkpoint.json") + "; starting fresh\n" +
		"sweep: 2 cells × 2 services → " + filepath.Join(w1, "sweep.tsv") + ", " +
		filepath.Join(w1, "sweep.json") + "\n"; out != want {
		t.Errorf("stdout = %q, want %q", out, want)
	}
	requireDirFiles(t, w1, sweepRunFiles...)
	runSweepBin(t, bin, sweepArgs(filepath.Join(dir, "w4"), "-workers", "4"))
	requireSameSweep(t, "-workers 4 against -workers 1", filepath.Join(dir, "w4"), w1)

	tsv, _ := sweepArtifacts(t, filepath.Join(dir, "w1"))
	lines := strings.Split(strings.TrimSuffix(string(tsv), "\n"), "\n")
	if lines[0] != sweepTSVHeader || len(lines) != 1+2*3*2 {
		t.Errorf("TSV has header %q and %d rows, want the schema and 12 (2 cells × 3 pairs × 2 slots)",
			lines[0], len(lines)-1)
	}
}

// TestEndToEndSweepCycleFlags: under -sweep each cycle flag does what it
// does for a cycle, and none of them moves the artifacts.
func TestEndToEndSweepCycleFlags(t *testing.T) {
	bin := buildBinary(t)
	dir := t.TempDir()
	submit := []string{"-submit", "https://example.com/p", "-code", accessCode}
	path := func(name string) string { return filepath.Join(dir, name) }
	runSweepBin(t, bin, sweepArgs(path("plain"), submit...))

	out := runSweepBin(t, bin, sweepArgs(path("run"), append(submit, "-workers", "2", "-v", "-chaos-disk", "7")...))
	requireSameSweep(t, "cycle flags against a plain sweep", path("run"), path("plain"))
	// -dir: the completed cycle keeps its header. -chaos-disk 7 tears
	// the journal's first fsync, so the journal was never created.
	requireDirFiles(t, path("run"), slices.DeleteFunc(slices.Clone(sweepRunFiles),
		func(f string) bool { return f == "trials.wal" })...)

	// -submit and -services: the catalog is the named services plus the page.
	var doc struct {
		Schema string
		CCAs   []string
		Cells  []struct {
			Pairs []struct {
				N       int
				Verdict string
			}
			MergedSharePct []float64 `json:"merged_share_pct"`
		}
	}
	if _, blob := sweepArtifacts(t, path("run")); json.Unmarshal(blob, &doc) != nil ||
		!slices.Equal(doc.CCAs, []string{"iPerf (Cubic)", "iPerf (BBR)", "https://example.com/p"}) {
		t.Errorf("sweep catalog = %q, want the -services list plus the -submit page", doc.CCAs)
	}
	// Each cell's merged shares are the ascending 2·n counted shares of
	// its pairs that did not fail.
	if doc.Schema != "prudentia.sweep/2" || len(doc.Cells) != 2 {
		t.Errorf("sweep.json schema %q with %d cells, want prudentia.sweep/2 with 2", doc.Schema, len(doc.Cells))
	}
	for i, cell := range doc.Cells {
		want := 0
		for _, p := range cell.Pairs {
			if p.Verdict != "failed" {
				want += 2 * p.N
			}
		}
		if want == 0 || len(cell.MergedSharePct) != want || !slices.IsSorted(cell.MergedSharePct) {
			t.Errorf("cell %d: merged_share_pct holds %d shares (ascending %v), want %d ascending",
				i, len(cell.MergedSharePct), slices.IsSorted(cell.MergedSharePct), want)
		}
	}
	for _, want := range []string{
		"accepted submission \"https://example.com/p\"",
		"no cycle to resume at " + path("run/checkpoint.json") + "; starting fresh",
		"  pair iPerf (Cubic) vs iPerf (BBR): ", // -v: the per-pair lines
	} {
		if !strings.Contains(out, want) {
			t.Errorf("stdout lacks %q:\n%s", want, out)
		}
	}

	// The manifest: the grid is the recipe's settings, the journal is
	// the one in -dir, and -chaos-disk 7 degraded it before it recorded
	// every attempt the counters saw start.
	m := readManifest(t, path("run/manifest.json"))
	settings, _ := m.Settings.([]any)
	if len(settings) != 2 || m.Cycle != 1 || m.Interrupted {
		t.Errorf("manifest: %d settings, cycle %d, interrupted %v; want the 2 grid cells of one completed cycle",
			len(settings), m.Cycle, m.Interrupted)
	}
	started := m.Metrics.Counters["prudentia_trials_started_total"]
	if m.Journal == nil || m.Journal.Path != path("run/trials.wal") || m.Journal.Records >= started {
		t.Errorf("manifest journal = %+v with %d trials started; want the -dir journal, short of records under -chaos-disk",
			m.Journal, started)
	}
	if c := m.Metrics.Counters; c["prudentia_pairs_completed_total"] != 12 || c["prudentia_calibrations_total"] != 6 {
		t.Errorf("2 cells × 3 services must complete 12 pairs and 6 calibrations: %v", c)
	}

	// The metric exposition, the timeline and the fault ledger.
	if prom, err := os.ReadFile(path("run/metrics.prom")); err != nil || !bytes.Contains(prom, []byte("# TYPE prudentia_trials_started_total counter")) {
		t.Errorf("metrics.prom: %v\n%s", err, prom)
	}
	f, err := os.Open(path("run/timeline.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := obs.ReadTimeline(f)
	if err != nil || len(events) == 0 || events[len(events)-1].Kind != "cycle_end" || events[len(events)-1].Detail != "completed" {
		t.Errorf("timeline: %v, %d events; want it to end with a completed cycle_end", err, len(events))
	}
	if _, err := os.Stat(path("run/faults.jsonl")); err != nil {
		t.Error(err)
	}
}

// TestEndToEndSweepKillResume SIGKILLs a -sweep -dir run once its
// journal holds a record; the rerun resumes the cycle and writes the
// artifacts of an uninterrupted run.
func TestEndToEndSweepKillResume(t *testing.T) {
	bin := buildBinary(t)
	dir := t.TempDir()
	grid := []string{"-sweep", "-sweep-rates", "8", "-sweep-rtts", "25,50", "-sweep-queues", "64,256",
		"-seed", "7", "-workers", "2"}
	runSweepBin(t, bin, slices.Concat(grid, []string{"-dir", filepath.Join(dir, "ref")}))

	run := filepath.Join(dir, "run")
	ckpt, wal := filepath.Join(run, "checkpoint.json"), filepath.Join(run, "trials.wal")
	args := slices.Concat(grid, []string{"-dir", run})
	cmd := exec.Command(bin, args...)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	deadline := time.Now().Add(time.Minute)
	for {
		// The first frame is the journal's schema header; a second one
		// is a recorded attempt.
		data, _ := os.ReadFile(wal)
		if payloads, _ := journal.ScanFrames(data); len(payloads) >= 2 {
			break
		}
		select {
		case err := <-done:
			t.Fatalf("sweep exited (%v) before its journal held a record", err)
		default:
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatal("journal never held a record")
		}
		time.Sleep(time.Millisecond)
	}
	cmd.Process.Kill()
	if err := <-done; err == nil {
		t.Fatal("sweep completed before the SIGKILL landed; widen the grid")
	}
	if _, err := os.Stat(filepath.Join(run, "sweep.tsv")); !os.IsNotExist(err) {
		t.Fatal("a killed sweep left its TSV behind")
	}

	out := runSweepBin(t, bin, args)
	if !strings.Contains(out, "resuming cycle 1 from "+ckpt) {
		t.Errorf("rerun did not resume:\n%s", out)
	}
	requireSameSweep(t, "killed and resumed against uninterrupted", run, filepath.Join(dir, "ref"))
	for _, p := range []string{ckpt, wal} {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("%s not kept after the resumed sweep completed: %v", p, err)
		}
	}
}
