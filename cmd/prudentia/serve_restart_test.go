package main

// End-to-end crash-safety test for serve mode: SIGKILL the real daemon
// binary at randomized (seed-logged) points across restarts and require
// the survivors to converge on output byte-identical to an
// uninterrupted daemon — with an accepted submission surviving exactly
// once through the kills.

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"prudentia/internal/journal"
)

const restartSubmitURL = "https://example.com/kill-restart"

// e2eArtifactDir is where a test's daemon logs and state directories
// land: $PRUDENTIA_E2E_ARTIFACTS/<test> when set (CI keeps it for the
// failure upload), else a per-test temp dir.
func e2eArtifactDir(t *testing.T) string {
	if base := os.Getenv("PRUDENTIA_E2E_ARTIFACTS"); base != "" {
		dir := filepath.Join(base, t.Name())
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	return t.TempDir()
}

// restartServeArgs is the shared daemon workload: a two-cycle campaign
// over two baseline services with every durability file, and the bound
// address, in the run directory stateDir. The 3s inter-cycle pause is the window in which the test
// posts its submission, so it lands at the cycle-2 boundary in both the
// reference and the kill-loop runs.
func restartServeArgs(stateDir string) []string {
	return []string{
		"-serve", "-serve-addr", "127.0.0.1:0", "-dir", stateDir,
		"-cycles", "2", "-cycle-interval", "3s",
		"-setting", "high", "-seed", "42", "-workers", "2",
		"-services", "iPerf (Cubic),iPerf (BBR)",
	}
}

// startServeDaemon boots one daemon instance (without waiting for
// readiness) and returns its process and a logged output file.
func startServeDaemon(t *testing.T, bin string, args []string, logPath string) *exec.Cmd {
	t.Helper()
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
		logf.Close()
	})
	return cmd
}

// waitServeAddr polls <stateDir>/addr until the daemon publishes its
// bound address.
func waitServeAddr(t *testing.T, stateDir string) string {
	t.Helper()
	addrFile := filepath.Join(stateDir, "addr")
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			return "http://" + strings.TrimSpace(string(b))
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatal("daemon never wrote its address to the run directory")
	return ""
}

// waitLatestCycle polls /api/v1/cycles until the latest published cycle
// reaches want (or the deadline passes).
func waitLatestCycle(t *testing.T, base string, want int, timeout time.Duration) {
	t.Helper()
	client := &http.Client{Timeout: 2 * time.Second}
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if doc, ok := fetchCyclesDoc(client, base); ok && doc.Latest >= want {
			return
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("daemon never published cycle %d", want)
}

type cyclesDocLite struct {
	Latest   int `json:"latest"`
	Retained []struct {
		Cycle    int `json:"cycle"`
		Services int `json:"services"`
	} `json:"retained"`
}

func fetchCyclesDoc(client *http.Client, base string) (cyclesDocLite, bool) {
	var doc cyclesDocLite
	resp, err := client.Get(base + "/api/v1/cycles")
	if err != nil {
		return doc, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return doc, false
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return doc, false
	}
	return doc, true
}

// fetchBody GETs a path and returns its body, failing the test on any
// error or non-200.
func fetchBody(t *testing.T, base, path string) string {
	t.Helper()
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(base + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d:\n%s", path, resp.StatusCode, b)
	}
	return string(b)
}

// postRestartSubmission queues the test submission and requires the
// durable 202 with the cycle-2 application promise.
func postRestartSubmission(t *testing.T, base string) {
	t.Helper()
	client := &http.Client{Timeout: 10 * time.Second}
	body := fmt.Sprintf(`{"url":%q,"access_code":"KD4p1Z8Gs1SVPHUrTOVTMNHtvUnMSmvZ","tenant":"kill-e2e"}`, restartSubmitURL)
	resp, err := client.Post(base+"/api/v1/submissions", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submission = %d, want 202:\n%s", resp.StatusCode, b)
	}
	if !strings.Contains(string(b), `"applies_after_cycle": 1`) {
		t.Fatalf("submission must land at the cycle-2 boundary, got:\n%s", b)
	}
}

// auditSubsWAL parses the submission WAL's frames and counts accept and
// successful-apply records for the test URL. Compaction legitimately
// removes both once their cycle commits, so callers assert "never more
// than one", not "always exactly one".
func auditSubsWAL(t *testing.T, path string) (accepts, applies int) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, 0
		}
		t.Fatal(err)
	}
	frames, _ := journal.ScanFrames(data)
	if len(frames) == 0 {
		return 0, 0
	}
	var hdr struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(frames[0], &hdr); err != nil || hdr.Schema != "prudentia.subs/1" {
		t.Fatalf("submission wal header = %q (err %v)", frames[0], err)
	}
	var acceptSeq uint64
	for _, frame := range frames[1:] {
		var rec struct {
			Op  string `json:"op"`
			Seq uint64 `json:"seq"`
			URL string `json:"url"`
			OK  bool   `json:"ok"`
		}
		if err := json.Unmarshal(frame, &rec); err != nil {
			t.Fatalf("submission wal frame %q: %v", frame, err)
		}
		switch rec.Op {
		case "accept":
			if rec.URL == restartSubmitURL {
				accepts++
				acceptSeq = rec.Seq
			}
		case "apply":
			if rec.OK && accepts > 0 && rec.Seq == acceptSeq {
				applies++
			}
		}
	}
	return accepts, applies
}

// TestServeKillRestartLoop SIGKILLs a stateful daemon at randomized
// (seed-logged) points across at least five restarts. The surviving
// daemon's final artifacts must be byte-identical to an uninterrupted
// reference daemon at the same seed, and the submission accepted before
// the first kill must be applied exactly once — never lost, never
// doubled (a double application would duplicate its catalog service and
// change the report bytes).
func TestServeKillRestartLoop(t *testing.T) {
	if testing.Short() {
		t.Skip("kill-restart loop is slow")
	}
	bin := buildBinary(t)
	dir := e2eArtifactDir(t)

	// Reference: one uninterrupted daemon, same seed, same submission at
	// the same cycle boundary.
	refState := filepath.Join(dir, "ref-state")
	refCmd := startServeDaemon(t, bin, restartServeArgs(refState), filepath.Join(dir, "ref-daemon.log"))
	refBase := waitServeAddr(t, refState)
	waitLatestCycle(t, refBase, 1, 120*time.Second)
	postRestartSubmission(t, refBase)
	waitLatestCycle(t, refBase, 2, 120*time.Second)
	refReport := fetchBody(t, refBase, "/api/v1/report.txt")
	refCycles := fetchBody(t, refBase, "/api/v1/cycles")
	if err := refCmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := refCmd.Wait(); err != nil {
		t.Fatalf("reference daemon exit: %v", err)
	}

	// Kill loop. The seed is logged so any failure replays exactly.
	killSeed := time.Now().UnixNano()
	if env := os.Getenv("PRUDENTIA_KILL_SEED"); env != "" {
		var err error
		killSeed, err = strconv.ParseInt(env, 10, 64)
		if err != nil {
			t.Fatalf("PRUDENTIA_KILL_SEED: %v", err)
		}
	}
	t.Logf("kill-point seed: %d (re-run with PRUDENTIA_KILL_SEED=%d)", killSeed, killSeed)
	rng := rand.New(rand.NewSource(killSeed))

	state := filepath.Join(dir, "state")
	logPath := filepath.Join(dir, "daemon.log")
	walPath := filepath.Join(state, "subs.wal")

	cmd := startServeDaemon(t, bin, restartServeArgs(state), logPath)
	base := waitServeAddr(t, state)
	waitLatestCycle(t, base, 1, 120*time.Second)
	postRestartSubmission(t, base)

	const minKills = 5
	for kill := 1; kill <= minKills; kill++ {
		time.Sleep(time.Duration(50+rng.Intn(900)) * time.Millisecond)
		cmd.Process.Kill() // SIGKILL: no drain, no checkpoint flush beyond what fsync already made durable
		cmd.Wait()

		// Exactly-once, mid-crash: the WAL may hold the accept (still
		// pending or applied-but-uncommitted) or nothing (its cycle
		// committed and compaction removed it) — but never duplicates.
		accepts, applies := auditSubsWAL(t, walPath)
		if accepts > 1 || applies > 1 {
			t.Fatalf("after kill %d: %d accept / %d ok-apply records for %s in the WAL, want at most one of each",
				kill, accepts, applies, restartSubmitURL)
		}

		// The killed daemon's address is stale: wait for the new one.
		os.Remove(filepath.Join(state, "addr"))
		cmd = startServeDaemon(t, bin, restartServeArgs(state), logPath)
		base = waitServeAddr(t, state)
	}
	t.Logf("survived %d SIGKILLs; waiting for the campaign to converge", minKills)

	waitLatestCycle(t, base, 2, 180*time.Second)
	gotReport := fetchBody(t, base, "/api/v1/report.txt")
	gotCycles := fetchBody(t, base, "/api/v1/cycles")

	if gotReport != refReport {
		t.Errorf("post-restart report.txt differs from uninterrupted run:\n--- restarted ---\n%s\n--- reference ---\n%s", gotReport, refReport)
	}
	if gotCycles != refCycles {
		t.Errorf("post-restart cycles index differs from uninterrupted run:\n--- restarted ---\n%s\n--- reference ---\n%s", gotCycles, refCycles)
	}
	var doc cyclesDocLite
	if err := json.Unmarshal([]byte(gotCycles), &doc); err != nil {
		t.Fatal(err)
	}
	for _, entry := range doc.Retained {
		want := 2
		if entry.Cycle >= 2 {
			want = 3 // the submission joined exactly once
		}
		if entry.Services != want {
			t.Errorf("cycle %d catalog = %d services, want %d", entry.Cycle, entry.Services, want)
		}
	}

	// The restarts are visible in the log: recovery ran at least once.
	logBytes, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(logBytes), "serve: rehydrated cycles") {
		t.Errorf("daemon log never shows state rehydration:\n%s", logBytes)
	}
}

// TestServeDiskChaosSurvives runs a short stateful campaign with the
// -chaos-disk plan armed (injected ENOSPC, torn-tail fsyncs, fsync
// stalls on every durable writer) and requires the daemon to finish the
// campaign and serve a well-formed report anyway.
func TestServeDiskChaosSurvives(t *testing.T) {
	if testing.Short() {
		t.Skip("disk-chaos campaign is slow")
	}
	bin := buildBinary(t)
	dir := e2eArtifactDir(t)
	state := filepath.Join(dir, "state")
	args := append(restartServeArgs(state),
		"-chaos-disk", "7", "-cycle-interval", "-1ms", "-cycles", "1")
	cmd := startServeDaemon(t, bin, args, filepath.Join(dir, "daemon.log"))
	base := waitServeAddr(t, state)
	waitLatestCycle(t, base, 1, 180*time.Second)
	report := fetchBody(t, base, "/api/v1/report")
	if !strings.Contains(report, `"cycle": 1`) {
		t.Errorf("disk-chaos report malformed:\n%s", report)
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("daemon exit under disk chaos: %v", err)
	}
}
