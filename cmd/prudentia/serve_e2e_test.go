package main

// End-to-end acceptance test for serve mode: build the real binary,
// boot the daemon on an ephemeral port, and require the serving
// contract — readiness gating, ETag revalidation, byte-identity between
// the daemon's text report and a batch run at the same seed, submission
// queuing, graceful SIGTERM drain, and the run directory's layout.

import (
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// startDaemon boots the serve-mode binary with the run directory state,
// logging into dir, and waits for readiness, returning the base URL and
// a stop function that SIGTERMs and reaps it.
func startDaemon(t *testing.T, bin, dir, state string, extra ...string) (string, *exec.Cmd, func() error) {
	t.Helper()
	addrFile := filepath.Join(state, "addr")
	args := append([]string{
		"-serve", "-serve-addr", "127.0.0.1:0", "-dir", state,
		"-cycles", "1", "-cycle-interval", "1h",
		"-setting", "high", "-seed", "42", "-workers", "2",
		"-services", "iPerf (Cubic),iPerf (BBR)",
	}, extra...)
	cmd := exec.Command(bin, args...)
	logf, err := os.Create(filepath.Join(dir, "daemon.log"))
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
		logf.Close()
	})

	var addr string
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			addr = strings.TrimSpace(string(b))
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	if addr == "" {
		t.Fatal("daemon never wrote its address to the run directory")
	}
	base := "http://" + addr
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		time.Sleep(100 * time.Millisecond)
	}
	stop := func() error {
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			return err
		}
		return cmd.Wait()
	}
	return base, cmd, stop
}

func TestServeEndToEndBinary(t *testing.T) {
	bin := buildBinary(t)
	dir := t.TempDir()
	state := filepath.Join(dir, "state")
	base, cmd, _ := startDaemon(t, bin, dir, state)
	client := &http.Client{Timeout: 10 * time.Second}

	fetch := func(path string) (*http.Response, string) {
		t.Helper()
		resp, err := client.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return resp, string(b)
	}

	// ETag revalidation on the JSON report.
	resp, _ := fetch("/api/v1/report")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("report = %d", resp.StatusCode)
	}
	etag := resp.Header.Get("Etag")
	req, _ := http.NewRequest(http.MethodGet, base+"/api/v1/report", nil)
	req.Header.Set("If-None-Match", etag)
	r2, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusNotModified {
		t.Fatalf("revalidation = %d, want 304", r2.StatusCode)
	}

	// The daemon's text report is byte-identical to a batch run at the
	// same seed (stdout filtered to the report block).
	_, daemonTxt := fetch("/api/v1/report.txt")
	batch := exec.Command(bin,
		"-cycles", "1", "-setting", "high", "-seed", "42", "-workers", "2",
		"-services", "iPerf (Cubic),iPerf (BBR)")
	out, err := batch.CombinedOutput()
	if err != nil {
		t.Fatalf("batch run: %v\n%s", err, out)
	}
	if i := strings.Index(string(out), "=== cycle"); i < 0 {
		t.Fatalf("batch output has no cycle banner:\n%s", out)
	} else if batchTxt := string(out[i:]); batchTxt != daemonTxt {
		t.Errorf("daemon report.txt != batch stdout:\n--- daemon\n%s\n--- batch\n%s", daemonTxt, batchTxt)
	}

	// Remaining read endpoints respond sensibly.
	if resp, body := fetch("/api/v1/heatmap"); resp.StatusCode != http.StatusOK ||
		!strings.Contains(body, `<table class="heatmap">`) {
		t.Errorf("heatmap = %d", resp.StatusCode)
	}
	if resp, _ := fetch("/api/v1/faults"); resp.StatusCode != http.StatusOK {
		t.Errorf("faults = %d", resp.StatusCode)
	}
	if resp, body := fetch("/api/v1/cycles"); resp.StatusCode != http.StatusOK ||
		!strings.Contains(body, `"latest": 1`) {
		t.Errorf("cycles = %d: %s", resp.StatusCode, body)
	}
	if _, body := fetch("/metrics"); !strings.Contains(body, "prudentia_http_requests_total") {
		t.Error("metrics missing http request counters")
	}

	// Submissions queue with a published access code.
	sub, err := client.Post(base+"/api/v1/submissions", "application/json",
		strings.NewReader(`{"url":"https://example.com/page","access_code":"KD4p1Z8Gs1SVPHUrTOVTMNHtvUnMSmvZ","tenant":"e2e"}`))
	if err != nil {
		t.Fatal(err)
	}
	sub.Body.Close()
	if sub.StatusCode != http.StatusAccepted {
		t.Errorf("submission = %d, want 202", sub.StatusCode)
	}

	// Graceful drain: SIGTERM flips /readyz to 503 ("draining") while
	// the listener still accepts — the window load balancers need to
	// stop routing here — then the daemon exits cleanly.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	sawDraining := false
	for deadline := time.Now().Add(3 * time.Second); time.Now().Before(deadline); {
		resp, err := client.Get(base + "/readyz")
		if err != nil {
			break // listener closed; the drain grace is over
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable && strings.Contains(string(b), "draining") {
			sawDraining = true
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !sawDraining {
		t.Error("readyz never reported 503 draining during the SIGTERM drain window")
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("daemon exit after SIGTERM: %v", err)
	}
	log, err := os.ReadFile(filepath.Join(dir, "daemon.log"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(log), "serve: drained and stopped") {
		t.Errorf("daemon log missing drain line:\n%s", log)
	}

	// The run directory holds the daemon's state and its address beside
	// the batch artifacts; the completed cycle left no header or journal
	// behind.
	requireDirFiles(t, state, append([]string{"addr", "cycles", "subs.wal"}, batchRunFiles...)...)
	if _, err := os.Stat(filepath.Join(state, "cycles", "1")); err != nil {
		t.Error(err)
	}
}
