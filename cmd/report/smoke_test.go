package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestExperimentThenReportSmoke drives the two small binaries end to
// end, as a user would: cmd/experiment exports one quick trial's CSV
// artifacts, cmd/report renders them back into sparklines.
func TestExperimentThenReportSmoke(t *testing.T) {
	bins := t.TempDir()
	build := func(name, pkg string) string {
		bin := filepath.Join(bins, name)
		if out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", pkg, err, out)
		}
		return bin
	}
	experiment, report := build("experiment", "../experiment"), build("report", ".")

	dir := filepath.Join(t.TempDir(), "artifacts")
	out, err := exec.Command(experiment,
		"-incumbent", "iPerf (Reno)", "-contender", "iPerf (Cubic)",
		"-trials", "1", "-quick", "-out", dir).CombinedOutput()
	if err != nil {
		t.Fatalf("experiment: %v\n%s", err, out)
	}
	for _, name := range []string{"queue.csv", "rate.csv"} {
		if fi, err := os.Stat(filepath.Join(dir, name)); err != nil || fi.Size() == 0 {
			t.Fatalf("experiment left no usable %s (err %v)\n%s", name, err, out)
		}
	}

	out, err = exec.Command(report, "-dir", dir).CombinedOutput()
	if err != nil {
		t.Fatalf("report: %v\n%s", err, out)
	}
	for _, header := range []string{"throughput (svc0 / svc1):", "bottleneck queue occupancy:"} {
		if !strings.Contains(string(out), header) {
			t.Errorf("report output lacks the %q sparkline:\n%s", header, out)
		}
	}
}
