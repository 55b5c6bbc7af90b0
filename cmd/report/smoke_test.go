package main

import (
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
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

	// With two trials the printed median is stats.Median (R-7: the mean
	// of the two), the rule every other surface prints — not the larger
	// share. Shares print rounded to a point, hence the slack of one.
	out, err = exec.Command(experiment,
		"-incumbent", "iPerf (Reno)", "-contender", "iPerf (Cubic)",
		"-setting", "highly", "-trials", "2", "-quick").CombinedOutput()
	if err != nil {
		t.Fatalf("experiment -trials 2: %v\n%s", err, out)
	}
	num := func(s string) float64 {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("parsing %q: %v\n%s", s, err, out)
		}
		return v
	}
	trials := regexp.MustCompile(`(?m)^trial +\d+: .* share +(\d+)% /`).FindAllStringSubmatch(string(out), -1)
	median := regexp.MustCompile(`median share (\d+)% /`).FindStringSubmatch(string(out))
	if len(trials) != 2 || median == nil {
		t.Fatalf("experiment -trials 2 printed %d trial lines and median %v:\n%s", len(trials), median, out)
	}
	a, b := num(trials[0][1]), num(trials[1][1])
	if math.Abs(a-b) < 4 {
		t.Fatalf("trial shares %v and %v are too close to tell a mean from a maximum; pick another seed", a, b)
	}
	if got := num(median[1]); math.Abs(got-(a+b)/2) > 1 {
		t.Errorf("median share of trials %v%% and %v%% printed as %v%%, want their mean", a, b, got)
	}
}
