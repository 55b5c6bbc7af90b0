package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"prudentia"
)

// TestPairSubcommand: `prudentia pair` prints the medians prudentia.Run
// returns for the same fields — one protocol path, one answer — whether
// or not -out samples its first counted trial, and -out leaves both CSV
// series and prints both sparklines.
func TestPairSubcommand(t *testing.T) {
	want, err := prudentia.Run(prudentia.Experiment{Incumbent: "iPerf (Reno)", Contender: "iPerf (Cubic)",
		Setting: prudentia.HighlyConstrained, Trials: 3, Quick: true, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	args := []string{"pair", "-incumbent", "iPerf (Reno)", "-contender", "iPerf (Cubic)",
		"-setting", "highly", "-trials", "3", "-seed", "7"}
	dir := filepath.Join(t.TempDir(), "artifacts")
	for _, argv := range [][]string{args, slices.Concat(args, []string{"-out", dir})} {
		cfg, err := parseConfig(argv)
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := run(cfg, &out, io.Discard); err != nil {
			t.Fatalf("%q: %v", argv, err)
		}
		got := out.String()
		for slot, name := range []string{want.Incumbent, want.Contender} {
			row := fmt.Sprintf(`(?m)^%d +%s +%s +%s `, slot, regexp.QuoteMeta(name),
				regexp.QuoteMeta(fmt.Sprintf("%.2f", want.MedianMbps[slot])),
				regexp.QuoteMeta(fmt.Sprintf("%.1f%%", want.MedianSharePct[slot])))
			if !regexp.MustCompile(row).MatchString(got) {
				t.Errorf("%q: no row for slot %d matching %s (prudentia.Run's medians):\n%s", argv, slot, row, got)
			}
		}
		if line := fmt.Sprintf("trials: %d counted, 0 discarded", want.Trials); !strings.Contains(got, line) {
			t.Errorf("%q: output lacks %q:\n%s", argv, line, got)
		}
		if len(argv) == len(args) {
			continue
		}
		for _, name := range []string{"queue.csv", "rate.csv"} {
			if fi, err := os.Stat(filepath.Join(dir, name)); err != nil || fi.Size() == 0 {
				t.Errorf("-out left no usable %s (err %v)", name, err)
			}
		}
		for _, title := range []string{"throughput (svc0 / svc1):", "bottleneck queue occupancy:"} {
			if !strings.Contains(got, title) {
				t.Errorf("-out printed no %q sparkline:\n%s", title, got)
			}
		}
	}
}
