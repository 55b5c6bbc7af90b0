package core_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"prudentia/internal/core"
	"prudentia/internal/netem"
	"prudentia/internal/report"
)

// matrixCapture is everything observable about one matrix run: the
// result, the fault-ledger stream, the progress lines (one per released
// pair, so they are also the release sequence), and a rendered heatmap. The parallel engine promises
// all of it is byte-identical for any worker count.
//
// This test is in package core_test (not core) because it renders
// through internal/report, which imports core.
type matrixCapture struct {
	res      []byte
	events   []byte
	progress []string
	heatmap  string
}

func runMatrixWorkers(t *testing.T, workers int) matrixCapture {
	t.Helper()
	opts := core.FastOptsForTest(netem.HighlyConstrained())
	opts.BaseSeed = 42
	opts.Chaos = core.HotChaosForTest()
	var events []core.FaultEvent
	var c matrixCapture
	m := core.MatrixForTest(&core.Watchdog{
		Services: core.ThreeServicesForTest(),
		Workers:  workers,
		OnFault:  func(ev core.FaultEvent) { events = append(events, ev) },
		Progress: func(format string, args ...any) {
			c.progress = append(c.progress, fmt.Sprintf(format, args...))
		},
	}, netem.HighlyConstrained(), opts)
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	var merr error
	c.res, merr = json.Marshal(res)
	if merr != nil {
		t.Fatal(merr)
	}
	c.events, merr = json.Marshal(events)
	if merr != nil {
		t.Fatal(merr)
	}
	c.heatmap = report.Heatmap("MmF share %", res.Names,
		func(inc, cont string) (float64, bool) { return res.SharePct(inc, cont) }, ".1f")
	return c
}

// TestMatrixParallelDeterminism is the tentpole acceptance criterion:
// the same chaos-enabled matrix run with 1, 2, 3, and 8 workers must
// produce byte-identical results, fault ledgers, release sequences
// (progress output), and rendered heatmaps. Run under -race via
// scripts/ci.sh this also proves the concurrent paths share no state.
func TestMatrixParallelDeterminism(t *testing.T) {
	base := runMatrixWorkers(t, 1)
	if len(base.progress) != 6 {
		t.Fatalf("serial run released %d pairs, want 6", len(base.progress))
	}
	for _, nw := range []int{2, 3, 8} {
		got := runMatrixWorkers(t, nw)
		if !bytes.Equal(base.res, got.res) {
			t.Errorf("workers=%d: MatrixResult differs from serial:\n%s\nvs\n%s", nw, base.res, got.res)
		}
		if !bytes.Equal(base.events, got.events) {
			t.Errorf("workers=%d: fault ledger differs from serial:\n%s\nvs\n%s", nw, base.events, got.events)
		}
		if fmt.Sprint(base.progress) != fmt.Sprint(got.progress) {
			t.Errorf("workers=%d: progress lines differ:\n%v\nvs\n%v", nw, got.progress, base.progress)
		}
		if base.heatmap != got.heatmap {
			t.Errorf("workers=%d: rendered heatmap differs:\n%s\nvs\n%s", nw, got.heatmap, base.heatmap)
		}
	}
}
