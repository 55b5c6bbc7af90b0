package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	sorted := make([]int64, 1000)
	for i := range sorted {
		sorted[i] = int64(i + 1)
	}
	for _, tc := range []struct {
		q          float64
		want       int64
		wantBeyond int
	}{
		{0.50, 500, 500},
		{0.99, 990, 10},
		{0.999, 999, 1},
		{1.0, 1000, 0},
		{0, 1, 999},
	} {
		got, beyond := percentile(sorted, tc.q)
		if got != tc.want || beyond != tc.wantBeyond {
			t.Errorf("percentile(1..1000, %v) = %d with %d beyond, want %d with %d", tc.q, got, beyond, tc.want, tc.wantBeyond)
		}
	}
	if v, beyond := percentile(nil, 0.99); v != 0 || beyond != 0 {
		t.Errorf("percentile(empty) = %d, %d", v, beyond)
	}
	if v, beyond := percentile([]int64{7}, 0.99); v != 7 || beyond != 0 {
		t.Errorf("percentile(one sample) = %d, %d", v, beyond)
	}

	s := summarize([]int64{4000, 1000, 3000, 2000}, 2)
	if s.n != 4 || s.p50us != 2 || s.p90us != 4 || s.p95us != 4 || s.p99us != 4 || s.requestsPerSecond != 2 {
		t.Errorf("summarize = %+v", s)
	}
	if m := medianFloat([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("medianFloat = %v", m)
	}
}

func TestReduceTop(t *testing.T) {
	text, err := os.ReadFile("testdata/pprof_top.txt")
	if err != nil {
		t.Fatal(err)
	}
	top, err := reduceTop(string(text))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"sim": 1.49, "runtime": 0.40, "netem": 0.11, "cca": 0.22, "transport": 0.07,
		"services": 0.06, "core": 0.05, "syscall": 0.06, "nethttp": 0.03, "serve": 0.03,
		"bench": 0.03, "other": 0.03, "stats": 0.02, "obs": 0.02, "metrics": 0.02,
	}
	for layer, w := range want {
		if got := top.byLayer[layer]; math.Abs(got-w) > 1e-9 {
			t.Errorf("layer %s = %v s, want %v", layer, got, w)
		}
	}
	for layer := range top.byLayer {
		if _, ok := want[layer]; !ok {
			t.Errorf("unexpected layer %q", layer)
		}
	}
	if top.total != 2.64 || math.Abs(top.attributed()-2.64) > 1e-9 {
		t.Errorf("total %v, attributed %v, want 2.64", top.total, top.attributed())
	}
	if math.Abs(top.bbr-0.14) > 1e-9 {
		t.Errorf("BBR flat = %v, want 0.14", top.bbr)
	}
	if _, err := reduceTop("no rows here\n"); err == nil {
		t.Error("reduceTop accepted text without a total line")
	}
}

// TestContract holds the lists in metrics.go and workload.go to
// BENCHMARK.json: a name added on one side only would otherwise show
// up as a driver refusal.
func TestContract(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in workload.go", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.name || c.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, workload.go %q (or their why lines differ)", i, c.Workloads[i].Name, w.name)
		}
	}
	if len(c.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in metrics.go", len(c.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		if c.EndToEnd[i].Name != d.name || c.EndToEnd[i].Unit != d.unit {
			t.Errorf("end-to-end %d: BENCHMARK.json has %s [%s], metrics.go %s [%s]", i, c.EndToEnd[i].Name, c.EndToEnd[i].Unit, d.name, d.unit)
		}
		if b := c.EndToEnd[i].Bound; b <= 0 || b > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.name, b)
		}
	}
	if len(c.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in metrics.go", len(c.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if c.PerLayer[i].Name != d.name || c.PerLayer[i].Unit != d.unit {
			t.Errorf("per-layer %d: BENCHMARK.json has %s [%s], metrics.go %s [%s]", i, c.PerLayer[i].Name, c.PerLayer[i].Unit, d.name, d.unit)
		}
	}
}

// smoke shrinks a workload to two services and one cycle, with a
// second of reads and fifty submissions.
func smoke(w workload, reads time.Duration) (workload, scale) {
	w.services = []string{"iPerf (Cubic)", "iPerf (Reno)"}
	return w, scale{
		cycles: 1, readDur: reads, readWindows: 4, besideDur: 200 * time.Millisecond,
		submits: 50, submitBlock: 25, setupReps: 3, minSamples: 20, probes: 0.02,
	}
}

func runSmoke(t *testing.T, w workload, sc scale, seed uint64, traced bool) *result {
	t.Helper()
	res, err := runWorkload(w, runConfig{seed: seed, seconds: 1, traced: traced, outDir: "out", scale: sc})
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	for _, p := range res.Problems {
		t.Errorf("%s: output check failed: %s", w.name, p)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s: correct=%v failed=%d attempted=%d", w.name, res.Correct, res.Failed, res.Attempted)
	}
	return res
}

// TestWorkloadsSmoke runs every workload at smoke scale, untraced:
// runWorkload itself refuses a result with a metric missing, so what is
// left to assert is the unit, that nothing is zero, and that no
// operation failed.
func TestWorkloadsSmoke(t *testing.T) {
	for _, full := range workloads {
		w, sc := smoke(full, time.Second)
		res := runSmoke(t, w, sc, 1, false)
		for _, d := range endToEnd {
			m, ok := res.Metrics[d.name]
			if !ok || m.Unit != d.unit || !(m.Value > 0) {
				t.Errorf("%s: %s = %+v (present %v), want a positive value in %s", w.name, d.name, m, ok, d.unit)
			}
		}
		if res.Digest == "" || res.Counts.Verdicts != 3 {
			t.Errorf("%s: digest %q, %d verdicts", w.name, res.Digest, res.Counts.Verdicts)
		}
	}
}

// TestTracedSmoke runs the traced pass once: spans, both CPU profiles
// through `go tool pprof`, and every probe.
func TestTracedSmoke(t *testing.T) {
	full, _ := workloadByName("cycle8_adaptive_durable")
	w, sc := smoke(full, time.Second)
	res := runSmoke(t, w, sc, 1, true)
	for _, d := range perLayer {
		if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
			t.Errorf("%s = %+v (present %v), want unit %s", d.name, m, ok, d.unit)
		}
	}
	for _, name := range []string{"netem.packets_arrived", "core.trials_run", "journal.records", "sim.probe_dispatch_ns", "serve.handler_ns"} {
		if !(res.Metrics[name].Value > 0) {
			t.Errorf("%s = %v, want > 0", name, res.Metrics[name].Value)
		}
	}
	if st, err := os.Stat("out/trace-cycle8_adaptive_durable.jsonl"); err != nil || st.Size() == 0 {
		t.Errorf("span file: %v", err)
	}
}

// TestDigestDeterminism: the simulator is deterministic, so one seed
// gives one digest and another seed another.
func TestDigestDeterminism(t *testing.T) {
	full, _ := workloadByName("cycle8_fixed")
	w, sc := smoke(full, 100*time.Millisecond)
	a := runSmoke(t, w, sc, 1, false)
	b := runSmoke(t, w, sc, 1, false)
	c := runSmoke(t, w, sc, 2, false)
	if a.Digest != b.Digest || a.Counts != b.Counts {
		t.Errorf("seed 1 twice: digests %s and %s, counts %+v and %+v", a.Digest, b.Digest, a.Counts, b.Counts)
	}
	if a.Digest == c.Digest {
		t.Errorf("seeds 1 and 2 share the digest %s", a.Digest)
	}
}
