package obs

import (
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// TestNilSafety exercises every handle method on nil receivers and a nil
// registry — the contract that lets instrumented code run uninstrumented
// with zero branches at the call sites.
func TestNilSafety(t *testing.T) {
	var reg *Registry
	c := reg.Counter("x_total")
	g := reg.Gauge("x")
	h := reg.Histogram("x_seconds", ExpBuckets(1, 2, 4))
	if c != nil || g != nil || h != nil {
		t.Fatalf("nil registry must hand out nil handles, got %v %v %v", c, g, h)
	}
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatalf("nil counter value = %d", c.Value())
	}
	g.Set(3)
	g.SetMax(4)
	if g.Value() != 0 {
		t.Fatalf("nil gauge value = %g", g.Value())
	}
	h.Observe(1)
	if h.Sum() != 0 {
		t.Fatalf("nil histogram sum=%g", h.Sum())
	}
	snap := reg.Snapshot()
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", snap)
	}
	if out := reg.AppendPrometheus(nil); len(out) != 0 {
		t.Fatalf("nil registry exposition = %q, want empty", out)
	}
	ri := HTTPRoute(nil, "report")
	ri.Requests.Inc()
	ri.WallLatency.Observe(1)
	if ri.Requests.Value() != 0 {
		t.Fatal("nil-registry route counter recorded")
	}
}

func TestCounterAndGaugeSemantics(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c_total")
	c.Inc()
	c.Add(10)
	c.Add(-5) // ignored: counters only go up
	if got := c.Value(); got != 11 {
		t.Fatalf("counter = %d, want 11", got)
	}
	if reg.Counter("c_total") != c {
		t.Fatal("second lookup must return the same handle")
	}

	g := reg.Gauge("g")
	g.Set(2.5)
	g.SetMax(1.0) // below current: no change
	if got := g.Value(); got != 2.5 {
		t.Fatalf("gauge = %g, want 2.5", got)
	}
	g.SetMax(7.25)
	if got := g.Value(); got != 7.25 {
		t.Fatalf("gauge = %g, want 7.25", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("h_seconds", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100, math.NaN()} {
		h.Observe(v)
	}
	s := reg.Snapshot().Histograms["h_seconds"]
	// NaN is dropped; 0.5 and 1 land in le=1, 1.5 in le=2, 3 in le=4,
	// 100 in the overflow bucket.
	want := []int64{2, 1, 1, 1}
	if len(s.Counts) != len(want) {
		t.Fatalf("bucket count = %d, want %d", len(s.Counts), len(want))
	}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 5 {
		t.Fatalf("count = %d, want 5", s.Count)
	}
	if got, wantSum := s.Sum, 106.0; math.Abs(got-wantSum) > 1e-6 {
		t.Fatalf("sum = %g, want %g", got, wantSum)
	}
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if ExpBuckets(0, 2, 4) != nil || ExpBuckets(1, 1, 4) != nil || ExpBuckets(1, 2, 0) != nil {
		t.Fatal("degenerate layouts must return nil")
	}
}

// TestRegistryConcurrency hammers shared handles from many goroutines;
// run under -race this doubles as the data-race proof for the live
// worker-pool instrumentation path.
func TestRegistryConcurrency(t *testing.T) {
	reg := NewRegistry()
	const workers, perWorker = 16, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			// Resolve handles inside the goroutine too: first-use
			// registration must also be safe under contention.
			c := reg.Counter("shared_total")
			g := reg.Gauge("high_water")
			h := reg.Histogram("lat_seconds", ExpBuckets(0.001, 10, 6))
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.SetMax(float64(id*perWorker + i))
				h.Observe(float64(i) * 0.001)
				if i%100 == 0 {
					reg.Snapshot() // snapshots race against writers by design
				}
			}
		}(w)
	}
	wg.Wait()
	s := reg.Snapshot()
	if got := s.Counters["shared_total"]; got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := s.Gauges["high_water"]; got != float64(workers*perWorker-1) {
		t.Fatalf("gauge high water = %g, want %d", got, workers*perWorker-1)
	}
	if got := s.Histograms["lat_seconds"].Count; got != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", got, workers*perWorker)
	}
}

func TestPrometheusExposition(t *testing.T) {
	reg := NewRegistry()
	reg.Counter(`prudentia_chaos_episodes_total{kind="flap"}`).Add(3)
	reg.Counter(`prudentia_chaos_episodes_total{kind="sag"}`).Add(1)
	reg.Gauge("prudentia_pool_workers").Set(8)
	h := reg.Histogram("prudentia_trial_sim_seconds", []float64{1, 2})
	h.Observe(0.5)
	h.Observe(1.5)
	h.Observe(9)

	out := string(reg.AppendPrometheus(nil))
	for _, want := range []string{
		"# TYPE prudentia_chaos_episodes_total counter\n",
		`prudentia_chaos_episodes_total{kind="flap"} 3`,
		`prudentia_chaos_episodes_total{kind="sag"} 1`,
		"# TYPE prudentia_pool_workers gauge\n",
		"prudentia_pool_workers 8\n",
		"# TYPE prudentia_trial_sim_seconds histogram\n",
		`prudentia_trial_sim_seconds_bucket{le="1"} 1`,
		`prudentia_trial_sim_seconds_bucket{le="2"} 2`,
		`prudentia_trial_sim_seconds_bucket{le="+Inf"} 3`,
		"prudentia_trial_sim_seconds_sum 11\n",
		"prudentia_trial_sim_seconds_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// The labeled family must get exactly one TYPE line.
	if got := strings.Count(out, "# TYPE prudentia_chaos_episodes_total"); got != 1 {
		t.Fatalf("labeled family has %d TYPE lines, want 1:\n%s", got, out)
	}
}

func TestSnapshotEqualAndJSON(t *testing.T) {
	build := func() *Registry {
		reg := NewRegistry()
		reg.Counter("a_total").Add(2)
		reg.Gauge("b").Set(1.5)
		reg.Histogram("c_seconds", []float64{1}).Observe(0.5)
		return reg
	}
	s1, s2 := build().Snapshot(), build().Snapshot()
	if !reflect.DeepEqual(s1, s2) {
		t.Fatal("identical registries must produce equal snapshots")
	}
	var b strings.Builder
	if err := s1.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"a_total": 2`, `"b": 1.5`, `"c_seconds"`} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("JSON exposition missing %q:\n%s", want, b.String())
		}
	}
	build2 := build()
	build2.Counter("a_total").Inc()
	if reflect.DeepEqual(s1, build2.Snapshot()) {
		t.Fatal("diverged registries must not compare equal")
	}
}
