package obs

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// oracleText renders reg through the snapshot writer of oracle_test.go.
func oracleText(t *testing.T, reg *Registry) string {
	t.Helper()
	var b bytes.Buffer
	if err := reg.Snapshot().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// randomRegistry fills a registry from rng with the shapes the encoder
// has to get right: labeled and unlabeled names sharing a family (and
// one family shared across kinds, which gets a single TYPE header),
// labeled histograms, histograms with no finite bound and with an
// explicit +Inf bound, and gauges holding +Inf, -Inf and NaN.
func randomRegistry(rng *rand.Rand) *Registry {
	reg := NewRegistry()
	label := func() string {
		switch rng.Intn(3) {
		case 0:
			return ""
		case 1:
			return fmt.Sprintf(`{route="r%d"}`, rng.Intn(4))
		}
		return fmt.Sprintf(`{route="r%d",kind="k%d"}`, rng.Intn(4), rng.Intn(3))
	}
	for i, n := 0, rng.Intn(12); i < n; i++ {
		reg.Counter(fmt.Sprintf("fam%d_total%s", rng.Intn(5), label())).Add(rng.Int63n(1 << 40))
	}
	specials := []float64{math.Inf(1), math.Inf(-1), math.NaN(), 0, -0.5, 1e21, 1e-7}
	for i, n := 0, rng.Intn(8); i < n; i++ {
		v := rng.NormFloat64() * 1e3
		if rng.Intn(2) == 0 {
			v = specials[rng.Intn(len(specials))]
		}
		reg.Gauge(fmt.Sprintf("fam%d%s", rng.Intn(5), label())).Set(v)
	}
	if rng.Intn(2) == 0 {
		reg.Counter("shared")
		reg.Gauge(`shared{kind="g"}`).Set(2)
		reg.Histogram(`shared{kind="h"}`, []float64{1})
	}
	for i, n := 0, rng.Intn(5); i < n; i++ {
		var bounds []float64
		switch rng.Intn(4) {
		case 0: // only the implicit +Inf bucket
		case 1:
			bounds = ExpBuckets(0.0001, 4, 1+rng.Intn(8))
		case 2:
			bounds = []float64{0.5, 2.5, math.Inf(1)}
		default:
			for j, m := 0, 1+rng.Intn(6); j < m; j++ {
				bounds = append(bounds, rng.Float64()*100)
			}
		}
		h := reg.Histogram(fmt.Sprintf("fam%d_seconds%s", rng.Intn(5), label()), bounds)
		for j, m := 0, rng.Intn(50); j < m; j++ {
			h.Observe(rng.ExpFloat64() * 10)
		}
	}
	return reg
}

// TestAppendPrometheusMatchesOracle is the differential test: over
// seeded random registries the plan encoder must produce the oracle's
// bytes, on the first scrape, after values move, and after a
// registration between two scrapes forces the plan to be rebuilt.
func TestAppendPrometheusMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		reg := randomRegistry(rng)
		if got, want := string(reg.AppendPrometheus(nil)), oracleText(t, reg); got != want {
			t.Fatalf("seed %d: first scrape differs\n got:\n%s\nwant:\n%s", seed, got, want)
		}

		// Values move; the plan does not.
		reg.Counter("fam0_total").Add(7)
		for name, h := range reg.hists {
			h.Observe(float64(len(name)))
		}
		// Register in the middle of the sort order of every kind.
		reg.Counter(`fam2_total{route="new"}`).Inc()
		reg.Gauge("fam2_new").Set(0.25)
		reg.Histogram(`fam2_seconds{route="new"}`, []float64{1, 10}).Observe(3)
		// A prefix must be appended to, never scribbled over: scrape into
		// a buffer that already has content.
		got := reg.AppendPrometheus([]byte("kept\n"))
		if want := "kept\n" + oracleText(t, reg); string(got) != want {
			t.Fatalf("seed %d: scrape after registration differs\n got:\n%s\nwant:\n%s", seed, got, want)
		}
	}

	if got := string(NewRegistry().AppendPrometheus(nil)); got != "" {
		t.Errorf("empty registry exposition = %q", got)
	}
	var none *Registry
	if got, want := string(none.AppendPrometheus(nil)), oracleText(t, none); got != want {
		t.Errorf("nil registry exposition = %q, oracle %q", got, want)
	}
}

// TestAppendPrometheusLive: nothing of the text is cached, so whatever
// happened before a scrape is in it — an increment, and a metric that
// did not exist at the previous scrape.
func TestAppendPrometheusLive(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("events_total")
	var buf []byte
	for i := 1; i <= 3; i++ {
		c.Inc()
		buf = reg.AppendPrometheus(buf[:0])
		if want := fmt.Sprintf("# TYPE events_total counter\nevents_total %d\n", i); string(buf) != want {
			t.Fatalf("scrape %d = %q, want %q", i, buf, want)
		}
	}
	reg.Gauge("late").Set(1)
	if buf = reg.AppendPrometheus(buf[:0]); !strings.HasSuffix(string(buf), "# TYPE late gauge\nlate 1\n") {
		t.Fatalf("gauge registered after a scrape is missing from the next:\n%s", buf)
	}
}

// checkHistograms parses one exposition and requires of every histogram
// in it what the text format does: cumulative buckets never decrease,
// and `_count` equals the `+Inf` bucket.
func checkHistograms(text string) error {
	inf := map[string]int64{}  // series (name without le) -> +Inf bucket
	last := map[string]int64{} // series -> previous bucket
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		sample, val := line[:sp], line[sp+1:]
		if i := strings.Index(sample, "_bucket{"); i >= 0 {
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return fmt.Errorf("%q: %v", line, err)
			}
			le := strings.Index(sample, `le="`)
			labels := strings.TrimSuffix(sample[i+len("_bucket{"):le], ",")
			series := sample[:i] + "{" + labels + "}"
			if n < last[series] {
				return fmt.Errorf("%q: bucket below the previous one (%d)", line, last[series])
			}
			last[series] = n
			if strings.HasSuffix(sample, `le="+Inf"}`) {
				inf[series] = n
			}
			continue
		}
		if i := strings.Index(sample, "_count"); i >= 0 {
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return fmt.Errorf("%q: %v", line, err)
			}
			series := sample[:i] + sample[i+len("_count"):]
			if !strings.HasSuffix(series, "}") {
				series += "{}"
			}
			want, ok := inf[series]
			if !ok {
				return fmt.Errorf("%q: no +Inf bucket before it", line)
			}
			if n != want {
				return fmt.Errorf("%q: _count %d beside +Inf bucket %d", line, n, want)
			}
		}
	}
	if len(inf) == 0 {
		return fmt.Errorf("no histogram in the exposition")
	}
	return nil
}

// TestScrapeHistogramConsistentUnderObserve: Observe is three separate
// atomic adds, so a scrape that loaded the count apart from the buckets
// could show `_bucket{le="+Inf"} n+1` beside `_count n`. Every scrape
// taken while observers run must be self-consistent. Run under -race
// this is also the proof that the unlocked walk is race-free against
// Inc, Observe and registration.
func TestScrapeHistogramConsistentUnderObserve(t *testing.T) {
	reg := NewRegistry()
	plain := reg.Histogram("lat_wall_seconds", HTTPRequestWallBuckets())
	labeled := reg.Histogram(`req_wall_seconds{route="report"}`, HTTPRequestWallBuckets())
	hits := reg.Counter("hits_total")

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				v := float64(i%9) * 0.0003
				plain.Observe(v)
				labeled.Observe(v)
				hits.Inc()
				if i%512 == 0 {
					// Registration while scrapes run: the plan is
					// rebuilt under the registry lock.
					reg.Counter(fmt.Sprintf("late_total{worker=\"%d\",n=\"%d\"}", id, i/512%8)).Inc()
				}
			}
		}(w)
	}
	var buf []byte
	var prevHits int64
	for i := 0; i < 2000; i++ {
		buf = reg.AppendPrometheus(buf[:0])
		if err := checkHistograms(string(buf)); err != nil {
			t.Errorf("scrape %d: %v", i, err)
			break
		}
		// Counters are monotone across consecutive scrapes.
		line := buf[bytes.Index(buf, []byte("\nhits_total "))+len("\nhits_total "):]
		n, _ := strconv.ParseInt(string(line[:bytes.IndexByte(line, '\n')]), 10, 64)
		if n < prevHits {
			t.Errorf("scrape %d: hits_total went from %d to %d", i, prevHits, n)
			break
		}
		prevHits = n
	}
	close(stop)
	wg.Wait()

	// Quiescent again: the encoder and the oracle agree byte for byte.
	if got, want := string(reg.AppendPrometheus(buf[:0])), oracleText(t, reg); got != want {
		t.Errorf("quiescent exposition differs from the oracle\n got:\n%s\nwant:\n%s", got, want)
	}
}

// daemonShapedRegistry has the shape of the serving daemon's registry
// with instruments attached: 65 counters, 5 gauges, 7 histograms, about
// 10 KB of text.
func daemonShapedRegistry() *Registry {
	reg := NewRegistry()
	for i := 0; i < 65; i++ {
		reg.Counter(fmt.Sprintf(`prudentia_family%d_total{kind="k%d"}`, i/5, i%5)).Add(int64(i) * 1234567)
	}
	for i := 0; i < 5; i++ {
		reg.Gauge(fmt.Sprintf("prudentia_gauge%d_wall_fraction", i)).Set(float64(i) / 7)
	}
	for i := 0; i < 7; i++ {
		h := reg.Histogram(fmt.Sprintf(`prudentia_http_request_wall_seconds{route="r%d"}`, i), HTTPRequestWallBuckets())
		for j := 0; j < 100; j++ {
			h.Observe(float64(j) * 0.000137)
		}
	}
	return reg
}

// TestAppendPrometheusZeroAlloc is the encoder's allocation gate: a
// scrape into a buffer that already has the capacity allocates nothing
// (no maps, no sort, no fmt, no float strings).
func TestAppendPrometheusZeroAlloc(t *testing.T) {
	reg := daemonShapedRegistry()
	buf := reg.AppendPrometheus(nil)
	if n := testing.AllocsPerRun(200, func() { buf = reg.AppendPrometheus(buf[:0]) }); n != 0 {
		t.Errorf("AppendPrometheus into a reused buffer allocates %.1f per scrape, want 0", n)
	}
}

func BenchmarkAppendPrometheus(b *testing.B) {
	reg := daemonShapedRegistry()
	buf := reg.AppendPrometheus(nil)
	b.ReportAllocs()
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = reg.AppendPrometheus(buf[:0])
	}
}

// BenchmarkOraclePrometheus is the same registry through the writer the
// encoder replaced, for the before/after in one run.
func BenchmarkOraclePrometheus(b *testing.B) {
	reg := daemonShapedRegistry()
	var buf bytes.Buffer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := reg.Snapshot().WritePrometheus(&buf); err != nil {
			b.Fatal(err)
		}
	}
}
