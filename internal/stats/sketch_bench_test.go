package stats

import (
	"math"
	"testing"
)

// benchSamples returns n deterministic heavy-tailed samples: log-uniform
// magnitudes spanning [0.01, 100] (four decades — far wider than any real
// share/loss/throughput stream), a zero every 13th sample, a negative
// every 7th. The LCG keeps the stream byte-stable across runs and Go
// versions, so the state-size benchmark below measures the same multiset
// every time.
func benchSamples(n int) []float64 {
	out := make([]float64, n)
	state := uint64(0x9e3779b97f4a7c15)
	lo, hi := math.Log(0.01), math.Log(100)
	for i := range out {
		state = state*6364136223846793005 + 1442695040888963407
		u := float64(state>>11) / float64(1<<53)
		v := math.Exp(lo + u*(hi-lo))
		switch {
		case i%13 == 0:
			v = 0
		case i%7 == 0:
			v = -v
		}
		out[i] = v
	}
	return out
}

// compactedSketch returns a sketch warmed with vals, so that adding any
// of vals again only ever touches existing buckets.
func compactedSketch(tb testing.TB, vals []float64) *Sketch {
	s := NewSketch()
	for _, v := range vals {
		s.Add(v)
	}
	if s.Exact() {
		tb.Fatal("warmup did not reach the compacted regime")
	}
	return s
}

// BenchmarkSketchAdd measures the compacted-regime Add hot path — the
// operation a million-trial run executes once per metric per trial
// (committed nanoseconds: stats.probe_sketch_add_ns in bench/).
func BenchmarkSketchAdd(b *testing.B) {
	vals := benchSamples(4096)
	s := compactedSketch(b, vals)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Add(vals[i%len(vals)])
	}
}

// TestSketchAddZeroAllocCompacted pins the steady-state Add hot path
// allocation-free.
func TestSketchAddZeroAllocCompacted(t *testing.T) {
	vals := benchSamples(4096)
	s := compactedSketch(t, vals)
	i := 0
	if n := testing.AllocsPerRun(4096, func() {
		s.Add(vals[i%len(vals)])
		i++
	}); n != 0 {
		t.Fatalf("compacted-regime Add allocates %v times per op", n)
	}
}

// sketchStateTiers are the trial counts the O(1)-state gate compares.
var sketchStateTiers = []struct {
	name string
	n    int
}{{"1x", 5000}, {"10x", 50000}}

// encodedStateBytes is the encoded size of one sketch holding vals.
func encodedStateBytes(vals []float64) int {
	s := NewSketch()
	for _, v := range vals {
		s.Add(v)
	}
	return len(s.Encode())
}

// BenchmarkSketchState reports the encoded state size of one sketch
// after 5k and 50k trials as state_bytes.
func BenchmarkSketchState(b *testing.B) {
	for _, tc := range sketchStateTiers {
		b.Run("trials="+tc.name, func(b *testing.B) {
			vals := benchSamples(tc.n)
			var sz int
			for i := 0; i < b.N; i++ {
				sz = encodedStateBytes(vals)
			}
			b.ReportMetric(float64(sz), "state_bytes")
		})
	}
}

// TestSketchStateBounded is the O(1)-state proof: a pair's statistics
// state is a fixed set of these sketches (core.PairSketches), so one
// sketch's encoded bytes at 10x the trial count must stay within 1.25x,
// where a raw per-trial ledger would grow by exactly 10x.
func TestSketchStateBounded(t *testing.T) {
	small := encodedStateBytes(benchSamples(sketchStateTiers[0].n))
	large := encodedStateBytes(benchSamples(sketchStateTiers[1].n))
	if ratio := float64(large) / float64(small); ratio > 1.25 {
		t.Fatalf("encoded sketch state grew %.3fx at 10x trials (%d -> %d bytes); want <= 1.25x", ratio, small, large)
	}
}
