package stats

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// sketchOf builds a sketch from the given samples.
func sketchOf(xs []float64) *Sketch {
	s := NewSketch()
	for _, x := range xs {
		s.Add(x)
	}
	return s
}

// genSamples draws n deterministic samples from a few adversarial
// shapes keyed by dist.
func genSamples(r *rand.Rand, dist string, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		switch dist {
		case "uniform":
			xs[i] = r.Float64() * 100
		case "lognormal": // heavy right tail over ~6 decades
			xs[i] = math.Exp(r.NormFloat64() * 4)
		case "mixed-sign":
			xs[i] = r.NormFloat64() * 50
		case "duplicates": // many ties
			xs[i] = float64(r.Intn(8)) * 12.5
		case "with-zeros":
			if r.Intn(4) == 0 {
				xs[i] = 0
			} else {
				xs[i] = r.Float64()*10 + 1
			}
		case "bimodal":
			if r.Intn(2) == 0 {
				xs[i] = 1 + r.Float64()
			} else {
				xs[i] = 1e6 + r.Float64()*1e5
			}
		default:
			panic("unknown dist " + dist)
		}
	}
	return xs
}

var sketchDists = []string{"uniform", "lognormal", "mixed-sign", "duplicates", "with-zeros", "bimodal"}

// TestSketchExactRegimeBitIdentical: at every size, every query of a
// sketch that saw the samples must be bit-identical (==, not
// approximately equal) to the store-everything functions — the property
// that makes sketch-backed runs reproduce the exact verdict matrix byte
// for byte. Sizes past 128 are where the sketch used to fold into
// 1%-error buckets.
func TestSketchExactRegimeBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, dist := range sketchDists {
		for _, n := range []int{1, 2, 3, 5, 30, 36, 127, 128, 129, 130, 1000, 4096} {
			xs := genSamples(r, dist, n)
			s := sketchOf(xs)
			if s.Count() != n {
				t.Fatalf("%s n=%d: Count %d", dist, n, s.Count())
			}
			for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.75, 0.95, 1} {
				if got, want := s.Quantile(q), Quantile(xs, q); got != want {
					t.Fatalf("%s n=%d q=%g: sketch %v != exact %v", dist, n, q, got, want)
				}
			}
			glo, ghi := s.MedianCI()
			wlo, whi := MedianCI(xs)
			if glo != wlo || ghi != whi {
				t.Fatalf("%s n=%d: MedianCI (%v,%v) != (%v,%v)", dist, n, glo, ghi, wlo, whi)
			}
			if got, want := s.IQR(), IQR(xs); got != want {
				t.Fatalf("%s n=%d: IQR %v != %v", dist, n, got, want)
			}
			for _, tol := range []float64{0.01, 1, 100} {
				if got, want := s.CIWithin(tol), CIWithin(xs, tol); got != want {
					t.Fatalf("%s n=%d tol=%g: CIWithin %v != %v", dist, n, tol, got, want)
				}
			}
		}
	}
}

// TestSketchEdgeCases: empty, single, pair, all-equal, NaN, and ±Inf
// inputs for the sketch and the slice paths it mirrors.
func TestSketchEdgeCases(t *testing.T) {
	s := NewSketch()
	if s.Count() != 0 || s.Median() != 0 || s.Quantile(0.9) != 0 {
		t.Fatal("empty sketch must answer 0 like Quantile(nil)")
	}
	if lo, hi := s.MedianCI(); lo != 0 || hi != 0 {
		t.Fatalf("empty MedianCI = (%v,%v)", lo, hi)
	}
	if s.CIWithin(1e9) {
		t.Fatal("empty sketch cannot satisfy any tolerance")
	}
	if s.Quantile(0) != 0 || s.Quantile(1) != 0 {
		t.Fatal("empty extremes must be 0")
	}

	s.Add(math.NaN())
	if s.Count() != 0 {
		t.Fatal("NaN must be ignored, not counted")
	}

	s.Add(42)
	if s.Median() != 42 || s.Quantile(0) != 42 || s.Quantile(1) != 42 {
		t.Fatalf("n=1: median %v min %v max %v", s.Median(), s.Quantile(0), s.Quantile(1))
	}
	if lo, hi := s.MedianCI(); lo != 42 || hi != 42 {
		t.Fatalf("n=1 MedianCI = (%v,%v)", lo, hi)
	}

	s.Add(44)
	if s.Median() != 43 {
		t.Fatalf("n=2 median = %v, want interpolated 43", s.Median())
	}
	if lo, hi := s.MedianCI(); lo != 42 || hi != 44 {
		t.Fatalf("n=2 MedianCI = (%v,%v), want sample range", lo, hi)
	}

	inf := NewSketch()
	inf.Add(math.Inf(1))
	inf.Add(math.Inf(-1))
	if inf.Quantile(1) != math.MaxFloat64 || inf.Quantile(0) != -math.MaxFloat64 {
		t.Fatalf("±Inf must clamp to ±MaxFloat64, got [%v, %v]", inf.Quantile(0), inf.Quantile(1))
	}

	// −0 is stored as +0, so the order of a signed-zero pair cannot
	// reach the samples.
	for _, s := range []*Sketch{sketchOf([]float64{math.Copysign(0, -1), 0}), sketchOf([]float64{0, math.Copysign(0, -1)})} {
		s.Each(func(v float64) {
			if v != 0 || math.Signbit(v) {
				t.Fatalf("sample %v: −0 must be stored as +0", v)
			}
		})
	}

	eq := NewSketch()
	for i := 0; i < 500; i++ {
		eq.Add(7.5)
	}
	if lo, hi := eq.MedianCI(); eq.Median() != 7.5 || lo != 7.5 || hi != 7.5 {
		t.Fatalf("all-equal: median %v, MedianCI (%v,%v)", eq.Median(), lo, hi)
	}
}

// TestMedianCIEdgeCases pins the slice-path degenerate behaviour the
// sequential stopper depends on: n<3 degrades to the sample range, so
// two disagreeing trials can never look converged.
func TestMedianCIEdgeCases(t *testing.T) {
	if lo, hi := MedianCI(nil); lo != 0 || hi != 0 {
		t.Fatalf("MedianCI(nil) = (%v,%v)", lo, hi)
	}
	if lo, hi := MedianCI([]float64{5}); lo != 5 || hi != 5 {
		t.Fatalf("MedianCI(n=1) = (%v,%v)", lo, hi)
	}
	if lo, hi := MedianCI([]float64{9, 1}); lo != 1 || hi != 9 {
		t.Fatalf("MedianCI(n=2) = (%v,%v), want full range", lo, hi)
	}
	all := make([]float64, 11)
	for i := range all {
		all[i] = 3.25
	}
	if lo, hi := MedianCI(all); lo != 3.25 || hi != 3.25 {
		t.Fatalf("MedianCI(all-equal) = (%v,%v)", lo, hi)
	}
	ranks := make([]float64, 200)
	for i := range ranks {
		ranks[i] = float64(i)
	}
	for n := 3; n < len(ranks); n++ {
		if lo, hi := medianCISorted(ranks[:n]); lo > hi || lo >= float64(n)/2 || hi < float64(n-1)/2 {
			t.Fatalf("n=%d: CI ranks (%v,%v) do not bracket the median", n, lo, hi)
		}
	}
}

// TestSketchAddOrderInsensitive: any permutation of the same multiset
// produces byte-identical JSON, also when a query sorts the buffer
// halfway through the stream.
func TestSketchAddOrderInsensitive(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, n := range []int{10, 128, 1000} {
		xs := genSamples(r, "lognormal", n)
		a := sketchOf(xs)
		perm := r.Perm(len(xs))
		b := NewSketch()
		for k, i := range perm {
			if k == n/2 {
				_ = b.Median()
			}
			b.Add(xs[i])
		}
		ja, _ := json.Marshal(a)
		jb, _ := json.Marshal(b)
		if !bytes.Equal(ja, jb) {
			t.Fatalf("n=%d: permuted insertion changed the samples", n)
		}
	}
}

// TestSketchJSONRoundTrip: a sketch marshals to exactly json.Marshal of
// its normalised samples in ascending order — out-of-order adds sorted,
// −0 stored as 0, ±Inf clamped, NaN dropped, and [] when empty — so a
// cycle result's JSON compares its statistics sample for sample.
func TestSketchJSONRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	cases := map[string]struct{ in, want []float64 }{
		"empty":    {nil, []float64{}},
		"only NaN": {[]float64{math.NaN()}, []float64{}},
		"edge values": {
			[]float64{3, math.Inf(1), math.Copysign(0, -1), math.NaN(), -2, math.Inf(-1), 3},
			[]float64{-math.MaxFloat64, -2, 0, 3, 3, math.MaxFloat64},
		},
	}
	for _, n := range []int{3, 1000} {
		xs := genSamples(r, "mixed-sign", n)
		sorted := slices.Clone(xs)
		slices.Sort(sorted)
		cases[fmt.Sprintf("%d random", n)] = struct{ in, want []float64 }{xs, sorted}
	}
	for name, c := range cases {
		got, err := json.Marshal(sketchOf(c.in))
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(c.want)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: MarshalJSON wrote %s, want %s", name, got, want)
		}
	}
}

// TestEvaluateSketchMatchesEvaluate: at every prefix of a random share
// series, the sketch-backed stopper (with its caller-maintained verdict
// ring) must reach the identical decision to the slice-backed stopper —
// the equivalence that keeps adaptive sketch runs byte-identical.
func TestEvaluateSketchMatchesEvaluate(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	pols := []SequentialPolicy{
		{MinTrials: 2, MaxTrials: 30, MaxCIWidth: 10, StableK: 3, FairSharePct: 80},
		{MinTrials: 1, MaxTrials: 12, MaxCIWidth: 2, StableK: 5, FairSharePct: 80},
		{MinTrials: 3, MaxTrials: 40, StableK: 2, FairSharePct: 95},
		{MinTrials: 2, MaxTrials: 8, MaxCIWidth: 25, StableK: 1, FairSharePct: 80},
	}
	for pi, pol := range pols {
		for trial := 0; trial < 50; trial++ {
			n := r.Intn(40) + 1
			s0, s1 := make([]float64, 0, n), make([]float64, 0, n)
			sk0, sk1 := NewSketch(), NewSketch()
			var ring []bool
			for i := 0; i < n; i++ {
				// Mix fair and unfair stretches so verdicts flip.
				base := 70 + 40*math.Sin(float64(i)/3+float64(trial))
				v0 := base + r.Float64()*10
				v1 := 160 - base + r.Float64()*10
				s0, s1 = append(s0, v0), append(s1, v1)
				sk0.Add(v0)
				sk1.Add(v1)
				want := pol.Evaluate(s0, s1)
				got := pol.EvaluateSketch(sk0, sk1, ring)
				if got != want {
					t.Fatalf("policy %d prefix %d: sketch %+v != slice %+v", pi, i+1, got, want)
				}
				// Maintain the ring exactly as the pair protocol does.
				if pol.StableK > 1 {
					ring = append(ring, got.Fair)
					if len(ring) > pol.StableK-1 {
						ring = ring[1:]
					}
				}
				if want.Stop {
					break
				}
			}
		}
	}
}

// TestSketchEachRoundTrip: Each visits every sample exactly once, in
// ascending order, also past 128 samples and after unsorted Adds.
func TestSketchEachRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	for _, n := range []int{3, 2000} {
		xs := genSamples(r, "mixed-sign", n)
		var got []float64
		sketchOf(xs).Each(func(v float64) { got = append(got, v) })
		slices.Sort(xs)
		if !slices.Equal(got, xs) {
			t.Fatalf("n=%d: Each visited %d values, not the %d samples sorted", n, len(got), n)
		}
	}
}
