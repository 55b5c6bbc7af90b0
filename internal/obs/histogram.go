package obs

import (
	"math"
	"sort"
	"sync/atomic"
)

// Histogram counts observations into fixed buckets (cumulative counts
// are produced at exposition time, matching Prometheus semantics). The
// sum accumulates in fixed-point microunits so concurrent observation
// order cannot perturb it: integer addition is commutative where
// floating-point addition is not, which is what keeps snapshots
// byte-identical across worker counts. A nil *Histogram is a no-op.
type Histogram struct {
	bounds    []float64      // ascending upper bounds; +Inf bucket is implicit
	counts    []atomic.Int64 // len(bounds)+1; last is the overflow bucket
	count     atomic.Int64
	sumMicros atomic.Int64
}

func newHistogram(buckets []float64) *Histogram {
	bounds := append([]float64(nil), buckets...)
	sort.Float64s(bounds)
	return &Histogram{
		bounds: bounds,
		counts: make([]atomic.Int64, len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) { h.ObserveN(v, 1) }

// ObserveN records n observations of one value at the cost of one, for
// replaying a summary whose buckets count many samples each.
func (h *Histogram) ObserveN(v float64, n int64) {
	if h == nil || math.IsNaN(v) || n <= 0 {
		return
	}
	// Linear scan: bucket counts are small (≤ ~20) and the loop is
	// branch-predictable; a binary search would cost more in practice.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(n)
	h.count.Add(n)
	h.sumMicros.Add(n * int64(math.Round(v*1e6)))
}

// Sum returns the sum of observed values (microunit precision).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return fromMicros(h.sumMicros.Load())
}

// fromMicros converts the fixed-point sum back to the observed unit.
func fromMicros(m int64) float64 { return float64(m) / 1e6 }

func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]int64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    h.Sum(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// ExpBuckets returns n bucket bounds growing geometrically from start by
// factor — the standard layout for duration histograms.
func ExpBuckets(start, factor float64, n int) []float64 {
	if n <= 0 || start <= 0 || factor <= 1 {
		return nil
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// TrialSimSecondsBuckets is the fixed layout for per-trial simulated
// duration (quick trials are 60 s, paper trials 600 s).
func TrialSimSecondsBuckets() []float64 { return ExpBuckets(1, 2, 12) } // 1 s .. 2048 s

// TrialWallSecondsBuckets is the fixed layout for per-trial wall-clock
// duration (a quick trial simulates in milliseconds; a paper-scale trial
// under race instrumentation can take minutes).
func TrialWallSecondsBuckets() []float64 { return ExpBuckets(0.001, 4, 10) } // 1 ms .. ~262 s
