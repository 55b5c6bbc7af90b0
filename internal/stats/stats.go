// Package stats provides the statistical machinery behind Prudentia's
// stopping rules (§3.4): medians, quantiles, inter-quartile ranges,
// distribution-free 95% confidence intervals for the median based on
// order statistics, and the sequential stopper behind adaptive trial
// budgets (adaptive.go). Jain's fairness index is included for tests
// and comparisons, though the paper deliberately reports per-service
// MmF shares instead (§2.2).
//
// Invariants: every function in this package is a pure function of its
// numeric arguments — no randomness, no clock, no global state — and none
// mutates its input slices (order statistics sort private copies). The
// scheduler and the resume/replay machinery both rely on this: feeding the
// same trial prefix to the same policy must produce the same stopping
// decision in every process that evaluates it.
package stats

import (
	"math"
	"sort"
)

// Median returns the sample median (0 for an empty slice).
func Median(xs []float64) float64 {
	return Quantile(xs, 0.5)
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) using linear interpolation
// between order statistics (the "R-7" rule used by most tooling).
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantileSorted(s, q)
}

// quantileSorted is the R-7 rule on an already-sorted non-empty slice.
// It is shared verbatim with Sketch, whose buffer holds every sample,
// so that a sketch returns bit-identical quantiles to Quantile over
// them.
func quantileSorted(s []float64, q float64) float64 {
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// IQR returns the inter-quartile range (p75 − p25), the error-bar
// measure used by all the paper's graphs.
func IQR(xs []float64) float64 {
	return Quantile(xs, 0.75) - Quantile(xs, 0.25)
}

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// MedianCI returns a distribution-free ~95% confidence interval for the
// median using the binomial order-statistic method: for n samples the
// interval spans the order statistics at ranks n/2 ± 1.96·√n/2. This is
// the criterion Prudentia's scheduler applies: run more trials until the
// CI is within the per-setting Mbps tolerance (§3.4).
func MedianCI(xs []float64) (lo, hi float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return medianCISorted(s)
}

// medianCISorted is MedianCI on an already-sorted non-empty slice,
// shared with Sketch for bit-identity: the order statistics at ranks
// n/2 ± 1.96·√n/2 (binomial method), clamped to the sample.
func medianCISorted(s []float64) (lo, hi float64) {
	n := len(s)
	if n < 3 {
		return s[0], s[n-1]
	}
	half := 1.96 * math.Sqrt(float64(n)) / 2
	loIdx := max(0, int(math.Floor(float64(n)/2-half)))
	hiIdx := min(n-1, int(math.Ceil(float64(n)/2+half)))
	return s[loIdx], s[hiIdx]
}
