package stats

// This file is the slice arithmetic of the stopping rules as production
// spelled it before a pair's statistics lived in sketches only: the
// §3.4 CI rule (CIWithin) and the sequential stopper over raw share
// series (Evaluate, with CIWidth, Fair and the prefix-recomputing
// verdictStable), kept verbatim. It is the oracle that defines "same"
// for Sketch.CIWithin and SequentialPolicy.EvaluateSketch; nothing
// outside tests may use it.

// CIWithin reports whether the 95% CI of the median spans at most
// ±tolerance around the median (the §3.4 stopping rule).
func CIWithin(xs []float64, tolerance float64) bool {
	if len(xs) == 0 {
		return false
	}
	lo, hi := MedianCI(xs)
	m := Median(xs)
	return m-lo <= tolerance && hi-m <= tolerance
}

// CIWidth returns the width of the distribution-free 95% CI on the
// median (MedianCI's hi − lo). For n < 3 this degrades to the sample
// range, which is exactly the conservative behaviour a stopper wants:
// two agreeing trials may stop, two disagreeing ones cannot.
func CIWidth(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	lo, hi := MedianCI(xs)
	return hi - lo
}

// Fair reports the pair's fairness verdict on a share prefix: both
// slots' median MmF shares are at least fairPct percent.
func Fair(s0, s1 []float64, fairPct float64) bool {
	return Median(s0) >= fairPct && Median(s1) >= fairPct
}

// Evaluate applies the stopping rules to the accumulated share series
// of both slots (equal length, one entry per counted trial, in trial
// order). Rules are checked in a fixed order — CI width, verdict
// stability, budget — so the recorded stop reason is deterministic too.
func (p SequentialPolicy) Evaluate(s0, s1 []float64) StopDecision {
	n := len(s0)
	d := StopDecision{Fair: Fair(s0, s1, p.FairSharePct)}
	if w := CIWidth(s1); w > d.CIWidth {
		d.CIWidth = w
	}
	if w := CIWidth(s0); w > d.CIWidth {
		d.CIWidth = w
	}
	if n == 0 {
		return d
	}
	min := p.MinTrials
	if p.MaxTrials > 0 && min > p.MaxTrials {
		min = p.MaxTrials
	}
	if n < min {
		return d
	}
	if p.MaxCIWidth > 0 && d.CIWidth <= p.MaxCIWidth {
		d.Stop, d.Reason = true, StopCIWidth
		return d
	}
	if p.StableK > 0 && n >= p.StableK && p.verdictStable(s0, s1) {
		d.Stop, d.Reason = true, StopStable
		return d
	}
	if p.MaxTrials > 0 && n >= p.MaxTrials {
		d.Stop, d.Reason = true, StopBudget
		return d
	}
	return d
}

// verdictStable reports whether the fair/unfair verdict was identical
// after each of the last StableK prefixes. A verdict flip inside the
// window restarts the stability count by construction: the flipped
// prefix disagrees with its successors until it ages out.
func (p SequentialPolicy) verdictStable(s0, s1 []float64) bool {
	n := len(s0)
	want := Fair(s0, s1, p.FairSharePct)
	for i := 1; i < p.StableK; i++ {
		if Fair(s0[:n-i], s1[:n-i], p.FairSharePct) != want {
			return false
		}
	}
	return true
}
