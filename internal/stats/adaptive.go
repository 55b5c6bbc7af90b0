package stats

// Sequential stopping for adaptive trial budgets. A SequentialPolicy is
// evaluated after every counted trial on the share sketches of both slots,
// and decides — as a pure function of the counted-trial prefix and nothing
// else — whether the pair needs more trials. Purity is the load-bearing
// property: a resumed cycle replaying journaled trials and an
// uninterrupted run at any worker count reconstruct the identical share
// prefix and therefore reach the identical stopping decision, which is
// what keeps adaptive reports byte-identical across resume/replay and any
// worker count.

// DefaultFairSharePct is the paper's "roughly fair" verdict boundary:
// a slot achieving at least this percentage of its max-min fair share
// is considered fairly treated. Callers that leave
// SequentialPolicy.FairSharePct zero default to it.
const DefaultFairSharePct = 80.0

// Stop reasons reported by SequentialPolicy.EvaluateSketch. They label the
// prudentia_adaptive_stops_total counter and PairOutcome.StopReason.
const (
	// StopCIWidth: the distribution-free 95% CI on both slots' share
	// medians narrowed below the policy's MaxCIWidth.
	StopCIWidth = "ci_width"
	// StopStable: the fair/unfair verdict was identical after each of
	// the last StableK trials.
	StopStable = "verdict_stable"
	// StopBudget: the pair exhausted its allocated trial budget without
	// meeting either convergence criterion.
	StopBudget = "budget"
)

// SequentialPolicy is the deterministic sequential stopper: evaluate
// after every trial, stop as soon as the verdict is statistically
// settled or the budget runs out.
type SequentialPolicy struct {
	// MinTrials is the floor below which the stopper never stops (clamped
	// to MaxTrials when the allocated budget is smaller).
	MinTrials int
	// MaxTrials is the pair's trial ceiling — under coarse-to-fine
	// screening, the per-pair allocated budget rather than the global
	// maximum. Reaching it stops with StopBudget. Zero means no ceiling.
	MaxTrials int
	// MaxCIWidth is the convergence target in share points: stop when
	// the wider of the two slots' median-CI widths is at most this.
	// Zero disables the CI-width rule.
	MaxCIWidth float64
	// StableK stops after K consecutive trials that each left the
	// fair/unfair verdict unchanged. Zero disables the stability rule.
	StableK int
	// FairSharePct is the verdict boundary: a pair is "fair" when both
	// slots' median shares are at least this many percent of the MmF
	// fair share.
	FairSharePct float64
}

// StopDecision is the stopper's verdict on one share prefix.
type StopDecision struct {
	// Stop reports whether the pair needs no further trials.
	Stop bool
	// Reason is StopCIWidth, StopStable, or StopBudget when Stop is
	// true, empty otherwise.
	Reason string
	// CIWidth is the wider of the two slots' median-CI widths, for
	// telemetry.
	CIWidth float64
	// Fair is the current verdict (both medians ≥ FairSharePct).
	Fair bool
}

// EvaluateSketch applies the stopping rules to both slots' share
// sketches (equal counts, one sample per counted trial). Rules are
// checked in a fixed order — CI width, verdict stability, budget — so
// the recorded stop reason is deterministic too. prior is the ring of
// Fair verdicts recorded after each previous counted trial (oldest
// first, latest last, at most StableK−1 entries kept by the caller):
// every verdict is a pure function of its prefix, so the ring remembers
// what recomputing the last StableK prefixes would yield. A verdict
// flip inside the window restarts the stability count by construction:
// the flipped entry disagrees with its successors until it ages out.
// The decision is bit-identical to the same rules over the raw series
// (the oracle in oracle_test.go), because a sketch holds every sample.
func (p SequentialPolicy) EvaluateSketch(s0, s1 *Sketch, prior []bool) StopDecision {
	n := s0.Count()
	d := StopDecision{Fair: s0.Median() >= p.FairSharePct && s1.Median() >= p.FairSharePct}
	if w := sketchCIWidth(s1); w > d.CIWidth {
		d.CIWidth = w
	}
	if w := sketchCIWidth(s0); w > d.CIWidth {
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
	if p.StableK > 0 && n >= p.StableK && ringStable(prior, d.Fair, p.StableK) {
		d.Stop, d.Reason = true, StopStable
		return d
	}
	if p.MaxTrials > 0 && n >= p.MaxTrials {
		d.Stop, d.Reason = true, StopBudget
		return d
	}
	return d
}

// sketchCIWidth returns the width of the sketch's 95% median CI
// (MedianCI's hi − lo), 0 for an empty sketch. For n < 3 it degrades to
// the sample range, which is exactly the conservative behaviour a
// stopper wants: two agreeing trials may stop, two disagreeing ones
// cannot.
func sketchCIWidth(s *Sketch) float64 {
	if s.Count() == 0 {
		return 0
	}
	lo, hi := s.MedianCI()
	return hi - lo
}

// ringStable reports whether the last stableK−1 recorded verdicts all
// match the current one.
func ringStable(prior []bool, want bool, stableK int) bool {
	if len(prior) < stableK-1 {
		return false
	}
	for _, v := range prior[len(prior)-(stableK-1):] {
		if v != want {
			return false
		}
	}
	return true
}

// ScreenScore ranks a pair's contestedness from a coarse screening
// trial: the distance of the losing slot's share from the fairness
// boundary. Lower is more contested — a pair sitting right on the
// boundary needs full-depth trials to call, while one far on either
// side converges immediately. Callers use −1 (sorting before every real
// score) for pairs whose screening produced no signal, so uncertainty
// also buys depth.
func ScreenScore(share0, share1, fairPct float64) float64 {
	min := share0
	if share1 < min {
		min = share1
	}
	d := min - fairPct
	if d < 0 {
		d = -d
	}
	return d
}
