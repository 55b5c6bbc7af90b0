package core

import (
	"slices"

	"prudentia/internal/stats"
)

// Per-pair statistics. A pair never retains its TrialResults: it
// carries one PairSketches, a sketch (internal/stats: the sorted column
// of one metric's samples) per reported metric plus the summed
// deterministic telemetry aggregate.
//
// Each sketch holds every sample of its metric (8 bytes per counted
// trial) and answers with the R-7 / order-statistic code of
// stats.Quantile and stats.MedianCI, so the verdict matrix, report, and
// stopping decisions are those of order statistics over the raw
// samples, bit for bit, at any trial count (TestSketchMatrixEquivalence
// and TestPairPast128TrialsExact replay the slice arithmetic as the
// oracle).

// PairSketches is the statistics state of one pair: a sketch per
// reported metric, keyed by the same slot convention as TrialResult
// (slot 0 incumbent, slot 1 contender), plus the summed TrialObs
// aggregate the release path folds into the registry's counter totals
// (Instruments.foldPair) without per-trial data.
type PairSketches struct {
	// N counts the counted trials folded in.
	N int `json:"n"`
	// Mbps holds each slot's per-trial throughput distribution.
	Mbps [2]*stats.Sketch `json:"mbps"`
	// SharePct holds each slot's MmF-share distribution (the heatmap
	// and adaptive-stopper statistic).
	SharePct [2]*stats.Sketch `json:"share_pct"`
	// Utilization holds the whole-link utilization distribution.
	Utilization *stats.Sketch `json:"utilization"`
	// Loss holds each slot's loss-rate distribution.
	Loss [2]*stats.Sketch `json:"loss"`
	// QueueDelaySec holds each slot's queueing-delay distribution, in
	// seconds.
	QueueDelaySec [2]*stats.Sketch `json:"queue_delay_sec"`
	// SimSeconds holds the per-trial simulated-duration distribution.
	SimSeconds *stats.Sketch `json:"sim_seconds"`
	// Obs is the element-wise sum (max for the occupancy high water) of
	// every counted trial's deterministic telemetry aggregate.
	Obs TrialObs `json:"obs"`
}

// newPairSketches allocates the full sketch set for one pair.
func newPairSketches() *PairSketches {
	ps := &PairSketches{
		Utilization: stats.NewSketch(),
		SimSeconds:  stats.NewSketch(),
	}
	for s := 0; s < 2; s++ {
		ps.Mbps[s] = stats.NewSketch()
		ps.SharePct[s] = stats.NewSketch()
		ps.Loss[s] = stats.NewSketch()
		ps.QueueDelaySec[s] = stats.NewSketch()
	}
	return ps
}

// observe folds one counted trial into the sketch set.
func (ps *PairSketches) observe(res *TrialResult) {
	ps.N++
	for s := 0; s < 2; s++ {
		ps.Mbps[s].Add(res.Mbps[s])
		ps.SharePct[s].Add(res.SharePct[s])
		ps.Loss[s].Add(res.Loss[s])
		ps.QueueDelaySec[s].Add(res.QueueDelay[s].Seconds())
	}
	ps.Utilization.Add(res.Utilization)
	ps.SimSeconds.Add(res.Obs.SimSeconds)
	ps.Obs.add(res.Obs)
}

// MergedSharePct returns every counted share of every non-failed pair,
// both slots, in ascending order — the cycle-level "all counted shares"
// distribution the sweep harness reports. Returns nil when no pair
// counted a trial.
func (r *MatrixResult) MergedSharePct() []float64 {
	var all []float64
	for i := range r.Names {
		for j := i; j < len(r.Names); j++ {
			p := r.Pairs[pairKey(i, j)]
			if p == nil || p.Failed || p.Counted() == 0 {
				continue
			}
			for _, sk := range p.Sketches.SharePct {
				sk.Each(func(v float64) { all = append(all, v) })
			}
		}
	}
	slices.Sort(all)
	return all
}
