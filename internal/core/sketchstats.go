package core

import (
	"prudentia/internal/stats"
)

// Per-pair statistics. A pair never retains its TrialResults: it
// carries one PairSketches, a fixed set of mergeable sketches
// (internal/stats) plus the summed deterministic telemetry aggregate,
// and a pair's JSON carries the encoded sketches instead of trials.
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
// (Instruments.foldPair) without per-trial data. It rides the pair's
// JSON via the sketches' base64 binary encoding.
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

// MergedShareSketch merges every non-quarantined pair's two slot share
// sketches into one distribution — the cycle-level "all counted shares"
// aggregate the sweep harness reports. Returns nil when no pair counted
// a trial.
func (r *MatrixResult) MergedShareSketch() *stats.Sketch {
	var agg *stats.Sketch
	for i := range r.Names {
		for j := i; j < len(r.Names); j++ {
			p := r.Pairs[pairKey(i, j)]
			if p == nil || p.Failed || p.Counted() == 0 {
				continue
			}
			if agg == nil {
				agg = stats.NewSketch()
			}
			agg.Merge(p.Sketches.SharePct[0])
			agg.Merge(p.Sketches.SharePct[1])
		}
	}
	return agg
}
