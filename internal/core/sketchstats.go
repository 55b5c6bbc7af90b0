package core

import (
	"fmt"

	"prudentia/internal/stats"
)

// Per-pair statistics. A pair never retains its TrialResults: it
// carries one PairSketches, a fixed set of mergeable quantile sketches
// (internal/stats) plus the summed deterministic telemetry aggregate,
// so state per pair is O(1) in the trial count and pair records and
// fleet results carry fixed-size encoded sketches instead of raw
// samples.
//
// Up to stats.SketchBufferCap counted trials (far beyond any paper
// budget) the sketches hold every sample exactly and answer with the
// R-7 / order-statistic code of stats.Quantile and stats.MedianCI, so
// the verdict matrix, report, and stopping decisions are those of
// order statistics over the raw samples, bit for bit
// (TestSketchMatrixEquivalence replays the slice arithmetic as the
// oracle). Past the cap quantiles carry 1% relative error.

// PairSketches is the O(1) statistics state of one pair: a sketch per
// reported metric, keyed by the same slot convention as TrialResult
// (slot 0 incumbent, slot 1 contender), plus the summed TrialObs
// aggregate the release path folds into the registry's counter totals
// (Instruments.foldPair) without per-trial data. It rides pair-record
// JSON and the fleet protocol via the sketches' base64 binary
// encoding.
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
	// SimSeconds holds the per-trial simulated-duration distribution
	// (feeds the coordinator's trial-duration histogram for remote
	// pairs).
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

// complete reports whether every sketch of the set is present: a
// decoded set (pair record, fleet result) may be nil or hold null members.
func (ps *PairSketches) complete() bool {
	if ps == nil || ps.Utilization == nil || ps.SimSeconds == nil {
		return false
	}
	for s := 0; s < 2; s++ {
		if ps.Mbps[s] == nil || ps.SharePct[s] == nil || ps.Loss[s] == nil || ps.QueueDelaySec[s] == nil {
			return false
		}
	}
	return true
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

// Merge folds other's sketches, counts, and telemetry aggregate into
// ps. Like stats.Sketch.Merge it is commutative, associative, and
// shard-split invariant, so per-pair sketches from any number of fleet
// workers — or per-cell sketches from a sweep grid — combine into the
// same aggregate regardless of who produced which shard. other is not
// modified; a nil other is a no-op.
func (ps *PairSketches) Merge(other *PairSketches) error {
	if other == nil {
		return nil
	}
	for s := 0; s < 2; s++ {
		if err := ps.Mbps[s].Merge(other.Mbps[s]); err != nil {
			return fmt.Errorf("core: merging mbps sketches: %w", err)
		}
		if err := ps.SharePct[s].Merge(other.SharePct[s]); err != nil {
			return fmt.Errorf("core: merging share sketches: %w", err)
		}
		if err := ps.Loss[s].Merge(other.Loss[s]); err != nil {
			return fmt.Errorf("core: merging loss sketches: %w", err)
		}
		if err := ps.QueueDelaySec[s].Merge(other.QueueDelaySec[s]); err != nil {
			return fmt.Errorf("core: merging queue-delay sketches: %w", err)
		}
	}
	if err := ps.Utilization.Merge(other.Utilization); err != nil {
		return fmt.Errorf("core: merging utilization sketches: %w", err)
	}
	if err := ps.SimSeconds.Merge(other.SimSeconds); err != nil {
		return fmt.Errorf("core: merging sim-seconds sketches: %w", err)
	}
	ps.N += other.N
	// other.Obs is itself the summed aggregate of other's trials, which
	// TrialObs.add folds like any single trial's.
	ps.Obs.add(other.Obs)
	return nil
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
				agg = stats.NewSketchAlpha(p.Sketches.SharePct[0].Alpha())
			}
			for s := 0; s < 2; s++ {
				if err := agg.Merge(p.Sketches.SharePct[s]); err != nil {
					return nil // mixed geometries: no meaningful aggregate
				}
			}
		}
	}
	return agg
}
