package core

import (
	"prudentia/internal/obs"
)

// BuildManifest assembles the per-cycle run manifest: the reproduction
// recipe (seed scope, catalog, settings, worker count, chaos flag) plus
// the registry snapshot at cycle end. cr may be nil (the cycle RunCycle
// last started was interrupted; the manifest carries that cycle's
// number, the one its checkpoint holds); reg may be nil (empty metric
// snapshot).
//
// The snapshot's counters reconcile exactly with the cycle result:
//
//	prudentia_trials_completed_total == Σ PairOutcome.Counted()
//	prudentia_netem_dropped_packets_total == Σ PairOutcome.Sketches.Obs.DroppedPackets
//
// and so on for every netem/transport/chaos family, because those
// families are a fold over released pair outcomes (see Instruments). An
// interrupted cycle's snapshot reconciles the same way with the pairs
// its checkpoint holds: an abandoned pair is in neither.
func (w *Watchdog) BuildManifest(cr *CycleResult, reg *obs.Registry) obs.Manifest {
	m := obs.NewManifest()
	m.Workers = w.Workers
	m.BaseSeed = w.Opts.BaseSeed
	m.ChaosEnabled = w.Opts.Chaos.Enabled()
	m.AdaptiveEnabled = w.Opts.Adaptive != nil
	m.StatsMode = "sketch"
	for _, svc := range w.Services {
		m.Services = append(m.Services, svc.Name())
	}
	m.Settings = w.Settings
	if cr != nil {
		m.Cycle = cr.Cycle
	} else {
		m.Cycle = w.inFlight
		m.Interrupted = true
	}
	m.Breakers = w.Breakers.Status()
	m.Journal = w.lastJournal
	if reg != nil {
		m.Metrics = reg.Snapshot()
	}
	return m
}
