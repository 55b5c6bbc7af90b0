package core

import (
	"prudentia/internal/netem"
	"prudentia/internal/obs"
)

// Recipe is everything that determines a trial's bytes, as the resolved
// values a run computes with rather than the flags or fields it was
// given: the catalog in order and each setting's network and scheduler
// options. The manifest embeds it and the fleet handshake hashes it, so
// the two cannot drift and a worker is admitted for what it would
// compute. Worker count, paths and supervision knobs that leave trials
// alone are deliberately absent.
type Recipe struct {
	Services []string        `json:"services"`
	Settings []SettingRecipe `json:"settings"`
}

// SettingRecipe is one setting's network and its SettingOptions(0, si).
// Timing, a func, cannot be written down; the trial timing it yields is.
// The first three timing fields speak the paper's vocabulary;
// SimulatedSec is what a trial actually runs, duration_s - cooldown_s
// (the engine stops where the window closes). It is in the recipe, hence
// in the fleet fingerprint, so a build that still simulates the tail,
// whose TrialObs counters would differ from a serial run's, is refused
// at hello.
type SettingRecipe struct {
	Net          netem.Config     `json:"net"`
	Options      SchedulerOptions `json:"options"`
	DurationSec  float64          `json:"duration_s"`
	WarmupSec    float64          `json:"warmup_s"`
	CooldownSec  float64          `json:"cooldown_s"`
	SimulatedSec float64          `json:"simulated_s"`
}

// Recipe renders the watchdog's resolved configuration.
func (w *Watchdog) Recipe() Recipe {
	var r Recipe
	for _, svc := range w.Services {
		r.Services = append(r.Services, svc.Name())
	}
	for si, net := range w.Settings {
		o := w.SettingOptions(0, si)
		t := o.spec(nil, nil, net, 0)
		o.Timing = nil
		r.Settings = append(r.Settings, SettingRecipe{
			Net: net, Options: o,
			DurationSec:  t.Duration.Seconds(),
			WarmupSec:    t.Warmup.Seconds(),
			CooldownSec:  t.Cooldown.Seconds(),
			SimulatedSec: t.horizon().Seconds(),
		})
	}
	return r
}

// BuildManifest assembles the per-cycle run manifest: the reproduction
// recipe (Recipe, whose catalog also fills the envelope field older
// readers know) plus the registry snapshot at cycle end. cr may be nil (the cycle RunCycle
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
// it released: an abandoned pair is in neither.
func (w *Watchdog) BuildManifest(cr *CycleResult, reg *obs.Registry) obs.Manifest {
	m := obs.NewManifest()
	m.Workers = w.Workers
	rec := w.Recipe()
	m.Recipe, m.Services = rec, rec.Services
	m.BaseSeed = w.Opts.BaseSeed
	m.ChaosEnabled = w.Opts.Chaos.Enabled()
	m.AdaptiveEnabled = w.Opts.Adaptive != nil
	m.StatsMode = "sketch"
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
