package core

import (
	"cmp"

	"prudentia/internal/chaos"
	"prudentia/internal/netem"
	"prudentia/internal/services"
	"prudentia/internal/sim"
)

// SchedulerOptions govern the §3.4 trial-escalation protocol. A field
// left zero means "the preset's value for the setting this runs in":
// a cycle's matrix and RunPair fill it from PaperOptions(net),
// Watchdog.SettingOptions from the paper or the quick preset, field by
// field, so the stopping tolerance always belongs to its setting.
type SchedulerOptions struct {
	// MinTrials is the initial batch (paper: 10); more trials run in
	// Step-sized sets up to MaxTrials (paper: 30) until the 95% CI of
	// the median throughput is within ToleranceMbps.
	MinTrials, MaxTrials, Step int
	// ToleranceMbps is the CI half-width target: 0.5 in the
	// highly-constrained setting, 1.5 in the moderately-constrained one.
	ToleranceMbps float64
	// BaseSeed scopes the deterministic seed sequence.
	BaseSeed uint64
	// Timing transforms each trial's Spec (DefaultTiming, QuickTiming,
	// or custom); nil means DefaultTiming.
	Timing func(Spec) Spec `json:"-"`
	// Chaos, if non-nil, arms the deterministic fault plan on every
	// trial the scheduler runs.
	Chaos *chaos.Config
	// WallBudget is the hung-trial reaper's wall-clock budget factor:
	// each trial may spend at most (simulated seconds × WallBudget) of
	// real time before it is reaped and recorded as a typed "reap"
	// failure feeding the retry/quarantine machinery. Zero disables
	// reaping. A simulated trial normally runs orders of magnitude
	// faster than real time, so even a factor well below 1 only fires
	// on genuinely wedged trials.
	WallBudget float64
	// Adaptive, if non-nil, replaces the fixed batch-escalation
	// stopping rule with the adaptive trial-budget subsystem
	// (adaptive.go): a coarse screening pass allocates per-pair trial
	// ceilings, and the sequential stopper ends each pair's trials the
	// moment its verdict is statistically settled. Nil preserves the
	// fixed protocol — and the golden acceptance output — bit for bit.
	Adaptive *AdaptiveOptions
	// Deprecated: SketchStats is read by nothing (sketches are the only
	// statistics store); it remains until bench/ drops its assignment.
	SketchStats bool `json:"-"`
}

// PaperOptions returns the per-setting options the paper uses.
func PaperOptions(net netem.Config) SchedulerOptions {
	tol := 1.5
	if net.RateBps <= 10_000_000 {
		tol = 0.5
	}
	return SchedulerOptions{
		MinTrials: 10, MaxTrials: 30, Step: 10,
		ToleranceMbps: tol,
	}
}

// QuickOptions returns a laptop-scale configuration: fewer, shorter
// trials with a proportionally looser CI target.
func QuickOptions(net netem.Config) SchedulerOptions {
	o := PaperOptions(net)
	o.MinTrials, o.MaxTrials, o.Step = 3, 9, 3
	o.ToleranceMbps *= 3
	o.Timing = Spec.QuickTiming
	return o
}

// withDefaults resolves o for the network setting it will run in: every
// field left zero takes the value PaperOptions(net) gives it. Resolution
// is field by field, so a caller who sets only a seed, a Timing or a
// chaos plan still gets the setting's own tolerance.
func (o SchedulerOptions) withDefaults(net netem.Config) SchedulerOptions {
	return o.over(PaperOptions(net))
}

// over returns base with every field o sets laid over it — the one
// place options are resolved (withDefaults over the paper preset,
// Watchdog.SettingOptions over the paper or the quick one).
func (o SchedulerOptions) over(base SchedulerOptions) SchedulerOptions {
	o.MinTrials = cmp.Or(o.MinTrials, base.MinTrials)
	o.MaxTrials = cmp.Or(o.MaxTrials, base.MaxTrials)
	o.Step = cmp.Or(o.Step, base.Step)
	o.ToleranceMbps = cmp.Or(o.ToleranceMbps, base.ToleranceMbps)
	if o.Timing == nil {
		o.Timing = base.Timing
	}
	return o
}

// spec builds one trial's Spec under these options: the services, the
// network, the seed and the chaos plan, timed by Timing (nil means
// DefaultTiming).
func (o SchedulerOptions) spec(incumbent, contender services.Service, net netem.Config, seed uint64) Spec {
	s := Spec{Incumbent: incumbent, Contender: contender, Net: net, Seed: seed, Chaos: o.Chaos}
	if o.Timing != nil {
		return o.Timing(s)
	}
	return s.DefaultTiming()
}

// The retry budgets, the same under every preset.
const (
	// maxDiscards bounds re-runs of noise-discarded (and validity-gate
	// rejected) trials before a pair is marked Unstable.
	maxDiscards = 10
	// maxFailures bounds erroring/panicking attempts before a pair is
	// quarantined (marked Failed). Failed attempts retry at once with
	// fresh seeds: a trial simulates on its own engine, so waiting would
	// change nothing it computes.
	maxFailures = 3
)

// PairOutcome aggregates all counted trials of one service pair. One
// experiment yields two numbers (§2.2): slot 0 is the incumbent's view,
// slot 1 the contender's, so a single pair fills two heatmap cells.
type PairOutcome struct {
	Incumbent, Contender string
	// Discards counts noise-discarded (re-run) trials.
	Discards int
	// Corrupt counts trials the validity gate rejected (re-run like
	// discards; Discards+Corrupt share the maxDiscards budget).
	Corrupt int
	// Unstable marks pairs that exhausted MaxTrials without meeting the
	// CI criterion — the paper's Obs 15 services (OneDrive, Vimeo).
	Unstable bool
	// Failed marks quarantined pairs: maxFailures attempts errored or
	// panicked, so the pair is excluded from this cycle's statistics
	// and its heatmap cells render as ××.
	Failed bool
	// Skipped marks pairs denied admission because a member service's
	// circuit breaker was open at matrix start: no trials ran at all,
	// and the heatmap cells render as ○○ (degraded, not failed).
	Skipped bool
	// Retries counts failed attempts that were retried with fresh seeds.
	Retries int
	// Failures records every failed attempt for the artifact ledger.
	Failures []TrialFailure
	// StopReason records why the adaptive sequential stopper ended the
	// pair (stats.StopCIWidth, StopStable, or StopBudget). Empty on
	// fixed-budget runs, so their artifacts are unchanged byte for
	// byte.
	StopReason string `json:"stop_reason,omitempty"`
	// Budget is the pair's allocated trial ceiling under adaptive
	// budgets (zero on fixed-budget runs).
	Budget int `json:"budget,omitempty"`
	// Sketches is the pair's statistics state, and the only one: a
	// sketch per metric holding every counted trial's sample, plus the
	// summed telemetry aggregate (sketchstats.go). Every accessor below
	// is bit-identical to order statistics over the raw samples, at any
	// trial count (ARCHITECTURE.md, "Statistics pipeline"). Nil only on
	// a breaker-skipped pair, which ran no trials: check Skipped or
	// Counted before reading a statistic, as MatrixResult's accessors do.
	Sketches *PairSketches `json:"sketches,omitempty"`
}

// Counted returns the number of counted trials. All "how many trials
// entered the statistic" logic goes through here.
func (p *PairOutcome) Counted() int {
	if p.Sketches == nil { // breaker-skipped: no trials ran
		return 0
	}
	return p.Sketches.N
}

// MedianSharePct is the heatmap cell value for a slot.
func (p *PairOutcome) MedianSharePct(slot int) float64 {
	return p.Sketches.SharePct[slot].Median()
}

// IQRSharePct is the error bar for a slot.
func (p *PairOutcome) IQRSharePct(slot int) float64 {
	return p.Sketches.SharePct[slot].IQR()
}

// MedianMbps is the median measured throughput for a slot.
func (p *PairOutcome) MedianMbps(slot int) float64 {
	return p.Sketches.Mbps[slot].Median()
}

// MedianUtilization is the Fig 11 cell value.
func (p *PairOutcome) MedianUtilization() float64 {
	return p.Sketches.Utilization.Median()
}

// MedianLoss is the Fig 12 cell value for a slot.
func (p *PairOutcome) MedianLoss(slot int) float64 {
	return p.Sketches.Loss[slot].Median()
}

// MedianQueueDelay is the Fig 13 cell value for a slot.
func (p *PairOutcome) MedianQueueDelay(slot int) sim.Time {
	return sim.Time(p.Sketches.QueueDelaySec[slot].Median() * float64(sim.Second))
}

// ShareCI returns the 95% order-statistic confidence interval on one
// slot's median MmF share percentage — the band the adaptive stopper
// watches and the sweep harness exports. Zero-width at the sample when
// fewer than three trials counted.
func (p *PairOutcome) ShareCI(slot int) (lo, hi float64) {
	return p.Sketches.SharePct[slot].MedianCI()
}

// ciSatisfied applies the §3.4 stopping rule to both slots' throughput.
func (p *PairOutcome) ciSatisfied(tol float64) bool {
	return p.Sketches.Mbps[0].CIWithin(tol) && p.Sketches.Mbps[1].CIWithin(tol)
}

// RunPair runs the full §3.4 protocol for one pair in one network
// setting: the library's entry point for a single pair (a nil contender
// runs the incumbent solo). Trial errors and panics never propagate:
// they are recorded on the outcome, retried with fresh seeds, and
// quarantine the pair (Failed) after maxFailures. onFault, if non-nil,
// receives the pair's fault events — those a cycle's ledger records for
// it — with every attempt emitted before any return path. The pair takes
// catalog identity (0, 1), so its trial seeds, outcome and events are
// those of the same two services at indices 0 and 1 of a local matrix:
// every trial seed is a pure function of (opts.BaseSeed, pair identity,
// attempt), and the adaptive stopper, with no screening to allocate a
// ceiling, stops by MaxTrials.
func RunPair(incumbent, contender services.Service, net netem.Config, opts SchedulerOptions, onFault func(FaultEvent)) *PairOutcome {
	opts = opts.withDefaults(net)
	st := newPairState(0, 1, incumbent, contender, opts)
	if onFault == nil {
		onFault = func(FaultEvent) {}
	}
	pp := &pairProtocol{net: net, opts: opts, emit: onFault}
	pp.run(st, nil)
	return st.outcome
}
