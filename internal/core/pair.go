package core

import (
	"cmp"
	"errors"
	"fmt"

	"prudentia/internal/chaos"
	"prudentia/internal/netem"
	"prudentia/internal/services"
	"prudentia/internal/sim"
)

// SchedulerOptions govern the §3.4 trial-escalation protocol. A field
// left zero means "the preset's value for the setting this runs in":
// Matrix.Run, RunPair and RunPairTask fill it from PaperOptions(net),
// Watchdog.SettingOptions from the paper or the quick preset, field by
// field, so the stopping tolerance always belongs to its setting.
type SchedulerOptions struct {
	// MinTrials is the initial batch (paper: 10); more trials run in
	// Step-sized sets up to MaxTrials (paper: 30) until the 95% CI of
	// the median throughput is within ToleranceMbps. Past
	// stats.SketchBufferCap (128) counted trials a pair's quantiles
	// carry 1% relative error (see PairOutcome.Sketches).
	MinTrials, MaxTrials, Step int
	// ToleranceMbps is the CI half-width target: 0.5 in the
	// highly-constrained setting, 1.5 in the moderately-constrained one.
	ToleranceMbps float64
	// BaseSeed scopes the deterministic seed sequence.
	BaseSeed uint64
	// Timing transforms each trial's Spec (DefaultTiming, QuickTiming,
	// or custom); nil means DefaultTiming.
	Timing func(Spec) Spec `json:"-"`
	// MaxDiscards bounds re-runs of noise-discarded (and validity-gate
	// rejected) trials before a pair is marked Unstable.
	MaxDiscards int
	// MaxFailures bounds erroring/panicking attempts before a pair is
	// quarantined (marked Failed); default 3. Failed attempts retry with
	// fresh seeds under capped exponential backoff in scheduler rounds.
	MaxFailures int
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
		MaxDiscards:   10,
		MaxFailures:   3,
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
	o.MaxDiscards = cmp.Or(o.MaxDiscards, base.MaxDiscards)
	o.MaxFailures = cmp.Or(o.MaxFailures, base.MaxFailures)
	if o.Timing == nil {
		o.Timing = base.Timing
	}
	if o.Adaptive != nil {
		o.Adaptive = o.Adaptive.withDefaults()
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

// maxBackoffRounds caps the exponential retry backoff (in scheduler
// rounds, i.e. virtual attempts the pair sits out).
const maxBackoffRounds = 8

// backoffRounds returns the capped exponential backoff after the n-th
// failure (1-based): 1, 2, 4, 8, 8, ...
func backoffRounds(n int) int {
	if n <= 0 {
		return 0
	}
	if n > 4 {
		return maxBackoffRounds
	}
	return 1 << (n - 1)
}

// PairOutcome aggregates all counted trials of one service pair. One
// experiment yields two numbers (§2.2): slot 0 is the incumbent's view,
// slot 1 the contender's, so a single pair fills two heatmap cells.
type PairOutcome struct {
	Incumbent, Contender string
	// Discards counts noise-discarded (re-run) trials.
	Discards int
	// Corrupt counts trials the validity gate rejected (re-run like
	// discards; Discards+Corrupt share the MaxDiscards budget).
	Corrupt int
	// Unstable marks pairs that exhausted MaxTrials without meeting the
	// CI criterion — the paper's Obs 15 services (OneDrive, Vimeo).
	Unstable bool
	// Failed marks quarantined pairs: MaxFailures attempts errored or
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
	// Sketches is the pair's statistics state, and the only one: an O(1)
	// mergeable quantile sketch per metric plus the summed telemetry
	// aggregate (sketchstats.go). Up to stats.SketchBufferCap (128)
	// counted trials every accessor below is bit-identical to order
	// statistics over the raw samples; a caller asking for more gets
	// quantiles within 1% relative error (docs/SKETCHES.md). Nil only on
	// a breaker-skipped pair, which ran no trials: check Skipped or
	// Counted before reading a statistic, as MatrixResult's accessors do.
	Sketches *PairSketches `json:"sketches,omitempty"`
}

// ErrNoSketches marks a decoded pair that ran trials yet carries no
// usable sketch state: the raw-sample shape older builds wrote under
// -exact-stats. Accepting it would publish silent blank cells.
var ErrNoSketches = errors.New("pair holds raw samples instead of sketches (written with -exact-stats by an older build); re-run the cycle")

// Validate checks a pair decoded from a journaled pair record or a
// fleet result: every pair except a breaker-skipped one must carry its
// full sketch set (ErrNoSketches otherwise).
func (p *PairOutcome) Validate() error {
	if p.Skipped || p.Sketches.complete() {
		return nil
	}
	return ErrNoSketches
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

// RunPair runs the full protocol for one pair in one network setting.
// Trial errors and panics never propagate: they are recorded on the
// outcome, retried with fresh seeds, and quarantine the pair (Failed)
// after MaxFailures. The only returned errors are structural
// (impossible specs). To observe the per-attempt fault ledger, use
// RunPairObserved.
func RunPair(incumbent, contender services.Service, net netem.Config, opts SchedulerOptions) (*PairOutcome, error) {
	return RunPairObserved(incumbent, contender, net, opts, nil)
}

// RunPairObserved is RunPair with a live fault-ledger hook: onFault (if
// non-nil) receives one FaultEvent per failed, discarded, or corrupt
// attempt, plus retry/quarantine transitions — the same stream
// Matrix.OnFault delivers. Recording is unconditional: every attempt is
// both kept on the outcome and emitted to the ledger before any return
// path, including the attempt that quarantines the pair or exhausts
// MaxDiscards. (Earlier versions of RunPair bypassed the ledger
// entirely and returned on terminal attempts without reporting them;
// it now shares the matrix scheduler's pairProtocol, so the two paths
// cannot drift.)
func RunPairObserved(incumbent, contender services.Service, net netem.Config, opts SchedulerOptions, onFault func(FaultEvent)) (*PairOutcome, error) {
	if incumbent == nil {
		return nil, fmt.Errorf("core: RunPair requires an incumbent service")
	}
	opts = opts.withDefaults(net)
	st := newPairState(0, 1, incumbent, contender, opts)
	emit := onFault
	if emit == nil {
		emit = func(FaultEvent) {}
	}
	pp := &pairProtocol{net: net, opts: opts, emit: emit}
	pp.run(st, nil)
	return st.outcome, nil
}
