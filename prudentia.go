// Package prudentia is the public API of the Prudentia Internet-fairness
// watchdog reproduction: a deterministic testbed that measures how pairs
// of service models share an emulated bottleneck link, following the
// methodology of "Prudentia: Findings of an Internet Fairness Watchdog"
// (SIGCOMM 2024).
//
// Quick start:
//
//	res, err := prudentia.Run(prudentia.Experiment{
//		Incumbent: "YouTube",
//		Contender: "Mega",
//		Setting:   prudentia.HighlyConstrained,
//		Trials:    5,
//	})
//	// res.MedianSharePct[0] is YouTube's median % of its max-min fair
//	// share; res.MedianSharePct[1] is Mega's.
//
// The full catalog of Table 1 service models is available via Services;
// lower-level control (custom network settings and catalogs, the
// continuous all-pairs watchdog) is exposed through NewWatchdog.
package prudentia

import (
	"fmt"

	"prudentia/internal/core"
	"prudentia/internal/netem"
	"prudentia/internal/services"
	"prudentia/internal/sim"
)

// Setting names one of the paper's standing network environments.
type Setting string

const (
	// HighlyConstrained is the 8 Mbps bottleneck (§3.1).
	HighlyConstrained Setting = "highly-constrained"
	// ModeratelyConstrained is the 50 Mbps bottleneck (§3.1).
	ModeratelyConstrained Setting = "moderately-constrained"
)

// Config converts a Setting to its netem configuration.
func (s Setting) Config() (netem.Config, error) {
	switch s {
	case HighlyConstrained:
		return netem.HighlyConstrained(), nil
	case ModeratelyConstrained:
		return netem.ModeratelyConstrained(), nil
	default:
		return netem.Config{}, fmt.Errorf("prudentia: unknown setting %q", s)
	}
}

// Services lists the Table 1 catalog names.
func Services() []string {
	var names []string
	for _, s := range services.Catalog() {
		names = append(names, s.Name())
	}
	return names
}

// Experiment describes a pairwise fairness measurement.
type Experiment struct {
	// Incumbent and Contender are catalog names (see Services). An empty
	// Contender runs a solo calibration.
	Incumbent, Contender string
	// Setting selects the bottleneck environment.
	Setting Setting
	// Trials is the number of counted trials (default: the paper's
	// escalation protocol starting at 10; small values pin the count).
	// Statistics are exact order statistics at any trial count
	// (ARCHITECTURE.md, "Statistics pipeline").
	Trials int
	// Quick compresses trials to 60 s (for interactive use); otherwise
	// the paper's 10-minute timing is used.
	Quick bool
	// Seed scopes determinism (default 1).
	Seed uint64
}

// Result summarizes an experiment.
type Result struct {
	Incumbent, Contender string
	// MedianSharePct is each side's median percentage of its max-min
	// fair share (incumbent first) — the paper's headline metric.
	MedianSharePct [2]float64
	// MedianMbps is each side's median measured throughput.
	MedianMbps [2]float64
	// IQRSharePct is the inter-quartile range of the share percentages.
	IQRSharePct [2]float64
	// Trials is the number of counted trials; Unstable marks pairs that
	// failed the paper's CI criterion at the trial cap (Obs 15).
	Trials   int
	Unstable bool
	// Failed marks a quarantined pair: repeated trial errors or panics
	// exhausted the scheduler's retry budget, so the medians above are
	// meaningless and the pair was excluded rather than aborting the run.
	Failed bool
}

// Run executes one experiment using the §3.4 protocol.
func Run(e Experiment) (Result, error) {
	cfg, err := e.Setting.Config()
	if err != nil {
		return Result{}, err
	}
	inc := services.ByName(e.Incumbent)
	if inc == nil {
		return Result{}, fmt.Errorf("prudentia: unknown service %q", e.Incumbent)
	}
	var cont services.Service
	if e.Contender != "" {
		if cont = services.ByName(e.Contender); cont == nil {
			return Result{}, fmt.Errorf("prudentia: unknown service %q", e.Contender)
		}
	}
	opts := core.PaperOptions(cfg)
	if e.Quick {
		opts = core.QuickOptions(cfg)
	}
	if e.Trials > 0 {
		opts.MinTrials, opts.MaxTrials, opts.Step = e.Trials, e.Trials, e.Trials
	}
	if e.Seed != 0 {
		opts.BaseSeed = e.Seed
	}
	out := core.RunPair(inc, cont, cfg, opts, nil)
	res := Result{
		Incumbent: e.Incumbent,
		Contender: e.Contender,
		Trials:    out.Counted(),
		Unstable:  out.Unstable,
		Failed:    out.Failed,
	}
	for slot := 0; slot < 2; slot++ {
		res.MedianSharePct[slot] = out.MedianSharePct(slot)
		res.MedianMbps[slot] = out.MedianMbps(slot)
		res.IQRSharePct[slot] = out.IQRSharePct(slot)
	}
	return res, nil
}

// NewWatchdog returns the continuously-cycling watchdog over the full
// throughput catalog and both standing settings, as deployed at
// internetfairness.net.
func NewWatchdog() *core.Watchdog { return core.NewWatchdog() }

// QuickTiming and DefaultTiming re-export the trial timing presets for
// use with the lower-level core API.
var (
	QuickTiming   = core.Spec.QuickTiming
	DefaultTiming = core.Spec.DefaultTiming
)

// Minute and Second re-export virtual-time units for configuring specs.
const (
	Second = sim.Second
	Minute = sim.Minute
)
