package core

import (
	"fmt"
	"math"

	"prudentia/internal/netem"
)

// matrix is one setting's view of its Watchdog: it runs the all-to-all
// pairwise protocol over the watchdog's catalog in one network setting,
// producing the data behind the paper's heatmaps (Figs 2, 11, 12, 13).
// Watchdog.RunCycle builds one per setting, after that setting's solo
// calibration; nothing else does. Each pair runs the §3.4
// trial-escalation protocol (pairproto.go): an initial batch of
// MinTrials, escalated in Step-sized sets up to MaxTrials until the
// throughput CI tightens, exactly the live system's behaviour.
//
// The scheduler is crash-safe: a panicking or erroring trial becomes a
// recorded failure, failed attempts retry at once with fresh seeds,
// pairs that keep failing are quarantined
// (Failed), and corrupt results are discarded by the validity gate. No
// trial fault ever propagates out of Run; the only error Run returns is
// ErrInterrupted when the Interrupt hook requests a graceful stop.
//
// What the whole cycle shares — Services, Workers, Interrupt, the fault
// ledger, Progress, Breakers, Obs — is read from the Watchdog, which
// documents it; the fields here are what differs per setting.
type matrix struct {
	w *Watchdog
	// net is the setting's network and opts its resolved scheduler
	// options (Watchdog.SettingOptions), BaseSeed already scoped to the
	// cycle and setting.
	net  netem.Config
	opts SchedulerOptions
	// open is the admission set: every pair with a member in it is
	// marked Skipped (rendered ○○) and released immediately, without
	// running a single trial. It is the breakers' open set when the
	// matrix is built, so mid-matrix breaker trips cannot perturb an
	// in-flight matrix.
	open map[string]bool
	// journal, if non-nil, is the cycle's write-ahead trial journal
	// sink: every executed attempt is recorded, and recovered attempts
	// replay by seed instead of re-simulating — which is all a resumed
	// matrix needs to be identical to an uninterrupted one, every trial
	// seed being a pure function of (BaseSeed, pair, attempt). That
	// includes the adaptive budgets: screening replays like any other
	// attempt, so a resumed Run allocates the interrupted run's ceilings
	// again.
	journal *journalSink
}

// MatrixResult holds every pair outcome plus name indexing.
type MatrixResult struct {
	Names []string
	// Pairs maps "a|b" (a, b sorted catalog indices) to outcomes where
	// slot 0 is the lower-index service.
	Pairs map[string]*PairOutcome
}

func pairKey(a, b int) string { return fmt.Sprintf("%d|%d", a, b) }

// Run executes the matrix.
func (m *matrix) Run() (*MatrixResult, error) {
	svcs := m.w.Services
	res := &MatrixResult{Pairs: make(map[string]*PairOutcome)}
	var states []*pairState
	for i := range svcs {
		res.Names = append(res.Names, svcs[i].Name())
		for j := i; j < len(svcs); j++ {
			key := pairKey(i, j)
			if open, skip := m.skipPair(i, j); skip {
				out := &PairOutcome{
					Incumbent: svcs[i].Name(),
					Contender: svcs[j].Name(),
					Skipped:   true,
				}
				res.Pairs[key] = out
				label := out.Incumbent + " vs " + out.Contender
				m.w.Obs.pairSkipped(label, open)
				m.w.fault(FaultEvent{Pair: label, Kind: "breaker_skip", Detail: "breaker open: " + open})
				m.w.progress("pair %s: SKIPPED (breaker open: %s)", label, open)
				continue
			}
			st := newPairState(i, j, svcs[i], svcs[j], m.opts)
			states = append(states, st)
			res.Pairs[key] = st.outcome
		}
	}

	if m.opts.Adaptive != nil && len(states) > 0 {
		budgets, interrupted := m.screen(states)
		if interrupted {
			return res, ErrInterrupted
		}
		m.applyBudgets(states, budgets)
	}

	if m.runAll(states) {
		return res, ErrInterrupted
	}
	return res, nil
}

// skipPair reports whether either member of pair (i, j) is denied
// admission, returning the first denied member's name.
func (m *matrix) skipPair(i, j int) (openService string, skip bool) {
	for _, k := range [2]int{i, j} {
		if n := m.w.Services[k].Name(); m.open[n] {
			return n, true
		}
	}
	return "", false
}

// finish publishes a pair that reached a final state: breaker scores,
// registry counters and the Progress line are all derived here, from the
// outcome, on the canonical release path — the only one, which executed
// and replayed pairs alike go through — so they are ordered and
// identical for any worker count and across a resume.
func (m *matrix) finish(st *pairState) {
	m.w.Breakers.scorePair(st.outcome)
	m.w.Obs.foldPair(st.outcome)
	m.w.Obs.pairDone(st)
	if m.w.Progress == nil {
		return
	}
	o := st.outcome
	if o.Failed {
		m.w.Progress("pair %s: QUARANTINED after %d failed attempts (%d retries)",
			st.pairLabel(), len(o.Failures), o.Retries)
		return
	}
	m.w.Progress("pair %s: %d trials, share %.0f%%/%.0f%%, unstable=%v",
		st.pairLabel(), o.Counted(),
		o.MedianSharePct(0), o.MedianSharePct(1), o.Unstable)
}

// indexOf resolves a service name in the result.
func (r *MatrixResult) indexOf(name string) int {
	for i, n := range r.Names {
		if n == name {
			return i
		}
	}
	return -1
}

// Cell returns the pair outcome and which slot `incumbent` occupies in
// it. ok is false if either name is unknown.
func (r *MatrixResult) Cell(incumbent, contender string) (p *PairOutcome, slot int, ok bool) {
	i, c := r.indexOf(incumbent), r.indexOf(contender)
	if i < 0 || c < 0 {
		return nil, 0, false
	}
	a, b, slot := i, c, 0
	if a > b {
		a, b, slot = c, i, 1
	}
	p, ok = r.Pairs[pairKey(a, b)]
	return p, slot, ok
}

// cellValue resolves one heatmap cell and states the accessors' sentinel
// contract once: ok is false for an unknown name or a pair with no
// counted trials; a breaker-skipped pair reads -Inf (rendered ○○ by the
// report layer) and a quarantined one NaN (rendered ××); every other
// pair reads median(outcome, incumbent's slot).
func (r *MatrixResult) cellValue(incumbent, contender string, median func(p *PairOutcome, slot int) float64) (float64, bool) {
	p, slot, ok := r.Cell(incumbent, contender)
	switch {
	case !ok:
		return 0, false
	case p.Skipped:
		return math.Inf(-1), true
	case p.Failed:
		return math.NaN(), true
	case p.Counted() == 0:
		return 0, false
	}
	return median(p, slot), true
}

// SharePct returns the Fig 2 heatmap value: the median MmF share
// percentage the incumbent obtained against the contender.
func (r *MatrixResult) SharePct(incumbent, contender string) (float64, bool) {
	return r.cellValue(incumbent, contender, (*PairOutcome).MedianSharePct)
}

// Utilization returns the Fig 11 value for a pair (symmetric).
func (r *MatrixResult) Utilization(a, b string) (float64, bool) {
	return r.cellValue(a, b, func(p *PairOutcome, _ int) float64 { return p.MedianUtilization() })
}

// LossRate returns the Fig 12 value: incumbent's loss vs contender.
func (r *MatrixResult) LossRate(incumbent, contender string) (float64, bool) {
	return r.cellValue(incumbent, contender, (*PairOutcome).MedianLoss)
}

// QueueDelayMs returns the Fig 13 value in milliseconds.
func (r *MatrixResult) QueueDelayMs(incumbent, contender string) (float64, bool) {
	return r.cellValue(incumbent, contender, func(p *PairOutcome, slot int) float64 {
		return p.MedianQueueDelay(slot).Seconds() * 1000
	})
}

// FailedPairs lists quarantined pairs as "incumbent vs contender".
func (r *MatrixResult) FailedPairs() []string {
	var out []string
	for i := range r.Names {
		for j := i; j < len(r.Names); j++ {
			if p := r.Pairs[pairKey(i, j)]; p != nil && p.Failed {
				out = append(out, p.Incumbent+" vs "+p.Contender)
			}
		}
	}
	return out
}

// LosingShares lists, for every ordered pair (incumbent, contender) with
// i != c, the median share of the service that lost (<100%), supporting
// the paper's Obs 1 summary statistics.
func (r *MatrixResult) LosingShares() []float64 {
	var out []float64
	for i := range r.Names {
		for j := i + 1; j < len(r.Names); j++ {
			p := r.Pairs[pairKey(i, j)]
			if p == nil || p.Failed || p.Counted() == 0 {
				continue
			}
			s0, s1 := p.MedianSharePct(0), p.MedianSharePct(1)
			if s0 < s1 {
				out = append(out, s0)
			} else {
				out = append(out, s1)
			}
		}
	}
	return out
}

// SelfShares lists each service's median share when competing with
// another instance of itself (the Obs 1 "88% of MmF share" statistic).
func (r *MatrixResult) SelfShares() []float64 {
	var out []float64
	for i := range r.Names {
		p := r.Pairs[pairKey(i, i)]
		if p == nil || p.Failed || p.Counted() == 0 {
			continue
		}
		out = append(out, p.MedianSharePct(0), p.MedianSharePct(1))
	}
	return out
}
