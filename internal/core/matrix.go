package core

import (
	"fmt"
	"math"

	"prudentia/internal/netem"
	"prudentia/internal/services"
)

// Matrix runs the all-to-all pairwise protocol over a service list in one
// network setting, producing the data behind the paper's heatmaps
// (Figs 2, 11, 12, 13). Each pair runs the §3.4 trial-escalation
// protocol (pairproto.go): an initial batch of MinTrials, escalated in
// Step-sized sets up to MaxTrials until the throughput CI tightens,
// exactly the live system's behaviour.
//
// The scheduler is crash-safe: a panicking or erroring trial becomes a
// recorded failure, failed attempts retry with fresh seeds under capped
// exponential backoff, pairs that keep failing are quarantined
// (Failed), and corrupt results are discarded by the validity gate. No
// trial fault ever propagates out of Run; the only error Run returns is
// ErrInterrupted when the Interrupt hook requests a graceful stop.
//
// With Workers > 1 the matrix fans pairs out to a worker pool
// (parallel.go). Every trial owns a private sim.Engine + netem testbed
// and every seed is a pure function of (BaseSeed, pair, attempt), so
// results — heatmaps, medians, fault ledger — are byte-identical for
// any worker count, including 1.
type Matrix struct {
	Services []services.Service
	Net      netem.Config
	Opts     SchedulerOptions

	// Workers is the number of concurrent pair workers; values <= 1 run
	// the matrix serially on the caller goroutine. Output is identical
	// for any value. With Workers > 1 the Interrupt hook must be safe
	// for concurrent use (it is polled from worker goroutines).
	Workers int

	// Remote, if non-nil, executes pending pairs on a remote runner
	// (the fleet coordinator) instead of the local pool; Workers is
	// then ignored for pair execution. Results are merged through the
	// same ordered-release path, so output stays byte-identical to a
	// local run. Cycle and Setting are carried in each PairTask so
	// workers re-derive the scheduler options — and with them every
	// trial seed — from their own configuration.
	Remote  RemoteRunner
	Cycle   int
	Setting int

	// Budgets maps pairKey → allocated trial ceiling, restored from a
	// checkpoint. When nil and Opts.Adaptive is armed, Run performs the
	// coarse screening pass itself and allocates budgets from the
	// scores; when non-nil the stored allocation is taken verbatim —
	// screening is skipped — so a resumed adaptive cycle reproduces the
	// original run's stopping decisions without re-planning them.
	Budgets map[string]int

	// OnBudgets, if non-nil, receives the budget allocation the moment
	// it is decided (the checkpoint-persistence hook). Called once per
	// Run, before any full-depth trial starts, from the goroutine that
	// called Run; not called when Budgets was supplied.
	OnBudgets func(budgets map[string]int)

	// SkipService, if non-nil, denies admission by service name: every
	// pair with a member the hook rejects is marked Skipped (rendered
	// ○○) and released immediately, without running a single trial.
	// The watchdog supplies the circuit-breaker open set here; the
	// decision is evaluated once, during matrix construction, so
	// mid-matrix breaker trips cannot perturb an in-flight matrix.
	SkipService func(name string) bool

	// Journal, if non-nil, is the cycle's write-ahead trial journal
	// sink: every executed attempt is recorded, and recovered attempts
	// replay by seed instead of re-simulating — which is all a resumed
	// matrix needs to be identical to an uninterrupted one, every trial
	// seed being a pure function of (BaseSeed, pair, attempt). Under
	// Remote it holds one record per finished pair instead (remote.go).
	Journal *journalSink

	// Breakers, if non-nil, accumulates per-service health scores from
	// finished pairs on the canonical release path (deterministic for
	// any worker count).
	Breakers *BreakerSet

	// Interrupt, if non-nil, is polled between trials; returning true
	// stops the matrix with ErrInterrupted after draining the trials in
	// flight. Must be concurrency-safe when Workers > 1.
	Interrupt func() bool

	// OnPair, if non-nil, is invoked each time a pair reaches a final
	// state. Pairs are delivered in canonical catalog order regardless
	// of Workers, always from the goroutine that called Run.
	OnPair func(key string, out *PairOutcome)

	// OnFault, if non-nil, receives the live robustness ledger:
	// failures, retries, discards, corrupt results, quarantines. Events
	// are delivered grouped per pair in canonical order, always from
	// the goroutine that called Run.
	OnFault func(ev FaultEvent)

	// Progress, if non-nil, receives a line per completed pair (same
	// ordering and goroutine guarantees as OnPair).
	Progress func(format string, args ...any)

	// Obs, if non-nil, receives telemetry: trial/pair counters folded
	// from each released outcome, plus live duration histograms and
	// timeline events from the executing goroutines; see Instruments.
	Obs *Instruments
}

// MatrixResult holds every pair outcome plus name indexing.
type MatrixResult struct {
	Names []string
	Net   netem.Config
	// Pairs maps "a|b" (a, b sorted catalog indices) to outcomes where
	// slot 0 is the lower-index service.
	Pairs map[string]*PairOutcome
}

func pairKey(a, b int) string { return fmt.Sprintf("%d|%d", a, b) }

// Run executes the matrix.
func (m *Matrix) Run() (*MatrixResult, error) {
	opts := m.Opts.withDefaults(m.Net)
	res := &MatrixResult{
		Net:   m.Net,
		Pairs: make(map[string]*PairOutcome),
	}
	var states []*pairState
	for i := range m.Services {
		res.Names = append(res.Names, m.Services[i].Name())
		for j := i; j < len(m.Services); j++ {
			key := pairKey(i, j)
			if open, skip := m.skipPair(i, j); skip {
				out := &PairOutcome{
					Incumbent: m.Services[i].Name(),
					Contender: m.Services[j].Name(),
					Skipped:   true,
				}
				res.Pairs[key] = out
				label := out.Incumbent + " vs " + out.Contender
				m.Obs.pairSkipped(label, open)
				m.fault(FaultEvent{Pair: label, Kind: "breaker_skip", Detail: "breaker open: " + open})
				if m.OnPair != nil {
					m.OnPair(key, out)
				}
				if m.Progress != nil {
					m.Progress("pair %s: SKIPPED (breaker open: %s)", label, open)
				}
				continue
			}
			st := newPairState(i, j, m.Services[i], m.Services[j], opts)
			states = append(states, st)
			res.Pairs[key] = st.outcome
		}
	}

	if opts.Adaptive != nil && len(states) > 0 {
		budgets := m.Budgets
		if budgets == nil {
			var interrupted bool
			budgets, interrupted = m.screen(states, opts)
			if interrupted {
				return res, ErrInterrupted
			}
			if m.OnBudgets != nil {
				m.OnBudgets(budgets)
			}
		}
		m.applyBudgets(states, budgets)
	}

	// Who produces the results — local goroutines or the remote runner —
	// is the only difference between a local and a distributed matrix.
	var interrupted bool
	if m.Remote != nil {
		var err error
		if interrupted, err = m.runAllRemote(states); err != nil {
			return res, err
		}
	} else {
		interrupted = m.runAll(states, opts)
	}
	if interrupted {
		return res, ErrInterrupted
	}
	return res, nil
}

// fault emits a ledger event if a listener is attached.
func (m *Matrix) fault(ev FaultEvent) {
	if m.OnFault != nil {
		m.OnFault(ev)
	}
}

// skipPair reports whether either member of pair (i, j) is denied
// admission, returning the first denied member's name.
func (m *Matrix) skipPair(i, j int) (openService string, skip bool) {
	if m.SkipService == nil {
		return "", false
	}
	if n := m.Services[i].Name(); m.SkipService(n) {
		return n, true
	}
	if n := m.Services[j].Name(); m.SkipService(n) {
		return n, true
	}
	return "", false
}

// finish publishes a pair that reached a final state: breaker scores,
// registry counters and the OnPair hook are all derived here, from the
// outcome, on the canonical release path — the only one, which executed,
// replayed and fleet pairs alike go through — so they are ordered and
// identical for any worker count and across a resume.
func (m *Matrix) finish(st *pairState) {
	m.Breakers.scorePair(st.outcome)
	m.Obs.foldPair(st.outcome)
	m.Obs.pairDone(st)
	if m.OnPair != nil {
		m.OnPair(st.key, st.outcome)
	}
	if m.Progress == nil {
		return
	}
	o := st.outcome
	if o.Failed {
		m.Progress("pair %s: QUARANTINED after %d failed attempts (%d retries)",
			st.pairLabel(), len(o.Failures), o.Retries)
		return
	}
	m.Progress("pair %s: %d trials, share %.0f%%/%.0f%%, unstable=%v",
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
