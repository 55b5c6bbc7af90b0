package core

import (
	"encoding/json"
	"fmt"

	"prudentia/internal/netem"
	"prudentia/internal/services"
	"prudentia/internal/stats"
)

// This file holds the single-pair trial protocol (§3.4) shared by the
// matrix scheduler and RunPair. One pairState is driven to completion by
// one pairProtocol; because every trial seed is a pure function of
// (BaseSeed, pair identity, attempt index), the protocol's outcome is
// independent of *when* or *where* (which goroutine) it executes — the
// property the parallel matrix engine in parallel.go is built on.

// pairState tracks one unordered pair through the trial protocol.
type pairState struct {
	a, b     int // indices into the catalog (a <= b)
	key      string
	seedID   uint64
	outcome  *PairOutcome
	target   int // trials to run before the next CI evaluation
	budget   int // adaptive trial ceiling (0 = opts.MaxTrials)
	attempt  int // every attempt: counted, discarded, corrupt, or failed
	cooldown int // protocol rounds to sit out (retry backoff)
	done     bool
	svcA     services.Service
	svcB     services.Service

	// Adaptive-stopper state (transient: both are reconstructed
	// deterministically by the protocol itself, so they are never
	// persisted — journal replay re-runs the protocol from attempt 0).
	//
	// evalN is the counted-trial count at the last adaptive
	// evaluation, making re-evaluations after non-counted attempts
	// no-ops.
	evalN int
	// ring holds the Fair verdict recorded after each of the most
	// recent counted trials (at most StableK−1 entries): the verdict is
	// a pure function of the counted-trial prefix, so entry i is what
	// recomputing that prefix would yield.
	ring []bool
}

// newPairState builds the protocol's starting state for catalog pair
// (a, b): identity, seed namespace, first evaluation target, and an
// empty outcome with its sketch set. svcB may be nil (a solo RunPair).
func newPairState(a, b int, svcA, svcB services.Service, opts SchedulerOptions) *pairState {
	st := &pairState{
		a: a, b: b,
		key:     pairKey(a, b),
		seedID:  pairSeedID(a, b),
		svcA:    svcA,
		svcB:    svcB,
		target:  opts.MinTrials,
		outcome: &PairOutcome{Incumbent: svcA.Name(), Sketches: newPairSketches()},
	}
	if svcB != nil {
		st.outcome.Contender = svcB.Name()
	}
	return st
}

// pairLabel names a pair for ledger events and progress lines.
func (st *pairState) pairLabel() string {
	return st.outcome.Incumbent + " vs " + st.outcome.Contender
}

// pairProtocol executes the §3.4 trial-escalation protocol for one pair
// in one network setting. It owns no shared state: every trial builds a
// private sim.Engine and netem testbed from its seed, and all ledger
// traffic goes through emit, so any number of pairProtocols may run
// concurrently on the same catalog.
type pairProtocol struct {
	net  netem.Config
	opts SchedulerOptions
	// emit receives every ledger event the protocol produces — failures,
	// retries, discards, corrupt results, quarantines. Recording is
	// unconditional: every attempt is emitted before any return path,
	// including the attempt that quarantines the pair or marks it
	// Unstable. Must be non-nil (use a no-op func for no listener).
	emit func(FaultEvent)
	// ins, when non-nil, receives live observability (duration
	// histograms, timeline events) for every attempt, recorded from the
	// executing goroutine: wall-stamped data, not part of the
	// deterministic output contract. The protocol counts nothing — the
	// registry's trial ledger is folded from the finished outcome on the
	// release path (Instruments.foldPair).
	ins *Instruments
	// sink, when non-nil, is the write-ahead trial journal: every
	// executed attempt is recorded, and attempts recovered from a
	// previous process are replayed by seed instead of re-simulated.
	sink *journalSink
}

// attemptResult is one executed (or journal-replayed) attempt after
// classification. Exactly the fields the scheduler needs survive:
// counted and noise-discarded outcomes are distinguished by class,
// corrupt results keep only their validity error (their metrics can
// hold NaN, which neither the journal nor anyone else should carry),
// and failures keep their typed kind and message.
type attemptResult struct {
	// class is "ok", "discard", "corrupt", or "fail".
	class string
	// res is the full result for class "ok" only.
	res TrialResult
	// detail is the ledger detail line for "discard" (external-loss
	// summary) and "corrupt" (validity error).
	detail string
	// failKind/failMsg carry the typed failure for class "fail".
	failKind, failMsg string
	// simSeconds is the simulated duration, for the duration histogram
	// (zero for failures, matching the pre-journal behaviour).
	simSeconds float64
	// replayed marks attempts served from the journal.
	replayed bool
}

// classifyAttempt folds a raw trial outcome into an attemptResult.
// Classification happens exactly once, at execution time — replayed
// attempts reuse the journaled class instead of re-deriving it, so a
// resumed cycle cannot re-litigate a past decision.
func classifyAttempt(res TrialResult, err error, seed uint64) attemptResult {
	if err != nil {
		te := asTrialError(err, seed)
		return attemptResult{class: "fail", failKind: te.Kind, failMsg: te.Msg}
	}
	if res.Discarded {
		return attemptResult{class: "discard",
			detail:     fmt.Sprintf("external loss %.4f%%", 100*res.ExternalLossRate),
			simSeconds: res.Obs.SimSeconds}
	}
	if verr := res.Validate(); verr != nil {
		return attemptResult{class: "corrupt", detail: verr.Error(), simSeconds: res.Obs.SimSeconds}
	}
	return attemptResult{class: "ok", res: res, simSeconds: res.Obs.SimSeconds}
}

// attemptFromEntry rebuilds an attemptResult from a journaled entry.
func attemptFromEntry(e journalEntry) (attemptResult, bool) {
	ar := attemptResult{class: e.Kind, detail: e.Detail,
		failKind: e.FailKind, failMsg: e.Detail,
		simSeconds: e.SimSeconds, replayed: true}
	switch e.Kind {
	case "ok":
		if err := json.Unmarshal(e.Result, &ar.res); err != nil {
			return attemptResult{}, false
		}
		ar.simSeconds = ar.res.Obs.SimSeconds
	case "discard", "corrupt", "fail":
	default:
		return attemptResult{}, false
	}
	return ar, true
}

// executeAttempt runs one attempt through the reaper and the journal:
// a journaled seed replays without simulating; a fresh execution is
// classified once and journaled. It performs no metric counting —
// callers own their ledgers, which is what keeps calibration attempts
// out of the prudentia_trials_* counters.
func executeAttempt(sink *journalSink, ins *Instruments, opts SchedulerOptions,
	spec Spec, pair string, attempt int) attemptResult {
	if sink != nil {
		if e, ok := sink.lookup(spec.Seed); ok {
			if ar, valid := attemptFromEntry(e); valid {
				ins.journalReplay()
				return ar
			}
		}
	}
	res, err := runTrialBudgeted(spec, wallBudget(spec, opts.WallBudget))
	ar := classifyAttempt(res, err, spec.Seed)
	if sink != nil {
		e := journalEntry{Seed: spec.Seed, Pair: pair, Attempt: attempt, Kind: ar.class,
			Detail: ar.detail, FailKind: ar.failKind, SimSeconds: ar.simSeconds}
		if ar.class == "fail" {
			e.Detail = ar.failMsg
			e.SimSeconds = 0
		}
		var merr error
		if ar.class == "ok" {
			// Counted results passed the validity gate, so they always
			// round-trip through JSON; one that could not goes unjournaled.
			e.Result, merr = json.Marshal(&ar.res)
			e.SimSeconds = 0 // carried inside Result
		}
		if merr == nil {
			sink.record(e, ins)
		}
	}
	return ar
}

// run drives st until the pair reaches a final state, polling interrupt
// (if non-nil) before every trial. It returns false if interrupted, in
// which case the outcome is incomplete and must not be treated as final.
func (pp *pairProtocol) run(st *pairState, interrupt func() bool) bool {
	for !st.done {
		if interrupt != nil && interrupt() {
			return false
		}
		if st.cooldown > 0 {
			st.cooldown--
			continue
		}
		pp.runOne(st)
		pp.evaluate(st)
	}
	return true
}

// runOne executes a single counted trial for the pair, retrying
// noise-discarded and validity-gate-rejected trials immediately (each
// with a fresh seed). A failing attempt — injected error or recovered
// panic — records a TrialFailure and returns so the pair backs off;
// MaxFailures quarantines the pair.
func (pp *pairProtocol) runOne(st *pairState) {
	label := st.pairLabel()
	for {
		seed := trialSeed(pp.opts.BaseSeed, st.seedID, st.attempt)
		attempt := st.attempt
		st.attempt++
		spec := pp.opts.spec(st.svcA, st.svcB, pp.net, seed)
		start := pp.ins.now()
		pp.ins.trialStart(label, seed, attempt)
		ar := executeAttempt(pp.sink, pp.ins, pp.opts, spec, label, attempt)
		pp.ins.trialEnd(label, seed, attempt, &ar, start)
		switch ar.class {
		case "fail":
			st.outcome.Failures = append(st.outcome.Failures,
				TrialFailure{Attempt: attempt, Seed: seed, Kind: ar.failKind, Msg: ar.failMsg})
			pp.emit(FaultEvent{Pair: label, Kind: ar.failKind, Attempt: attempt, Seed: seed, Detail: ar.failMsg})
			if len(st.outcome.Failures) >= pp.opts.MaxFailures {
				st.outcome.Failed = true
				st.done = true
				pp.emit(FaultEvent{Pair: label, Kind: "quarantine", Attempt: attempt, Seed: seed,
					Detail: fmt.Sprintf("%d failures", len(st.outcome.Failures))})
			} else {
				st.outcome.Retries++
				st.cooldown = backoffRounds(len(st.outcome.Failures))
				pp.emit(FaultEvent{Pair: label, Kind: "retry", Attempt: attempt, Seed: seed,
					Detail: fmt.Sprintf("backoff %d rounds", st.cooldown)})
			}
			return
		case "discard":
			st.outcome.Discards++
			pp.emit(FaultEvent{Pair: label, Kind: "discard", Attempt: attempt, Seed: seed,
				Detail: ar.detail})
			if st.outcome.Discards+st.outcome.Corrupt > pp.opts.MaxDiscards {
				st.outcome.Unstable = true
				st.done = true
				return
			}
			continue
		case "corrupt":
			st.outcome.Corrupt++
			pp.emit(FaultEvent{Pair: label, Kind: "corrupt", Attempt: attempt, Seed: seed, Detail: ar.detail})
			if st.outcome.Discards+st.outcome.Corrupt > pp.opts.MaxDiscards {
				st.outcome.Unstable = true
				st.done = true
				return
			}
			continue
		}
		st.outcome.Sketches.observe(&ar.res)
		return
	}
}

// evaluate applies the stopping rule: the adaptive sequential stopper
// after every counted trial when SchedulerOptions.Adaptive is armed,
// the fixed §3.4 batch-boundary rule otherwise. Both read only the
// counted-trial prefix on the outcome — failed, reaped, discarded, and
// corrupt attempts never enter the stopping statistic (they are
// handled by the retry/quarantine machinery in runOne), so chaos
// cannot perturb a stopping decision, only delay it.
func (pp *pairProtocol) evaluate(st *pairState) {
	if st.done {
		return
	}
	if ad := pp.opts.Adaptive; ad != nil {
		pp.evaluateAdaptive(st, ad)
		return
	}
	n := st.outcome.Counted()
	if n < st.target {
		return
	}
	if st.outcome.ciSatisfied(pp.opts.ToleranceMbps) {
		st.done = true
	} else if st.target < pp.opts.MaxTrials {
		st.target += pp.opts.Step
		if st.target > pp.opts.MaxTrials {
			st.target = pp.opts.MaxTrials
		}
	} else {
		st.outcome.Unstable = true
		st.done = true
	}
}

// evaluateAdaptive applies the sequential stopper (internal/stats) to
// the pair's share sketches and its ring of recorded verdicts. The
// decision is a pure function of the counted-trial prefix and the
// pair's allocated ceiling, so resumed, fleet, and serial executions of
// the same pair stop identically. A pair that exhausts the
// scheduler-wide MaxTrials without converging is marked Unstable
// exactly as under the fixed rule; one cut short by a smaller screening
// allocation is merely budget-stopped — it was never given full depth,
// so it earns no instability verdict.
func (pp *pairProtocol) evaluateAdaptive(st *pairState, ad *AdaptiveOptions) {
	// Evaluate only when a counted trial arrived, which keeps the ring
	// at one entry per prefix.
	sk := st.outcome.Sketches
	if sk.N == st.evalN {
		return
	}
	st.evalN = sk.N
	pol := ad.policy(st.budget, pp.opts.MaxTrials)
	d := pol.EvaluateSketch(sk.SharePct[0], sk.SharePct[1], st.ring)
	if pol.StableK > 1 {
		st.ring = append(st.ring, d.Fair)
		if len(st.ring) > pol.StableK-1 {
			st.ring = st.ring[1:]
		}
	}
	if !d.Stop {
		return
	}
	st.outcome.StopReason = d.Reason
	st.outcome.Budget = pol.MaxTrials
	if d.Reason == stats.StopBudget && pol.MaxTrials >= pp.opts.MaxTrials {
		st.outcome.Unstable = true
	}
	st.done = true
}
