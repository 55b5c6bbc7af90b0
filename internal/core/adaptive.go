package core

import (
	"fmt"
	"math"
	"sort"

	"prudentia/internal/obs"
	"prudentia/internal/stats"
)

// Adaptive trial budgets: a coarse-to-fine screening pass that ranks
// pairs by predicted unfairness and allocates the cycle's trial budget
// depth-first to the most contested pairs, plus the per-trial
// sequential stopper (internal/stats) that ends a pair's trials the
// moment its verdict is statistically settled. Everything here is
// deterministic: screening seeds live in their own namespace and flow
// through executeAttempt (journaled, replayable), scores and budgets
// are pure functions of the screening results, and the stopper is a
// pure function of the counted-trial prefix — so adaptive runs resume,
// replay, and shard across the fleet byte-identically, exactly like
// fixed-budget runs.

// AdaptiveOptions selects the adaptive trial-budget subsystem: a non-nil
// SchedulerOptions.Adaptive arms it, and nil keeps the fixed §3.4
// batch-escalation protocol, and with it the golden acceptance output,
// bit for bit. It has no fields. The rule it selects is the one below,
// so there is one stopping rule to measure, not a family of them.
type AdaptiveOptions struct{}

// The adaptive rule. The verdict boundary, for the stability rule and
// the screening score alike, is stats.DefaultFairSharePct, and every
// pair gets one screening trial.
const (
	// adaptiveMinTrials is the floor below which no pair stops early:
	// two agreeing trials may stop, two disagreeing ones keep going,
	// because the n<3 CI degrades to the sample range.
	adaptiveMinTrials = 2
	// adaptiveCIWidthPct is the convergence target in MmF-share points:
	// a pair stops when the 95% CI on both slots' share medians is at
	// most this wide.
	adaptiveCIWidthPct = 10
	// adaptiveStableK stops a pair after this many consecutive trials
	// that each left the fair/unfair verdict unchanged.
	adaptiveStableK = 3
	// adaptiveBudgetFrac sizes the cycle's total trial budget as a
	// fraction of the fixed protocol's worst case (pairs × MaxTrials).
	// The floor (adaptiveMinTrials per pair) is always granted; the
	// remainder is handed depth-first to the most contested pairs until
	// it runs out.
	adaptiveBudgetFrac = 0.6
)

// adaptivePolicy builds the stats-layer stopper for one pair: the pair's
// allocated ceiling (budget) caps MaxTrials; a pair with no allocation
// (direct RunPair calls) falls back to the scheduler-wide maximum.
func adaptivePolicy(budget, maxTrials int) stats.SequentialPolicy {
	ceil := budget
	if ceil <= 0 {
		ceil = maxTrials
	}
	return stats.SequentialPolicy{
		MinTrials:    adaptiveMinTrials,
		MaxTrials:    ceil,
		MaxCIWidth:   adaptiveCIWidthPct,
		StableK:      adaptiveStableK,
		FairSharePct: stats.DefaultFairSharePct,
	}
}

// screenSeedID encodes a screening trial's identity, in a namespace
// disjoint from pairs (top bits 000), solo calibration (1…), and
// canary probes (01…): screening reuses the pair identity under a 001
// prefix, so a pair's screening seeds never collide with its counted
// trials and replay from the journal by seed exactly like them.
func screenSeedID(a, b int) uint64 { return 1<<61 | pairSeedID(a, b) }

// screenResult is one pair's screening outcome: its contestedness
// score, or scored=false when no screening trial produced a usable
// result (the pair then sorts as maximally contested — uncertainty
// buys depth).
type screenResult struct {
	score  float64
	scored bool
}

// screen runs the coarse screening pass over the pending pair states
// and returns the per-pair budget allocation. Each pair gets one
// screening trial, a ScreenTiming spec with a screen-namespace seed run
// through executeAttempt, so it is journaled and replays by seed on
// resume; it does no trial counting, no breaker scoring, and emits no
// fault-ledger events (screening is planning, not measurement — a
// failed screen costs a score, never a retry or quarantine). The
// returned map is a pure function of the screening results, which
// makes the whole allocation deterministic for any worker count.
// Screening is one more task set on the shared runner (parallel.go); in
// fleet mode it stays coordinator-side — the budgets ride the PairTasks
// — and uses the coordinator's local pool width.
func (m *matrix) screen(states []*pairState) (budgets map[string]int, interrupted bool) {
	results := make([]screenResult, len(states))
	interrupted = runOrdered(len(states), m.w.Workers, m.w.Interrupt,
		func(i int, interrupt func() bool) (screenResult, bool) {
			if interrupt() {
				return screenResult{}, false
			}
			st := states[i]
			label := st.pairLabel() + " (screen)"
			seed := trialSeed(m.opts.BaseSeed, screenSeedID(st.a, st.b), 0)
			spec := Spec{
				Incumbent: st.svcA,
				Contender: st.svcB,
				Net:       m.net,
				Seed:      seed,
				Chaos:     m.opts.Chaos,
			}.ScreenTiming()
			ar := executeAttempt(m.journal, m.w.Obs, m.opts, spec, label, 0)
			m.w.Obs.screenTrial(label, seed, 0, ar.class)
			if ar.class != "ok" {
				return screenResult{}, true // unscored: sorts as most contested
			}
			return screenResult{
				score:  stats.ScreenScore(ar.res.SharePct[0], ar.res.SharePct[1], stats.DefaultFairSharePct),
				scored: true,
			}, true
		},
		func(i int, r screenResult) { results[i] = r })
	if interrupted {
		return nil, true
	}
	return allocateBudgets(states, results, m.opts.MaxTrials), false
}

// allocateBudgets turns screening scores into per-pair trial ceilings:
// every pair gets the adaptive floor, and the remaining pool — the
// adaptiveBudgetFrac slice of the fixed protocol's worst case — is
// granted depth-first (up to MaxTrials each) in contestedness order,
// ties broken by canonical pair index so the allocation is
// deterministic.
func allocateBudgets(states []*pairState, results []screenResult, maxTrials int) map[string]int {
	n := len(states)
	floor := min(adaptiveMinTrials, maxTrials)
	pool := max(int(math.Ceil(adaptiveBudgetFrac*float64(n)*float64(maxTrials)))-n*floor, 0)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	score := func(i int) float64 {
		if !results[i].scored {
			return -1
		}
		return results[i].score
	}
	sort.SliceStable(order, func(x, y int) bool {
		sx, sy := score(order[x]), score(order[y])
		if sx != sy {
			return sx < sy
		}
		return order[x] < order[y]
	})
	budgets := make(map[string]int, n)
	for _, st := range states {
		budgets[st.key] = floor
	}
	for _, i := range order {
		extra := min(maxTrials-floor, pool)
		budgets[states[i].key] += extra
		pool -= extra
		if pool == 0 {
			break
		}
	}
	return budgets
}

// applyBudgets stamps the allocation onto the pending states and emits
// one budget_alloc timeline event per pair, in canonical order.
func (m *matrix) applyBudgets(states []*pairState, budgets map[string]int) {
	for _, st := range states {
		if b, ok := budgets[st.key]; ok && b > 0 {
			st.budget = b
		}
		m.w.Obs.emit(obs.TimelineEvent{Kind: "budget_alloc", Pair: st.pairLabel(),
			Detail: fmt.Sprintf("budget %d", st.budget)})
	}
}
