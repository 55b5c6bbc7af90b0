package core

import (
	"cmp"
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

// AdaptiveOptions arm and tune the adaptive trial-budget subsystem on
// SchedulerOptions.Adaptive. The zero value of every field selects a
// sensible default; a nil *AdaptiveOptions disables the subsystem
// entirely (the fixed §3.4 batch-escalation protocol, and with it the
// golden acceptance output, is preserved bit for bit).
type AdaptiveOptions struct {
	// MinTrials is the floor below which no pair stops early
	// (default 2 — two agreeing trials may stop, two disagreeing ones
	// keep going, because the n<3 CI degrades to the sample range).
	MinTrials int
	// CIWidthPct is the convergence target in MmF-share points: a pair
	// stops when the 95% CI on both slots' share medians is at most
	// this wide (default 10).
	CIWidthPct float64
	// StableK stops a pair after K consecutive trials that each left
	// the fair/unfair verdict unchanged (default 3).
	StableK int
	// FairSharePct is the verdict boundary used by the stability rule
	// and the screening score (default 80, the paper's "roughly fair"
	// line).
	FairSharePct float64
	// ScreenTrials is the number of coarse screening trials per pair
	// (ScreenTiming, screen-seed namespace; default 1).
	ScreenTrials int
	// BudgetFrac sizes the cycle's total trial budget as a fraction of
	// the fixed protocol's worst case (pairs × MaxTrials, default 0.6).
	// The floor (MinTrials per pair) is always granted; the remainder
	// is handed depth-first to the most contested pairs until it runs
	// out.
	BudgetFrac float64
}

// withDefaults returns a defaulted copy (the caller's struct is never
// mutated — SchedulerOptions values are copied freely across
// goroutines and processes).
func (a *AdaptiveOptions) withDefaults() *AdaptiveOptions {
	d := *a
	d.MinTrials = cmp.Or(d.MinTrials, 2)
	d.CIWidthPct = cmp.Or(d.CIWidthPct, 10)
	d.StableK = cmp.Or(d.StableK, 3)
	d.FairSharePct = cmp.Or(d.FairSharePct, stats.DefaultFairSharePct)
	d.ScreenTrials = cmp.Or(d.ScreenTrials, 1)
	d.BudgetFrac = cmp.Or(d.BudgetFrac, 0.6)
	return &d
}

// policy builds the stats-layer stopper for one pair: the pair's
// allocated ceiling (budget) caps MaxTrials; a pair with no allocation
// (direct RunPair calls, restored pre-screening states) falls back to
// the scheduler-wide maximum.
func (a *AdaptiveOptions) policy(budget, maxTrials int) stats.SequentialPolicy {
	ceil := budget
	if ceil <= 0 {
		ceil = maxTrials
	}
	return stats.SequentialPolicy{
		MinTrials:    a.MinTrials,
		MaxTrials:    ceil,
		MaxCIWidth:   a.CIWidthPct,
		StableK:      a.StableK,
		FairSharePct: a.FairSharePct,
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
// and returns the per-pair budget allocation. Screening trials run
// ScreenTiming specs with screen-namespace seeds through
// executeAttempt, so they are journaled and replay by seed on resume;
// they do no trial counting, no breaker scoring, and emit no
// fault-ledger events (screening is planning, not measurement — a
// failed screen costs a score, never a retry or quarantine). The
// returned map is a pure function of the screening results, which
// makes the whole allocation deterministic for any worker count.
// Screening is one more task set on the shared runner (parallel.go); in
// fleet mode it stays coordinator-side — the budgets ride the PairTasks
// — and uses the coordinator's local pool width.
func (m *Matrix) screen(states []*pairState, opts SchedulerOptions) (budgets map[string]int, interrupted bool) {
	ad := opts.Adaptive
	results := make([]screenResult, len(states))
	interrupted = runOrdered(len(states), m.Workers, m.Interrupt,
		func(i int, interrupt func() bool) (screenResult, bool) {
			st := states[i]
			label := st.pairLabel() + " (screen)"
			var s0, s1 []float64
			for k := 0; k < ad.ScreenTrials; k++ {
				if interrupt() {
					return screenResult{}, false
				}
				seed := trialSeed(opts.BaseSeed, screenSeedID(st.a, st.b), k)
				spec := Spec{
					Incumbent: st.svcA,
					Contender: st.svcB,
					Net:       m.Net,
					Seed:      seed,
					Chaos:     opts.Chaos,
				}.ScreenTiming()
				ar := executeAttempt(m.Journal, m.Obs, opts, spec, label, k)
				m.Obs.screenTrial(label, seed, k, ar.class)
				if ar.class == "ok" {
					s0 = append(s0, ar.res.SharePct[0])
					s1 = append(s1, ar.res.SharePct[1])
				}
			}
			if len(s0) == 0 {
				return screenResult{}, true // unscored: sorts as most contested
			}
			return screenResult{
				score:  stats.ScreenScore(stats.Median(s0), stats.Median(s1), ad.FairSharePct),
				scored: true,
			}, true
		},
		func(i int, r screenResult) { results[i] = r })
	if interrupted {
		return nil, true
	}
	return allocateBudgets(states, results, opts), false
}

// allocateBudgets turns screening scores into per-pair trial ceilings:
// every pair gets the adaptive floor, and the remaining pool — the
// BudgetFrac slice of the fixed protocol's worst case — is granted
// depth-first (up to MaxTrials each) in contestedness order, ties
// broken by canonical pair index so the allocation is deterministic.
func allocateBudgets(states []*pairState, results []screenResult, opts SchedulerOptions) map[string]int {
	ad := opts.Adaptive
	n := len(states)
	floor := ad.MinTrials
	if floor > opts.MaxTrials {
		floor = opts.MaxTrials
	}
	pool := int(math.Ceil(ad.BudgetFrac*float64(n)*float64(opts.MaxTrials))) - n*floor
	if pool < 0 {
		pool = 0
	}
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
		extra := opts.MaxTrials - floor
		if extra > pool {
			extra = pool
		}
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
func (m *Matrix) applyBudgets(states []*pairState, budgets map[string]int) {
	for _, st := range states {
		if b, ok := budgets[st.key]; ok && b > 0 {
			st.budget = b
		}
		m.Obs.emit(obs.TimelineEvent{Kind: "budget_alloc", Pair: st.pairLabel(),
			Detail: fmt.Sprintf("budget %d", st.budget)})
	}
}
