package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"prudentia/internal/chaos"
	"prudentia/internal/netem"
	"prudentia/internal/sim"
)

// adaptiveTestOpts returns options where the fixed protocol runs 6
// trials per converged pair, leaving the sequential stopper real room
// to save work.
func adaptiveTestOpts(net netem.Config) SchedulerOptions {
	o := PaperOptions(net)
	o.MinTrials, o.MaxTrials, o.Step = 6, 12, 6
	o.ToleranceMbps = 50 // fixed rule stops at MinTrials
	o.BaseSeed = 11
	o.Timing = func(s Spec) Spec {
		s.Duration, s.Warmup, s.Cooldown = 20*sim.Second, 4*sim.Second, 2*sim.Second
		return s
	}
	return o
}

// TestAdaptiveVsFixedEquivalence is the headline acceptance property:
// on a converged matrix, adaptive mode reaches the same fair/unfair
// verdict for every pair as fixed-trial mode while running at least
// 30% fewer counted trials.
func TestAdaptiveVsFixedEquivalence(t *testing.T) {
	net := netem.HighlyConstrained()
	run := func(opts SchedulerOptions) *MatrixResult {
		t.Helper()
		m := testMatrix(&Watchdog{Services: threeServices()}, net, opts)
		res, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	fixed := run(adaptiveTestOpts(net))
	adOpts := adaptiveTestOpts(net)
	adOpts.Adaptive = &AdaptiveOptions{}
	adaptive := run(adOpts)

	const fairPct = 80
	totalFixed, totalAdaptive := 0, 0
	for key, pf := range fixed.Pairs {
		pa := adaptive.Pairs[key]
		if pa == nil {
			t.Fatalf("pair %s missing from adaptive result", key)
		}
		vf := pf.MedianSharePct(0) >= fairPct && pf.MedianSharePct(1) >= fairPct
		va := pa.MedianSharePct(0) >= fairPct && pa.MedianSharePct(1) >= fairPct
		if vf != va {
			t.Errorf("pair %s (%s vs %s): fixed verdict fair=%v, adaptive fair=%v",
				key, pf.Incumbent, pf.Contender, vf, va)
		}
		if pa.StopReason == "" {
			t.Errorf("pair %s: adaptive outcome carries no stop reason", key)
		}
		if pa.Budget <= 0 {
			t.Errorf("pair %s: adaptive outcome carries no budget", key)
		}
		if pf.StopReason != "" || pf.Budget != 0 {
			t.Errorf("pair %s: fixed outcome leaked adaptive fields: %q/%d",
				key, pf.StopReason, pf.Budget)
		}
		totalFixed += pf.Counted()
		totalAdaptive += pa.Counted()
	}
	if totalAdaptive >= totalFixed {
		t.Fatalf("adaptive ran %d trials, fixed %d; want strictly fewer", totalAdaptive, totalFixed)
	}
	if float64(totalAdaptive) > 0.7*float64(totalFixed) {
		t.Fatalf("adaptive ran %d trials vs fixed %d (%.0f%%); want ≥30%% savings",
			totalAdaptive, totalFixed, 100*float64(totalAdaptive)/float64(totalFixed))
	}
}

// TestAdaptiveWorkerDeterminism: the adaptive result — outcomes, stop
// reasons, and the budget allocation itself, which every stopped
// outcome carries as its Budget — is byte-identical for any worker
// count, even with chaos making screening trials fail.
func TestAdaptiveWorkerDeterminism(t *testing.T) {
	net := netem.HighlyConstrained()
	run := func(workers int) []byte {
		opts := adaptiveTestOpts(net)
		opts.MaxTrials = 9
		opts.Chaos = &chaos.Config{PanicRate: 0.15, ErrorRate: 0.10, CorruptRate: 0.10}
		opts.Adaptive = &AdaptiveOptions{}
		m := testMatrix(&Watchdog{Services: threeServices(), Workers: workers}, net, opts)
		res, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		allocated := 0
		for _, p := range res.Pairs {
			if p.Budget > 0 {
				allocated++
			}
		}
		if allocated == 0 {
			t.Fatal("no outcome carries a budget: the result JSON has no allocation to compare")
		}
		rj, _ := json.Marshal(res)
		return rj
	}
	if r1, r4 := run(1), run(4); !bytes.Equal(r1, r4) {
		t.Fatalf("adaptive matrix differs across worker counts:\n%s\nvs\n%s", r1, r4)
	}
}

// TestScreeningUsesThePool: screening is one more task set on the
// shared runner, so a Workers=4 matrix screens its pairs concurrently
// rather than one after another. Every screening task polls the hook
// once before its trial and screening finishes before any pair trial
// polls, so two of the first six polls in flight at once are two
// screening tasks in flight. That the allocation does not depend on the
// width is TestAdaptiveWorkerDeterminism's.
func TestScreeningUsesThePool(t *testing.T) {
	net := netem.HighlyConstrained()
	const screens = 6 // pairs of threeServices
	var polls, inHook atomic.Int32
	var concurrent atomic.Bool
	met := make(chan struct{})
	var once sync.Once
	rendezvous := func() bool {
		if polls.Add(1) > screens {
			return false
		}
		if inHook.Add(1) > 1 {
			concurrent.Store(true)
			once.Do(func() { close(met) })
		}
		select {
		case <-met:
		case <-time.After(2 * time.Second):
			once.Do(func() { close(met) }) // serial screening: give up, fail below
		}
		inHook.Add(-1)
		return false
	}
	opts := adaptiveTestOpts(net)
	opts.Adaptive = &AdaptiveOptions{}
	m := testMatrix(&Watchdog{Services: threeServices(), Workers: 4, Interrupt: rendezvous}, net, opts)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if !concurrent.Load() {
		t.Error("screening with Workers=4 never had two tasks in flight")
	}
}

// TestAdaptiveResumeEquivalence: a killed adaptive cycle resumed from
// journal+checkpoint replays to the same stopping decisions — the
// resumed CycleResult is byte-identical to an uninterrupted run's,
// including StopReason and Budget on every outcome.
func TestAdaptiveResumeEquivalence(t *testing.T) {
	mk := func(ckpt, jrnl string, interrupt func() bool) *Watchdog {
		opts := fastOpts(netem.HighlyConstrained())
		opts.MinTrials, opts.MaxTrials, opts.Step = 4, 8, 4
		opts.BaseSeed = 11
		opts.Chaos = &chaos.Config{PanicRate: 0.15, ErrorRate: 0.10, CorruptRate: 0.10}
		opts.Adaptive = &AdaptiveOptions{}
		return &Watchdog{
			Services:       threeServices(),
			Settings:       []netem.Config{netem.HighlyConstrained()},
			Opts:           opts,
			CheckpointPath: ckpt,
			JournalPath:    jrnl,
			Interrupt:      interrupt,
		}
	}
	wC := mk("", "", nil)
	crC, err := wC.RunCycle()
	if err != nil {
		t.Fatal(err)
	}
	jc, _ := json.Marshal(crC)

	// Tasks poll once per calibration, screening trial and pair trial:
	// 12 polls is past the 3 calibrations and the 6 screening trials,
	// three trials into the matrix; 7 polls lands mid-screening. Either
	// way the allocation comes back from the replayed screening.
	for _, after := range []int{12, 7} {
		dir := t.TempDir()
		ckpt := filepath.Join(dir, "ckpt.json")
		jrnl := filepath.Join(dir, "trials.wal")

		calls := 0
		wA := mk(ckpt, jrnl, func() bool { calls++; return calls > after })
		if _, err := wA.RunCycle(); err != ErrInterrupted {
			t.Fatalf("interrupted cycle returned %v, want ErrInterrupted", err)
		}

		wB := mk(ckpt, jrnl, nil)
		crB, err := wB.RunCycle()
		if err != nil {
			t.Fatal(err)
		}
		if jb, _ := json.Marshal(crB); !bytes.Equal(jb, jc) {
			t.Fatalf("interrupt after %d polls: resumed adaptive cycle differs from uninterrupted run:\n%s\nvs\n%s", after, jb, jc)
		}
	}
}

// TestCrossProtocolResume: the header records no protocol, so a cycle
// interrupted under one protocol and resumed under the other — fixed to
// adaptive and back — equals an uninterrupted run under the resumed
// protocol, CycleResult and fault ledger alike: the resumed process
// screens (or does not) for itself, and the journaled trials it shares
// with the interrupted one replay by seed. Rows interrupt in the
// calibrations, in screening and in the matrix.
func TestCrossProtocolResume(t *testing.T) {
	mk := func(adaptive bool, ckpt string, interrupt func() bool) *Watchdog {
		opts := fastOpts(netem.HighlyConstrained())
		opts.MinTrials, opts.MaxTrials, opts.Step = 4, 8, 4
		opts.BaseSeed = 11
		opts.Chaos = &chaos.Config{PanicRate: 0.15, ErrorRate: 0.10, CorruptRate: 0.10}
		if adaptive {
			opts.Adaptive = &AdaptiveOptions{}
		}
		return &Watchdog{
			Services:       threeServices(),
			Settings:       []netem.Config{netem.HighlyConstrained()},
			Opts:           opts,
			CheckpointPath: ckpt,
			Interrupt:      interrupt,
		}
	}
	outputs := func(cr *CycleResult) string {
		b, _ := json.Marshal(cr)
		return string(b)
	}
	want := map[bool]string{}
	for _, adaptive := range []bool{false, true} {
		w := mk(adaptive, "", nil)
		cr, err := w.RunCycle()
		if err != nil {
			t.Fatal(err)
		}
		want[adaptive] = outputs(cr)
	}
	if want[false] == want[true] {
		t.Fatal("setup: the two protocols produced the same cycle")
	}

	// resume finishes ckpt's cycle under the resumed protocol and checks
	// it against that protocol's uninterrupted run.
	resume := func(name string, w *Watchdog) {
		t.Helper()
		cr, err := w.RunCycle()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := outputs(cr); got != want[w.Opts.Adaptive != nil] {
			t.Fatalf("%s: resumed cycle differs from an uninterrupted run under the resumed protocol:\n%s\nvs\n%s",
				name, got, want[w.Opts.Adaptive != nil])
		}
	}
	for _, from := range []bool{false, true} {
		for _, after := range []int{2, 7, 12, 20} {
			name := fmt.Sprintf("adaptive=%v→%v, interrupt after %d polls", from, !from, after)
			ckpt := filepath.Join(t.TempDir(), "ckpt.json")
			calls := 0
			if _, err := mk(from, ckpt, func() bool { calls++; return calls > after }).RunCycle(); err != ErrInterrupted {
				t.Fatalf("%s: interrupted cycle returned %v", name, err)
			}
			resume(name, mk(!from, ckpt, nil))
		}

	}
}

// TestScreenSeedNamespace: screening seeds must never collide with
// pair, solo-calibration, or canary identities — a collision would
// make the journal replay a screening attempt as a counted trial (or
// vice versa).
func TestScreenSeedNamespace(t *testing.T) {
	seen := make(map[uint64]string)
	add := func(id uint64, label string) {
		t.Helper()
		if prev, ok := seen[id]; ok {
			t.Fatalf("seed-ID collision: %s and %s both map to %#x", prev, label, id)
		}
		seen[id] = label
	}
	for a := 0; a < 8; a++ {
		for b := a; b < 8; b++ {
			add(pairSeedID(a, b), "pair")
			add(screenSeedID(a, b), "screen")
		}
		add(soloSeedID(a), "solo")
	}
	add(canarySeedID("iPerf (Reno)"), "canary")
}

// TestAllocateBudgets: the floor is always granted, the pool is spent
// depth-first in contestedness order (unscored pairs first), and the
// allocation is a deterministic function of scores and canonical order.
func TestAllocateBudgets(t *testing.T) {
	mkStates := func(n int) []*pairState {
		out := make([]*pairState, n)
		for i := range out {
			out[i] = &pairState{key: pairKey(0, i)}
		}
		return out
	}
	const maxTrials = 12
	states := mkStates(4)
	results := []screenResult{
		{score: 5, scored: true},  // second most contested
		{score: 40, scored: true}, // clear verdict: floor only
		{scored: false},           // unscored: most contested
		{score: 20, scored: true},
	}
	// total = ceil(0.6·4·12) = 29; floors 4·2 = 8; pool 21.
	// Order: state 2 (unscored, −1) +10 → 12; state 0 +10 → 12; state 3
	// (+1, pool dry) → 3.
	budgets := allocateBudgets(states, results, maxTrials)
	want := map[string]int{
		pairKey(0, 0): 12,
		pairKey(0, 1): 2,
		pairKey(0, 2): 12,
		pairKey(0, 3): 3,
	}
	for k, w := range want {
		if budgets[k] != w {
			t.Errorf("budget[%s] = %d, want %d (full: %v)", k, budgets[k], w, budgets)
		}
	}
	sum := 0
	for _, b := range budgets {
		sum += b
	}
	if sum != 29 {
		t.Errorf("allocated %d trials total, want 29", sum)
	}

	// A ceiling below the floor caps the floor too.
	for k, b := range allocateBudgets(states, results, 1) {
		if b != 1 {
			t.Fatalf("budget[%s] = %d under MaxTrials 1", k, b)
		}
	}
}

// TestRunPairAdaptive: the direct RunPair entry point honors the
// sequential stopper too (no screening — the ceiling falls back to
// MaxTrials).
func TestRunPairAdaptive(t *testing.T) {
	opts := adaptiveTestOpts(netem.HighlyConstrained())
	opts.Adaptive = &AdaptiveOptions{}
	svcs := threeServices()
	// A self-pair converges immediately: both slots run the same stack,
	// so the share medians agree trial after trial.
	out := RunPair(svcs[0], svcs[0], netem.HighlyConstrained(), opts, nil)
	if out.StopReason == "" {
		t.Fatal("adaptive RunPair outcome carries no stop reason")
	}
	if out.Counted() >= opts.MinTrials {
		t.Fatalf("adaptive RunPair ran %d trials; want early stop below the fixed floor %d",
			out.Counted(), opts.MinTrials)
	}
}
