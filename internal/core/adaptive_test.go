package core

import (
	"bytes"
	"encoding/json"
	"errors"
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
		m := &Matrix{Services: threeServices(), Net: net, Opts: opts}
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
// reasons, and the budget allocation itself — is byte-identical for
// any worker count, even with chaos making screening trials fail.
func TestAdaptiveWorkerDeterminism(t *testing.T) {
	net := netem.HighlyConstrained()
	run := func(workers int) (resJSON, budgetJSON []byte) {
		opts := adaptiveTestOpts(net)
		opts.MaxTrials = 9
		opts.Chaos = &chaos.Config{PanicRate: 0.15, ErrorRate: 0.10, CorruptRate: 0.10}
		opts.Adaptive = &AdaptiveOptions{}
		var budgets map[string]int
		m := &Matrix{
			Services:  threeServices(),
			Net:       net,
			Opts:      opts,
			Workers:   workers,
			OnBudgets: func(b map[string]int) { budgets = b },
		}
		res, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		rj, _ := json.Marshal(res)
		bj, _ := json.Marshal(budgets)
		return rj, bj
	}
	r1, b1 := run(1)
	r4, b4 := run(4)
	if !bytes.Equal(b1, b4) {
		t.Fatalf("budget allocation differs across worker counts:\n%s\nvs\n%s", b1, b4)
	}
	if !bytes.Equal(r1, r4) {
		t.Fatalf("adaptive matrix differs across worker counts:\n%s\nvs\n%s", r1, r4)
	}
}

// localRemote is a stub RemoteRunner: it runs each task in-process
// through RunPairTask, the fleet worker's entry point.
type localRemote struct{ m *Matrix }

func (r localRemote) RunPairs(tasks []PairTask, _ func() bool) (<-chan PairTaskResult, error) {
	ch := make(chan PairTaskResult, len(tasks))
	for i, task := range tasks {
		out, events := RunPairTask(r.m.Services, r.m.Net, r.m.Opts, task)
		ch <- PairTaskResult{Index: i, Outcome: out, Events: events}
	}
	close(ch)
	return ch, nil
}

// TestFleetScreeningUsesLocalPool: in fleet mode screening stays on the
// coordinator, at the coordinator's pool width — a -workers 4
// coordinator must not screen every pair serially before dispatching
// anything — and the allocation it reaches does not depend on that
// width. Every screening task polls the hook once before its trial, so
// two polls in flight at once are two screening tasks in flight.
func TestFleetScreeningUsesLocalPool(t *testing.T) {
	net := netem.HighlyConstrained()
	var inHook atomic.Int32
	var concurrent atomic.Bool
	met := make(chan struct{})
	var once sync.Once
	rendezvous := func() bool {
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
	run := func(workers int, hook func() bool) []byte {
		opts := adaptiveTestOpts(net)
		opts.Adaptive = &AdaptiveOptions{}
		var budgets map[string]int
		m := &Matrix{
			Services:  threeServices(),
			Net:       net,
			Opts:      opts,
			Workers:   workers,
			Interrupt: hook,
			OnBudgets: func(b map[string]int) { budgets = b },
		}
		m.Remote = localRemote{m}
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		bj, _ := json.Marshal(budgets)
		return bj
	}
	b4 := run(4, rendezvous)
	if !concurrent.Load() {
		t.Error("fleet-mode screening with Workers=4 never had two tasks in flight")
	}
	if b1 := run(1, nil); !bytes.Equal(b1, b4) {
		t.Errorf("fleet-mode budgets differ across coordinator pool widths:\n%s\nvs\n%s", b1, b4)
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
	// three trials into the matrix (the allocation is on disk); 7 polls
	// lands mid-screening (it is not).
	for _, after := range []int{12, 7} {
		dir := t.TempDir()
		ckpt := filepath.Join(dir, "ckpt.json")
		jrnl := filepath.Join(dir, "trials.wal")

		calls := 0
		wA := mk(ckpt, jrnl, func() bool { calls++; return calls > after })
		if _, err := wA.RunCycle(); err != ErrInterrupted {
			t.Fatalf("interrupted cycle returned %v, want ErrInterrupted", err)
		}
		saved, err := LoadCheckpoint(ckpt)
		if err != nil {
			t.Fatal(err)
		}
		if !saved.HasBudgetState() {
			t.Fatal("adaptive checkpoint must carry budget state")
		}
		if allocated := saved.Budget[0] != nil; allocated != (after == 12) {
			t.Fatalf("interrupt after %d polls: allocation on disk = %v", after, allocated)
		}

		wB := mk(ckpt, jrnl, nil)
		if found, err := wB.LoadCheckpoint(); err != nil || !found {
			t.Fatalf("LoadCheckpoint = %v, %v; want found", found, err)
		}
		crB, err := wB.RunCycle()
		if err != nil {
			t.Fatal(err)
		}
		if jb, _ := json.Marshal(crB); !bytes.Equal(jb, jc) {
			t.Fatalf("interrupt after %d polls: resumed adaptive cycle differs from uninterrupted run:\n%s\nvs\n%s", after, jb, jc)
		}
	}
}

// TestAdaptiveResumeRejectsPreAdaptiveCheckpoint: resuming an adaptive
// cycle from a checkpoint without budget state fails with
// ErrCheckpointNoBudget (the staged checkpoint is retained), and the
// same checkpoint resumes cleanly once Adaptive is disarmed — the
// fallback cmd/prudentia performs automatically.
func TestAdaptiveResumeRejectsPreAdaptiveCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.json")
	cp := &Checkpoint{Cycle: 1}
	if cp.HasBudgetState() {
		t.Fatal("fixed-mode checkpoint must not carry budget state")
	}
	if err := SaveCheckpoint(path, cp); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.HasBudgetState() {
		t.Fatal("loaded fixed-mode checkpoint must not carry budget state")
	}

	opts := fastOpts(netem.HighlyConstrained())
	opts.Adaptive = &AdaptiveOptions{}
	w := &Watchdog{
		Services: threeServices()[:2],
		Settings: []netem.Config{netem.HighlyConstrained()},
		Opts:     opts,
	}
	w.Resume(loaded)
	if _, err := w.RunCycle(); !errors.Is(err, ErrCheckpointNoBudget) {
		t.Fatalf("RunCycle = %v, want ErrCheckpointNoBudget", err)
	}
	if w.StagedCheckpoint() != loaded {
		t.Fatal("refused resume must retain the staged checkpoint")
	}
	w.Opts.Adaptive = nil
	if _, err := w.RunCycle(); err != nil {
		t.Fatalf("fixed-trials resume of the same checkpoint failed: %v", err)
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
	opts := SchedulerOptions{
		MaxTrials: 10,
		Adaptive:  (&AdaptiveOptions{MinTrials: 2, BudgetFrac: 0.5}).withDefaults(),
	}
	states := mkStates(4)
	results := []screenResult{
		{score: 5, scored: true},  // second most contested
		{score: 40, scored: true}, // clear verdict: floor only
		{scored: false},           // unscored: most contested
		{score: 20, scored: true},
	}
	// total = ceil(0.5·4·10) = 20; floors 4·2 = 8; pool 12.
	// Order: state 2 (unscored, −1) +8 → 10; state 0 (+4, pool dry) → 6.
	budgets := allocateBudgets(states, results, opts)
	want := map[string]int{
		pairKey(0, 0): 6,
		pairKey(0, 1): 2,
		pairKey(0, 2): 10,
		pairKey(0, 3): 2,
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
	if sum != 20 {
		t.Errorf("allocated %d trials total, want 20", sum)
	}

	// Ceilings never exceed MaxTrials even with a lavish pool.
	opts.Adaptive = (&AdaptiveOptions{MinTrials: 2, BudgetFrac: 5}).withDefaults()
	for _, b := range allocateBudgets(states, results, opts) {
		if b > opts.MaxTrials {
			t.Fatalf("budget %d exceeds MaxTrials %d", b, opts.MaxTrials)
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
	out, err := RunPair(svcs[0], svcs[0], netem.HighlyConstrained(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if out.StopReason == "" {
		t.Fatal("adaptive RunPair outcome carries no stop reason")
	}
	if out.Counted() >= opts.MinTrials {
		t.Fatalf("adaptive RunPair ran %d trials; want early stop below the fixed floor %d",
			out.Counted(), opts.MinTrials)
	}
}
