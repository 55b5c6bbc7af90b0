package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"maps"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"prudentia/internal/chaos"
	"prudentia/internal/journal"
	"prudentia/internal/netem"
	"prudentia/internal/obs"
	"prudentia/internal/services"
	"prudentia/internal/sim"
)

// hotChaos arms every fault class aggressively enough to fire within
// the 20-second trials the fast test options use.
func hotChaos() *chaos.Config {
	return &chaos.Config{
		FlapMeanGap:  6 * sim.Second,
		FlapMeanLen:  300 * sim.Millisecond,
		FluctMeanGap: 5 * sim.Second,
		FluctMeanLen: sim.Second,
		FluctMinFrac: 0.25,
		StallMeanGap: 6 * sim.Second,
		StallMeanLen: 500 * sim.Millisecond,
		PanicRate:    0.10,
		ErrorRate:    0.08,
		CorruptRate:  0.10,
	}
}

func threeServices() []services.Service {
	return []services.Service{
		services.ByName("iPerf (Reno)"),
		services.ByName("iPerf (Cubic)"),
		services.ByName("iPerf (BBR)"),
	}
}

// TestTrialSeedUniqueness covers the satellite fix for the old
// BaseSeed+(i*1000+j)*101 scheme, whose per-pair ranges overlapped once
// a pair burned enough attempts: hashed seeds must be unique across
// pairs, solo runs, and attempt indices.
func TestTrialSeedUniqueness(t *testing.T) {
	const nSvcs, nAttempts = 20, 25
	seen := make(map[uint64]string)
	record := func(seed uint64, label string) {
		if prev, ok := seen[seed]; ok {
			t.Fatalf("seed collision: %s and %s both map to %d", prev, label, seed)
		}
		seen[seed] = label
	}
	for a := 0; a < nSvcs; a++ {
		for b := a; b < nSvcs; b++ {
			for att := 0; att < nAttempts; att++ {
				record(trialSeed(1, pairSeedID(a, b), att),
					"pair "+pairKey(a, b))
			}
		}
		for att := 0; att < nAttempts; att++ {
			record(trialSeed(1, soloSeedID(a), att), "solo")
		}
	}
	// Different base seeds must shift every stream.
	if trialSeed(1, pairSeedID(0, 1), 0) == trialSeed(2, pairSeedID(0, 1), 0) {
		t.Fatal("base seed does not perturb trial seeds")
	}
}

// TestSettingOptionsResolvePerSetting pins the §3.4 stopping rule to the
// setting it runs in. Both rows that read 1.5/1.5 before the resolver
// went field-wise are here: the quick preset used to be resolved once,
// for the first setting, and any single non-zero Opts field (a seed, a
// chaos plan) used to switch the per-setting paper tolerance off.
func TestSettingOptionsResolvePerSetting(t *testing.T) {
	plan := chaos.Default()
	cases := []struct {
		name    string
		quick   bool
		opts    SchedulerOptions
		tol     [2]float64 // at 8 Mbps, at 50 Mbps
		trials  int        // resolved MinTrials
		seconds float64    // resolved trial duration
	}{
		{"zero", false, SchedulerOptions{}, [2]float64{0.5, 1.5}, 10, 600},
		{"quick", true, SchedulerOptions{}, [2]float64{1.5, 4.5}, 3, 60},
		{"seed only", false, SchedulerOptions{BaseSeed: 7}, [2]float64{0.5, 1.5}, 10, 600},
		{"chaos only", false, SchedulerOptions{Chaos: &plan}, [2]float64{0.5, 1.5}, 10, 600},
		{"adaptive only", false, SchedulerOptions{Adaptive: &AdaptiveOptions{}}, [2]float64{0.5, 1.5}, 10, 600},
		{"wall budget only", false, SchedulerOptions{WallBudget: 50}, [2]float64{0.5, 1.5}, 10, 600},
		{"quick with a seed", true, SchedulerOptions{BaseSeed: 7}, [2]float64{1.5, 4.5}, 3, 60},
		{"explicit tolerance", true, SchedulerOptions{ToleranceMbps: 2}, [2]float64{2, 2}, 3, 60},
	}
	for _, tc := range cases {
		w := NewWatchdog()
		w.Quick, w.Opts = tc.quick, tc.opts
		for si := range w.Settings {
			got := w.SettingOptions(1, si)
			if got.ToleranceMbps != tc.tol[si] {
				t.Errorf("%s: setting %d tolerance = %g, want %g", tc.name, si, got.ToleranceMbps, tc.tol[si])
			}
			if got.MinTrials != tc.trials {
				t.Errorf("%s: setting %d resolved %+v", tc.name, si, got)
			}
			if d := got.spec(nil, nil, w.Settings[si], 0).Duration.Seconds(); d != tc.seconds {
				t.Errorf("%s: setting %d trial lasts %g s, want %g", tc.name, si, d, tc.seconds)
			}
			// What the caller set rides through untouched.
			wantSeed := tc.opts.BaseSeed + 1_000_003 + uint64(si)*7_919
			if got.BaseSeed != wantSeed || got.Chaos != tc.opts.Chaos || got.WallBudget != tc.opts.WallBudget ||
				(got.Adaptive != nil) != (tc.opts.Adaptive != nil) {
				t.Errorf("%s: setting %d dropped a caller field: %+v", tc.name, si, got)
			}
		}
	}

	// A fully-set Opts (what bench/ hands the watchdog) resolves to
	// itself whatever Quick says.
	net := netem.HighlyConstrained()
	full := QuickOptions(net)
	full.BaseSeed = 9
	w := &Watchdog{Settings: []netem.Config{net}, Opts: full}
	got := w.SettingOptions(0, 0)
	if got.MinTrials != 3 || got.MaxTrials != 9 || got.Step != 3 || got.ToleranceMbps != 1.5 ||
		got.BaseSeed != 9 || got.Timing == nil {
		t.Errorf("fully-set Opts changed under resolution: %+v", got)
	}

	// RunPair (and testMatrix) resolve through withDefaults
	// for the net they run in: an unset tolerance at 8 Mbps is 0.5.
	if got := (SchedulerOptions{MinTrials: 2, BaseSeed: 3}).withDefaults(net); got.ToleranceMbps != 0.5 ||
		got.MinTrials != 2 || got.MaxTrials != 30 {
		t.Errorf("withDefaults at 8 Mbps = %+v", got)
	}
}

// TestWatchdogKeepsTimingOnlyOpts is the regression test for the
// RunCycle bug where any non-paper Opts — e.g. a caller setting only a
// custom Timing — were silently discarded in favour of PaperOptions.
func TestWatchdogKeepsTimingOnlyOpts(t *testing.T) {
	called := false
	w := &Watchdog{
		Services: []services.Service{services.ByName("iPerf (Reno)")},
		Settings: []netem.Config{netem.HighlyConstrained()},
		Opts: SchedulerOptions{Timing: func(s Spec) Spec {
			called = true
			s.Duration, s.Warmup, s.Cooldown = 20*sim.Second, 4*sim.Second, 2*sim.Second
			return s
		}},
	}
	cr, err := w.RunCycle()
	if err != nil {
		t.Fatal(err)
	}
	if !called {
		t.Fatal("custom Timing was never invoked: Opts were replaced by PaperOptions")
	}
	if len(cr.PerSetting) != 1 {
		t.Fatalf("got %d settings, want 1", len(cr.PerSetting))
	}
}

// TestMatrixDiscardExhaustionInterleaving covers the satellite: a pair
// whose trials are always noise-discarded must exhaust maxDiscards and
// be marked Unstable without consuming counted trials, while the other
// pairs keep interleaving to completion.
func TestMatrixDiscardExhaustionInterleaving(t *testing.T) {
	net := netem.HighlyConstrained()
	opts := fastOpts(net)
	// Per-pair noise via the Timing hook: only the cross pair sees an
	// upstream loss process hot enough to trip the §3.1 discard gate on
	// every trial.
	opts.Timing = func(s Spec) Spec {
		s.Duration, s.Warmup, s.Cooldown = 20*sim.Second, 4*sim.Second, 2*sim.Second
		if s.Contender != nil && s.Incumbent.Name() != s.Contender.Name() {
			s.Net.Noise = &netem.NoiseConfig{
				MeanEpisodeGap:  sim.Second,
				MeanEpisodeLen:  sim.Second,
				DropProbability: 0.05,
			}
		}
		return s
	}
	m := testMatrix(&Watchdog{Services: []services.Service{
		services.ByName("iPerf (Reno)"),
		services.ByName("iPerf (Cubic)"),
	}}, net, opts)
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	noisy := res.Pairs[pairKey(0, 1)]
	if !noisy.Unstable {
		t.Fatalf("noisy pair not marked Unstable: %+v", noisy)
	}
	if noisy.Counted() != 0 {
		t.Fatalf("noisy pair counted %d trials, want 0", noisy.Counted())
	}
	if noisy.Discards != maxDiscards+1 {
		t.Fatalf("noisy pair discards = %d, want %d", noisy.Discards, maxDiscards+1)
	}
	for _, key := range []string{pairKey(0, 0), pairKey(1, 1)} {
		p := res.Pairs[key]
		if p.Unstable || p.Counted() < opts.MinTrials {
			t.Fatalf("self pair %s did not complete: trials=%d unstable=%v",
				key, p.Counted(), p.Unstable)
		}
	}
}

// TestChaosMatrixDeterministic is the acceptance criterion: two runs of
// the same chaos-enabled matrix with the same BaseSeed must produce
// byte-identical MatrixResults — faults, retries, and all.
func TestChaosMatrixDeterministic(t *testing.T) {
	run := func() []byte {
		opts := fastOpts(netem.HighlyConstrained())
		opts.BaseSeed = 42
		opts.Chaos = hotChaos()
		m := testMatrix(&Watchdog{Services: threeServices()}, netem.HighlyConstrained(), opts)
		res, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("chaos-enabled matrix not deterministic:\n%s\nvs\n%s", a, b)
	}
}

// TestMatrixSurvivesPanicInjection is the acceptance criterion: with
// trial panics injected at 10%, the full matrix completes, every
// non-quarantined cell is populated, and no error propagates out of
// Run.
func TestMatrixSurvivesPanicInjection(t *testing.T) {
	opts := fastOpts(netem.HighlyConstrained())
	opts.BaseSeed = 7
	opts.Chaos = &chaos.Config{PanicRate: 0.10}
	m := testMatrix(&Watchdog{Services: threeServices()}, netem.HighlyConstrained(), opts)
	res, err := m.Run()
	if err != nil {
		t.Fatalf("matrix.Run must absorb injected panics, got %v", err)
	}
	failures := 0
	for key, p := range res.Pairs {
		failures += len(p.Failures)
		if !p.Failed && p.Counted() == 0 {
			t.Errorf("non-quarantined pair %s has no trials", key)
		}
		for _, f := range p.Failures {
			if f.Kind != "panic" {
				t.Errorf("pair %s failure kind %q, want panic", key, f.Kind)
			}
			if !strings.Contains(f.Msg, "chaos: injected panic") {
				t.Errorf("pair %s failure msg %q not an injected panic", key, f.Msg)
			}
		}
	}
	if failures == 0 {
		t.Fatal("seed produced no injected panics; test exercises nothing (pick another BaseSeed)")
	}
}

// TestMatrixQuarantinesAlwaysPanicking drives every trial into a panic:
// each pair must retire into quarantine after maxFailures attempts, the
// matrix must still return cleanly, and the quarantined cells must read
// as NaN (the report layer's ××).
func TestMatrixQuarantinesAlwaysPanicking(t *testing.T) {
	opts := fastOpts(netem.HighlyConstrained())
	opts.Chaos = &chaos.Config{PanicRate: 1}
	svcs := []services.Service{
		services.ByName("iPerf (Reno)"),
		services.ByName("iPerf (Cubic)"),
	}
	m := testMatrix(&Watchdog{Services: svcs}, netem.HighlyConstrained(), opts)
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.FailedPairs()); got != 3 {
		t.Fatalf("FailedPairs = %d, want all 3", got)
	}
	for key, p := range res.Pairs {
		if !p.Failed || len(p.Failures) != maxFailures || p.Retries != maxFailures-1 {
			t.Fatalf("pair %s: failed=%v failures=%d retries=%d, want quarantine after %d",
				key, p.Failed, len(p.Failures), p.Retries, maxFailures)
		}
	}
	v, ok := res.SharePct("iPerf (Reno)", "iPerf (Cubic)")
	if !ok || !math.IsNaN(v) {
		t.Fatalf("quarantined SharePct = %v, %v; want NaN, true", v, ok)
	}
	if v, ok := res.Utilization("iPerf (Reno)", "iPerf (Reno)"); !ok || !math.IsNaN(v) {
		t.Fatalf("quarantined Utilization = %v, %v; want NaN, true", v, ok)
	}
	if got := len(res.LosingShares()); got != 0 {
		t.Fatalf("quarantined pairs leaked into LosingShares: %d", got)
	}
}

// TestWatchdogResumeEquivalence is the acceptance criterion: a cycle
// interrupted mid-matrix and resumed from its checkpoint must produce a
// CycleResult byte-identical to an uninterrupted run — under active
// fault injection.
func TestWatchdogResumeEquivalence(t *testing.T) {
	mk := func(ckpt string, interrupt func() bool) *Watchdog {
		opts := fastOpts(netem.HighlyConstrained())
		opts.BaseSeed = 11
		opts.Chaos = &chaos.Config{PanicRate: 0.15, ErrorRate: 0.10, CorruptRate: 0.10}
		return &Watchdog{
			Services:       threeServices(),
			Settings:       []netem.Config{netem.HighlyConstrained()},
			Opts:           opts,
			CheckpointPath: ckpt,
			Interrupt:      interrupt,
		}
	}
	ckpt := filepath.Join(t.TempDir(), "ckpt.json")

	// Interrupt the cycle partway through the matrix (after the 3 solo
	// calibrations and a couple of round-robin rounds).
	calls := 0
	wA := mk(ckpt, func() bool { calls++; return calls > 12 })
	if _, err := wA.RunCycle(); err != ErrInterrupted {
		t.Fatalf("interrupted cycle returned %v, want ErrInterrupted", err)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("no checkpoint after interrupt: %v", err)
	}

	wB := mk(ckpt, nil)
	crB, err := wB.RunCycle()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("checkpoint not kept after completed cycle: %v", err)
	}

	wC := mk("", nil)
	crC, err := wC.RunCycle()
	if err != nil {
		t.Fatal(err)
	}

	jb, _ := json.Marshal(crB)
	jc, _ := json.Marshal(crC)
	if !bytes.Equal(jb, jc) {
		t.Fatalf("resumed cycle differs from uninterrupted run:\n%s\nvs\n%s", jb, jc)
	}
}

// TestCheckpointRoundTrip verifies the atomic save/load path and its
// failure modes.
func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	cp := &Checkpoint{
		Cycle:    3,
		Breakers: []obs.BreakerInfo{{Service: "iPerf (Reno)", State: "open", Score: 6}},
	}
	if err := SaveCheckpoint(path, cp); err != nil {
		t.Fatal(err)
	}
	// Atomicity: no stray temp files survive a successful save.
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Fatalf("checkpoint dir has %d entries, want 1", len(entries))
	}
	got, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(cp)
	b, _ := json.Marshal(got)
	if !bytes.Equal(a, b) {
		t.Fatalf("checkpoint did not round-trip:\n%s\nvs\n%s", a, b)
	}

	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(path); err == nil {
		t.Fatal("corrupt checkpoint must fail to load")
	}
	if err := os.WriteFile(path, []byte(`{"cycle":0}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(path); err == nil {
		t.Fatal("cycle-0 checkpoint must fail to load")
	}
	// A checkpoint from a build that still stored finished work loads as
	// its header: the pairs and calibration keys are ignored, whatever
	// they hold (here a raw-sample pair those builds themselves refused).
	if err := os.WriteFile(path, []byte(exactStatsCheckpoint), 0o644); err != nil {
		t.Fatal(err)
	}
	old, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatalf("checkpoint with pairs and calibration must load as a header: %v", err)
	}
	if old.Cycle != 1 || old.Breakers != nil {
		t.Fatalf("header of an older checkpoint = %+v", old)
	}
	// So does the header the build before this one wrote, which still
	// recorded each setting's admission and adaptive budgets: replay
	// recomputes both, and saving it back drops them.
	if err := os.WriteFile(path, []byte(decisionsCheckpoint), 0o644); err != nil {
		t.Fatal(err)
	}
	old, err = LoadCheckpoint(path)
	if err != nil {
		t.Fatalf("checkpoint with open_services and budget must load as a header: %v", err)
	}
	if a, _ := json.Marshal(old); string(a) != `{"schema":"prudentia.checkpoint/1","cycle":2,"breakers":[{"service":"iPerf (BBR)","state":"open","score":6}]}` {
		t.Fatalf("header of a checkpoint with recorded decisions = %s", a)
	}
	// RunCycle over a missing header starts cycle 1.
	w := &Watchdog{CheckpointPath: filepath.Join(dir, "missing.json")}
	if cr, err := w.RunCycle(); err != nil || cr.Cycle != 1 {
		t.Fatalf("missing checkpoint: cycle %+v, err %v; want cycle 1", cr, err)
	}
}

// TestRunCycleResumeGuard: RunCycle resumes only a header naming a cycle
// later than the last one its watchdog completed; a stale header is
// overwritten by a fresh cycle, and one that fails to load is the
// cycle's error, with no file in its directory changed. The watchdogs
// have no settings, so each cycle is only its header and journal.
func TestRunCycleResumeGuard(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.json")
	w := &Watchdog{CheckpointPath: path}
	if cr, err := w.RunCycle(); err != nil || cr.Cycle != 1 {
		t.Fatalf("first cycle = %+v, %v; want cycle 1", cr, err)
	}
	// A header for the cycle just completed is stale.
	if err := SaveCheckpoint(path, &Checkpoint{Cycle: 1}); err != nil {
		t.Fatal(err)
	}
	if cr, err := w.RunCycle(); err != nil || cr.Cycle != 2 {
		t.Fatalf("over a completed cycle's header: cycle %+v, err %v; want cycle 2", cr, err)
	}
	// So is one for a cycle the watchdog was advanced past.
	w.AdvanceTo(6)
	if err := SaveCheckpoint(path, &Checkpoint{Cycle: 5}); err != nil {
		t.Fatal(err)
	}
	if cr, err := w.RunCycle(); err != nil || cr.Cycle != 6 {
		t.Fatalf("over an advanced-past header: cycle %+v, err %v; want cycle 6", cr, err)
	}
	// A later cycle's header is resumed under its own number.
	if err := SaveCheckpoint(path, &Checkpoint{Cycle: 9}); err != nil {
		t.Fatal(err)
	}
	if cr, err := w.RunCycle(); err != nil || cr.Cycle != 9 {
		t.Fatalf("over a later header: cycle %+v, err %v; want cycle 9", cr, err)
	}
	// Numbering continues from the resumed cycle, whose kept header is
	// now stale.
	if cr, err := w.RunCycle(); err != nil || cr.Cycle != 10 {
		t.Fatalf("after resuming cycle 9: cycle %+v, err %v; want cycle 10", cr, err)
	}
	// A future-version header is the cycle's error and stays as it was.
	future := []byte(`{"schema":"prudentia.checkpoint/9","cycle":7}`)
	if err := os.WriteFile(path, future, 0o644); err != nil {
		t.Fatal(err)
	}
	files := func() map[string]string {
		m := map[string]string{}
		entries, _ := os.ReadDir(dir)
		for _, e := range entries {
			data, _ := os.ReadFile(filepath.Join(dir, e.Name()))
			m[e.Name()] = string(data)
		}
		return m
	}
	before := files()
	if cr, err := w.RunCycle(); !errors.Is(err, journal.ErrFutureVersion) {
		t.Fatalf("over a future header: cycle %+v, err %v; want ErrFutureVersion", cr, err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, future) {
		t.Fatalf("future header rewritten: %q, %v", got, err)
	}
	if after := files(); !maps.Equal(after, before) {
		t.Fatalf("the refused cycle changed its directory: %q, want %q", after, before)
	}
}

// TestValidityGate checks the corrupt-result gate against hand-built
// results and against every chaos corruption kind.
func TestValidityGate(t *testing.T) {
	valid := TrialResult{
		Mbps:          [2]float64{4, 4},
		FairShareMbps: [2]float64{4, 4},
		SharePct:      [2]float64{100, 100},
		Utilization:   1,
		Loss:          [2]float64{0.01, 0.02},
	}
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid result rejected: %v", err)
	}
	mutate := map[string]func(*TrialResult){
		"nan-throughput":  func(r *TrialResult) { r.Mbps[0] = math.NaN() },
		"inf-throughput":  func(r *TrialResult) { r.Mbps[1] = math.Inf(1) },
		"neg-throughput":  func(r *TrialResult) { r.Mbps[1] = -1 },
		"loss-above-one":  func(r *TrialResult) { r.Loss[0] = 1.5 },
		"nan-loss":        func(r *TrialResult) { r.Loss[1] = math.NaN() },
		"neg-queue-delay": func(r *TrialResult) { r.QueueDelay[0] = -sim.Second },
		"utilization":     func(r *TrialResult) { r.Utilization = 4.2 },
		"nan-utilization": func(r *TrialResult) { r.Utilization = math.NaN() },
		"share-mismatch":  func(r *TrialResult) { r.SharePct[0] = 500 },
	}
	for name, f := range mutate {
		r := valid
		f(&r)
		if r.Validate() == nil {
			t.Errorf("%s passed the validity gate", name)
		}
	}
	// Every corruption the chaos plan can apply must be caught (the
	// String fallback marks the end of the defined kinds).
	for k := chaos.CorruptKind(0); !strings.HasPrefix(k.String(), "corrupt("); k++ {
		r := valid
		applyCorruption(&r, k)
		if r.Validate() == nil {
			t.Errorf("corruption %v passed the validity gate", k)
		}
	}
}

// TestRunTrialSafeFaultClasses checks each trial-level fault surfaces
// as the right typed TrialError (or gated result) through the panic
// barrier.
func TestRunTrialSafeFaultClasses(t *testing.T) {
	base := Spec{
		Incumbent: services.ByName("iPerf (Reno)"),
		Contender: services.ByName("iPerf (Cubic)"),
		Net:       netem.HighlyConstrained(),
		Seed:      3,
	}.QuickTiming()

	spec := base
	spec.Chaos = &chaos.Config{PanicRate: 1}
	if _, err := runTrialSafe(spec); err == nil {
		t.Fatal("injected panic not surfaced")
	} else if te := asTrialError(err, spec.Seed); te.Kind != "panic" || te.Seed != spec.Seed {
		t.Fatalf("panic fault = %+v", te)
	}

	spec.Chaos = &chaos.Config{ErrorRate: 1}
	if _, err := runTrialSafe(spec); err == nil {
		t.Fatal("injected error not surfaced")
	} else if te := asTrialError(err, spec.Seed); te.Kind != "error" {
		t.Fatalf("error fault = %+v", te)
	}

	spec.Chaos = &chaos.Config{CorruptRate: 1}
	res, err := runTrialSafe(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Validate() == nil {
		t.Fatal("corrupted result passed the validity gate")
	}
}

// TestInjectedPanicAlwaysFires pins that the FaultPanic instant is drawn
// inside the simulated span: the engine stops where the window closes,
// so an instant drawn over the whole Duration would land in the
// never-simulated cooldown one time in twelve under QuickTiming (half
// the time for the second spec here) and a trial the plan marked as
// crashed would silently succeed.
func TestInjectedPanicAlwaysFires(t *testing.T) {
	cfg := &chaos.Config{PanicRate: 0.10}
	base := Spec{
		Incumbent: services.ByName("iPerf (Reno)"),
		Contender: services.ByName("iPerf (Cubic)"),
		Net:       netem.HighlyConstrained(),
		Chaos:     cfg,
	}
	halfTail := base
	halfTail.Duration, halfTail.Warmup, halfTail.Cooldown = 8*sim.Second, sim.Second, 4*sim.Second
	for _, spec := range []Spec{base.ScreenTiming(), halfTail} {
		fired := 0
		for seed := uint64(1); fired < 200; seed++ {
			if cfg.TrialFault(seed) != chaos.FaultPanic {
				continue
			}
			fired++
			spec.Seed = seed
			_, err := runTrialSafe(spec)
			if err == nil {
				t.Fatalf("seed %d (cooldown %v of %v): planned panic never fired", seed, spec.Cooldown, spec.Duration)
			}
			if te := asTrialError(err, seed); te.Kind != "panic" {
				t.Fatalf("seed %d: fault = %+v, want a panic", seed, te)
			}
		}
	}
}

// TestMatrixRaceSmoke runs several chaos-enabled matrices concurrently;
// under `go test -race` (scripts/ci.sh) this verifies independent
// matrices share no mutable state.
func TestMatrixRaceSmoke(t *testing.T) {
	var wg sync.WaitGroup
	errc := make(chan error, 4)
	for k := 0; k < 4; k++ {
		k := k
		wg.Add(1)
		go func() {
			defer wg.Done()
			opts := fastOpts(netem.HighlyConstrained())
			opts.BaseSeed = uint64(100 + k)
			opts.Chaos = hotChaos()
			m := testMatrix(&Watchdog{Services: []services.Service{
				services.ByName("iPerf (Reno)"),
				services.ByName("iPerf (Cubic)"),
			}}, netem.HighlyConstrained(), opts)
			if _, err := m.Run(); err != nil {
				errc <- err
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}
