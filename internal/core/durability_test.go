package core

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"prudentia/internal/chaos"
	"prudentia/internal/netem"
	"prudentia/internal/obs"
)

// TestBreakerLifecycle drives one breaker through the full state
// machine: score accumulation, trip at the threshold, half-open probe,
// re-admission with a clean slate, and closed-score decay.
func TestBreakerLifecycle(t *testing.T) {
	var transitions []string
	bs := &BreakerSet{OnTransition: func(svc string, from, to BreakerState) {
		transitions = append(transitions, svc+": "+from.String()+" -> "+to.String())
	}}

	bs.Penalize("A", 4)
	if got := bs.State("A"); got != BreakerClosed {
		t.Fatalf("below threshold: state %v, want closed", got)
	}
	bs.Penalize("A", 1)
	if got := bs.State("A"); got != BreakerOpen {
		t.Fatalf("at threshold: state %v, want open", got)
	}
	if open := bs.OpenServices(); len(open) != 1 || open[0] != "A" {
		t.Fatalf("OpenServices = %v, want [A]", open)
	}

	// Failed probe re-opens; successful probe closes with score reset.
	bs.BeginProbe("A")
	if got := bs.State("A"); got != BreakerHalfOpen {
		t.Fatalf("after BeginProbe: state %v, want half-open", got)
	}
	bs.ProbeResult("A", false)
	if got := bs.State("A"); got != BreakerOpen {
		t.Fatalf("after failed probe: state %v, want open", got)
	}
	bs.BeginProbe("A")
	bs.ProbeResult("A", true)
	if got := bs.State("A"); got != BreakerClosed {
		t.Fatalf("after ok probe: state %v, want closed", got)
	}
	if st := bs.Status(); len(st) != 1 || st[0].Score != 0 {
		t.Fatalf("ok probe must reset the score, got %+v", st)
	}

	want := []string{
		"A: closed -> open",
		"A: open -> half-open",
		"A: half-open -> open",
		"A: open -> half-open",
		"A: half-open -> closed",
	}
	if len(transitions) != len(want) {
		t.Fatalf("transitions %v, want %v", transitions, want)
	}
	for i := range want {
		if transitions[i] != want[i] {
			t.Fatalf("transition[%d] = %q, want %q", i, transitions[i], want[i])
		}
	}

	// Decay halves closed scores and drops spent entries; open breakers
	// never decay.
	bs.Penalize("B", 2)
	bs.Penalize("C", 9) // opens
	bs.Decay()
	if st := bs.Status(); len(st) != 2 { // A dropped (score 0), B halved, C open
		t.Fatalf("after decay: %+v", st)
	}
	if got := bs.entries["B"].score; got != 1 {
		t.Fatalf("B score after decay = %v, want 1", got)
	}
	if got := bs.State("C"); got != BreakerOpen {
		t.Fatalf("open breaker decayed: %v", got)
	}

	// Checkpoint snapshot round-trip.
	snap := bs.Status()
	restored := &BreakerSet{}
	restored.Restore(snap)
	a, _ := json.Marshal(snap)
	b, _ := json.Marshal(restored.Status())
	if !bytes.Equal(a, b) {
		t.Fatalf("Restore did not round-trip:\n%s\nvs\n%s", a, b)
	}
}

// TestBreakerScorePair checks the outcome-folding weights: failures hit
// both members except brownouts (exact attribution via the error
// message), corruption and quarantine hit both, self-pairs count once.
func TestBreakerScorePair(t *testing.T) {
	bs := &BreakerSet{Threshold: 1000}
	bs.scorePair(&PairOutcome{
		Incumbent: "A", Contender: "B",
		Corrupt: 1,
		Failed:  true,
		Failures: []TrialFailure{
			{Kind: "panic", Msg: "boom"},
			{Kind: "brownout", Msg: brownoutMsgPrefix + "B"},
		},
	})
	// A: 1 (panic) + 1 (corrupt) + 2 (quarantine) = 4
	// B: 1 (panic) + 1 (brownout, attributed) + 1 (corrupt) + 2 = 5
	if got := bs.entries["A"].score; got != 4 {
		t.Fatalf("A score = %v, want 4", got)
	}
	if got := bs.entries["B"].score; got != 5 {
		t.Fatalf("B score = %v, want 5", got)
	}

	bs2 := &BreakerSet{Threshold: 1000}
	bs2.scorePair(&PairOutcome{
		Incumbent: "A", Contender: "A",
		Failures: []TrialFailure{{Kind: "error", Msg: "x"}},
		Failed:   true,
	})
	if got := bs2.entries["A"].score; got != 3 { // self-pair counts once
		t.Fatalf("self-pair A score = %v, want 3", got)
	}
}

// TestReaperQuarantinesHungTrials arms the wall-clock reaper with an
// impossible budget (nanoseconds for a 20-second emulation), so every
// attempt is reaped, retried, and the pair finally quarantined with
// typed "reap" failures.
func TestReaperQuarantinesHungTrials(t *testing.T) {
	net := netem.HighlyConstrained()
	opts := fastOpts(net)
	opts.WallBudget = 1e-9
	svcs := threeServices()
	out, err := RunPair(svcs[0], svcs[1], net, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Failed {
		t.Fatal("reaped pair must be quarantined")
	}
	if len(out.Failures) != opts.MaxFailures {
		t.Fatalf("got %d failures, want %d", len(out.Failures), opts.MaxFailures)
	}
	for _, f := range out.Failures {
		if f.Kind != "reap" {
			t.Fatalf("failure kind %q, want reap (msg %q)", f.Kind, f.Msg)
		}
	}
}

// TestReaperGenerousBudgetIsTransparent: a budget no healthy trial can
// exceed must not perturb results — the reaper path (goroutine + timer)
// yields byte-identical outcomes to the direct path.
func TestReaperGenerousBudgetIsTransparent(t *testing.T) {
	net := netem.HighlyConstrained()
	run := func(budget float64) *PairOutcome {
		opts := fastOpts(net)
		opts.WallBudget = budget
		svcs := threeServices()
		out, err := RunPair(svcs[0], svcs[2], net, opts)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	plain, _ := json.Marshal(run(0))
	budgeted, _ := json.Marshal(run(1e6))
	if !bytes.Equal(plain, budgeted) {
		t.Fatalf("wall budget perturbed results:\n%s\nvs\n%s", plain, budgeted)
	}
}

// TestJournalResumeEquivalence is the tentpole acceptance test at the
// package level: an interrupted journaled cycle, resumed, must produce
// a CycleResult and fault ledger identical to an uninterrupted run —
// with the resumed process re-simulating strictly fewer trials than a
// checkpoint-only resume of the same interruption, because journaled
// attempts replay instead of re-running.
func TestJournalResumeEquivalence(t *testing.T) {
	dir := t.TempDir()
	type run struct {
		cr     *CycleResult
		ledger []FaultEvent
		reg    *obs.Registry
	}
	mk := func(ckpt, jpath string, interrupt func() bool) (*Watchdog, *run) {
		opts := fastOpts(netem.HighlyConstrained())
		opts.BaseSeed = 11
		opts.Chaos = &chaos.Config{PanicRate: 0.15, ErrorRate: 0.10, CorruptRate: 0.10}
		r := &run{reg: obs.NewRegistry()}
		w := &Watchdog{
			Services:       threeServices(),
			Settings:       []netem.Config{netem.HighlyConstrained()},
			Opts:           opts,
			CheckpointPath: ckpt,
			JournalPath:    jpath,
			Interrupt:      interrupt,
			Obs:            NewInstruments(r.reg, nil),
			OnFault:        func(ev FaultEvent) { r.ledger = append(r.ledger, ev) },
		}
		return w, r
	}
	interruptAfter := func(n int) func() bool {
		calls := 0
		return func() bool { calls++; return calls > n }
	}

	// Reference: uninterrupted, no durability files.
	wRef, ref := mk("", "", nil)
	crRef, err := wRef.RunCycle()
	if err != nil {
		t.Fatal(err)
	}

	// Journal mode: interrupt mid-matrix, then resume.
	ckptJ := filepath.Join(dir, "j.ckpt")
	wal := filepath.Join(dir, "trials.wal")
	wA, _ := mk(ckptJ, wal, interruptAfter(12))
	if _, err := wA.RunCycle(); err != ErrInterrupted {
		t.Fatalf("interrupted cycle returned %v, want ErrInterrupted", err)
	}
	if _, err := os.Stat(wal); err != nil {
		t.Fatalf("no journal after interrupt: %v", err)
	}
	wB, rb := mk(ckptJ, wal, nil)
	if found, err := wB.LoadCheckpoint(); err != nil || !found {
		t.Fatalf("LoadCheckpoint = %v, %v", found, err)
	}
	crB, err := wB.RunCycle()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(wal); !os.IsNotExist(err) {
		t.Fatalf("journal not removed after completed cycle: %v", err)
	}

	// Checkpoint-only mode: same interruption point, no journal.
	ckptC := filepath.Join(dir, "c.ckpt")
	wC, _ := mk(ckptC, "", interruptAfter(12))
	if _, err := wC.RunCycle(); err != ErrInterrupted {
		t.Fatalf("interrupted cycle returned %v, want ErrInterrupted", err)
	}
	wD, rd := mk(ckptC, "", nil)
	if found, err := wD.LoadCheckpoint(); err != nil || !found {
		t.Fatalf("LoadCheckpoint = %v, %v", found, err)
	}
	crD, err := wD.RunCycle()
	if err != nil {
		t.Fatal(err)
	}

	// All three produce the same CycleResult.
	jRef, _ := json.Marshal(crRef)
	for name, cr := range map[string]*CycleResult{"journal resume": crB, "checkpoint resume": crD} {
		got, _ := json.Marshal(cr)
		if !bytes.Equal(jRef, got) {
			t.Fatalf("%s differs from uninterrupted run:\n%s\nvs\n%s", name, jRef, got)
		}
	}

	// Journal replay re-emits the full ledger: the resumed process alone
	// reproduces the uninterrupted run's event stream, event for event.
	lRef, _ := json.Marshal(ref.ledger)
	lB, _ := json.Marshal(rb.ledger)
	if !bytes.Equal(lRef, lB) {
		t.Fatalf("journal-resumed ledger differs from uninterrupted run:\n%s\nvs\n%s", lRef, lB)
	}

	// And it re-simulates strictly less: every fresh execution in the
	// resumed journal run appends a record, so the append count bounds
	// its simulation work; the checkpoint-only resume re-simulates at
	// least every pair attempt it started.
	snapB, snapD := rb.reg.Snapshot(), rd.reg.Snapshot()
	if snapB.Counters["prudentia_journal_replayed_total"] == 0 {
		t.Fatal("journal resume replayed nothing")
	}
	fresh := snapB.Counters["prudentia_journal_records_total"]
	rerun := snapD.Counters["prudentia_trials_started_total"]
	if fresh >= rerun {
		t.Fatalf("journal resume re-simulated %d attempts, checkpoint-only %d; journal must re-run strictly fewer", fresh, rerun)
	}
}

// TestInterruptedManifestCycleNumber: an interrupted run's manifest must
// name the cycle its checkpoint names — past an AdvanceTo offset, and
// again when the resumed cycle is itself interrupted in a new process.
func TestInterruptedManifestCycleNumber(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "ckpt.json")
	mk := func(after int) *Watchdog {
		calls := 0
		return &Watchdog{
			Services:       threeServices(),
			Settings:       []netem.Config{netem.HighlyConstrained()},
			Opts:           fastOpts(netem.HighlyConstrained()),
			CheckpointPath: ckpt,
			Interrupt:      func() bool { calls++; return calls > after },
		}
	}
	check := func(w *Watchdog, when string) {
		t.Helper()
		if _, err := w.RunCycle(); err != ErrInterrupted {
			t.Fatalf("%s: RunCycle returned %v, want ErrInterrupted", when, err)
		}
		cp, err := LoadCheckpoint(ckpt)
		if err != nil {
			t.Fatal(err)
		}
		m := w.BuildManifest(nil, nil)
		if !m.Interrupted || m.Cycle != 2 || cp.Cycle != 2 {
			t.Fatalf("%s: manifest cycle %d (interrupted=%v) beside checkpoint cycle %d, want 2 and 2",
				when, m.Cycle, m.Interrupted, cp.Cycle)
		}
	}
	wA := mk(8)
	wA.AdvanceTo(2) // a restarted daemon that rehydrated cycle 1 from disk
	check(wA, "first interruption")

	wB := mk(5) // a new process: no history, no offset, only the checkpoint
	if found, err := wB.LoadCheckpoint(); err != nil || !found {
		t.Fatalf("LoadCheckpoint = %v, %v", found, err)
	}
	check(wB, "re-interrupted resume")
}

// TestBrownoutBreakerAcceptance is the chaos acceptance test: a
// browned-out service must trip its circuit breaker open (its later
// pairs render ○○ instead of burning retry budgets), a canary probe
// during the brownout must fail and keep it open, and the first probe
// after the brownout ends must re-admit it.
func TestBrownoutBreakerAcceptance(t *testing.T) {
	const sick = "iPerf (BBR)"
	nets := []netem.Config{netem.HighlyConstrained(), netem.ModeratelyConstrained()}
	opts := fastOpts(nets[0])
	opts.BaseSeed = 5
	opts.Chaos = &chaos.Config{Brownouts: []*chaos.Brownout{{Service: sick, Trials: 1 << 40}}}
	reg := obs.NewRegistry()
	w := &Watchdog{
		Services: threeServices(),
		Settings: nets,
		Opts:     opts,
		Obs:      NewInstruments(reg, nil),
	}

	// Cycle 1: the brownout fails every trial touching the sick service.
	// Its breaker opens during setting 0's release, so setting 1 skips
	// its pairs without running a trial.
	cr1, err := w.RunCycle()
	if err != nil {
		t.Fatal(err)
	}
	if got := w.Breakers.State(sick); got != BreakerOpen {
		t.Fatalf("cycle 1: breaker %v, want open", got)
	}
	if v, ok := cr1.PerSetting[0].SharePct(sick, "iPerf (Reno)"); !ok || !math.IsNaN(v) {
		t.Fatalf("cycle 1 setting 0: sick cell = %v, %v; want NaN (quarantined)", v, ok)
	}
	if v, ok := cr1.PerSetting[1].SharePct(sick, "iPerf (Reno)"); !ok || !math.IsInf(v, -1) {
		t.Fatalf("cycle 1 setting 1: sick cell = %v, %v; want -Inf (breaker-skipped)", v, ok)
	}
	if _, ok := cr1.Calibration[1][sick]; ok {
		t.Fatal("cycle 1 setting 1: open service must skip calibration")
	}

	// Cycle 2: brownout still active — the canary probe fails and the
	// breaker stays open; every sick pair in every setting is skipped.
	cr2, err := w.RunCycle()
	if err != nil {
		t.Fatal(err)
	}
	if got := w.Breakers.State(sick); got != BreakerOpen {
		t.Fatalf("cycle 2: breaker %v, want open (probe must fail during brownout)", got)
	}
	for si := range cr2.PerSetting {
		if v, ok := cr2.PerSetting[si].SharePct(sick, sick); !ok || !math.IsInf(v, -1) {
			t.Fatalf("cycle 2 setting %d: sick self-cell = %v, %v; want -Inf", si, v, ok)
		}
	}

	// Cycle 3: brownout over — the probe succeeds, the service is
	// re-admitted, and its pairs measure normally again.
	w.Opts.Chaos = nil
	cr3, err := w.RunCycle()
	if err != nil {
		t.Fatal(err)
	}
	if got := w.Breakers.State(sick); got != BreakerClosed {
		t.Fatalf("cycle 3: breaker %v, want closed after successful probe", got)
	}
	if v, ok := cr3.PerSetting[0].SharePct(sick, "iPerf (Reno)"); !ok || math.IsNaN(v) || math.IsInf(v, 0) {
		t.Fatalf("cycle 3: sick cell = %v, %v; want a real measurement", v, ok)
	}

	snap := reg.Snapshot()
	if got := snap.Counters["prudentia_breaker_probes_total"]; got != 2 {
		t.Fatalf("probe count = %d, want 2 (one failed, one ok)", got)
	}
	if got := snap.Counters[`prudentia_breaker_transitions_total{to="closed"}`]; got != 1 {
		t.Fatalf("close transitions = %d, want 1", got)
	}
	if snap.Counters["prudentia_pairs_skipped_total"] == 0 {
		t.Fatal("no pairs were skipped while the breaker was open")
	}
	m := w.BuildManifest(cr3, reg)
	if m.Journal != nil {
		t.Fatal("manifest reports a journal for an unjournaled run")
	}
}
