package core

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"prudentia/internal/chaos"
	"prudentia/internal/journal"
	"prudentia/internal/netem"
	"prudentia/internal/obs"
	"prudentia/internal/services"
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
	bs := &BreakerSet{}
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

	bs2 := &BreakerSet{}
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
	out := RunPair(svcs, net, opts, PairTask{A: 0, B: 1}, nil)
	if !out.Failed {
		t.Fatal("reaped pair must be quarantined")
	}
	if len(out.Failures) != maxFailures {
		t.Fatalf("got %d failures, want %d", len(out.Failures), maxFailures)
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
		return RunPair([]services.Service{svcs[0], svcs[2]}, net, opts, PairTask{A: 0, B: 1}, nil)
	}
	plain, _ := json.Marshal(run(0))
	budgeted, _ := json.Marshal(run(1e6))
	if !bytes.Equal(plain, budgeted) {
		t.Fatalf("wall budget perturbed results:\n%s\nvs\n%s", plain, budgeted)
	}
}

// TestJournalResumeEquivalence is the recovery acceptance test at the
// package level: an interrupted cycle, resumed, must produce a
// CycleResult and fault ledger identical to an uninterrupted run, by
// replaying what the journal holds — with the journal at an explicit
// path, and with CheckpointPath alone (the journal then lives beside
// it) under a checkpoint shaped the way the previous build wrote it,
// whose finished-work keys this build ignores.
func TestJournalResumeEquivalence(t *testing.T) {
	dir := t.TempDir()
	type run struct {
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
	crB, err := wB.RunCycle()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(wal); !os.IsNotExist(err) {
		t.Fatalf("journal not removed after completed cycle: %v", err)
	}

	// CheckpointPath alone, same interruption point: the journal is
	// implied. Before resuming, the header is rewritten into the shape
	// the previous build flushed — finished work under "pairs" and
	// "calibration", here deliberately wrong — which must be ignored.
	ckptC := filepath.Join(dir, "c.ckpt")
	wC, _ := mk(ckptC, "", interruptAfter(12))
	if _, err := wC.RunCycle(); err != ErrInterrupted {
		t.Fatalf("interrupted cycle returned %v, want ErrInterrupted", err)
	}
	if _, err := os.Stat(ckptC + ".wal"); err != nil {
		t.Fatalf("CheckpointPath alone left no journal beside it: %v", err)
	}
	data, err := os.ReadFile(ckptC)
	if err != nil {
		t.Fatal(err)
	}
	var header map[string]json.RawMessage
	if err := json.Unmarshal(data, &header); err != nil {
		t.Fatal(err)
	}
	header["calibration"] = json.RawMessage(`[{"iPerf (Reno)": 0.001}]`)
	header["pairs"] = json.RawMessage(`[{"0|0": {"Incumbent": "iPerf (Reno)", "Contender": "iPerf (Reno)", "Failed": true}}]`)
	if data, err = json.Marshal(header); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ckptC, data, 0o644); err != nil {
		t.Fatal(err)
	}
	wD, rd := mk(ckptC, "", nil)
	crD, err := wD.RunCycle()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{ckptC, ckptC + ".wal"} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("%s not removed after completed cycle: %v", p, err)
		}
	}

	// Each resumed process alone reproduces the uninterrupted run's
	// CycleResult and — because replay drives the ordinary release path —
	// its fault ledger, event for event, and did so by replaying.
	jRef, _ := json.Marshal(crRef)
	lRef, _ := json.Marshal(ref.ledger)
	for _, c := range []struct {
		name string
		cr   *CycleResult
		r    *run
	}{{"journal resume", crB, rb}, {"checkpoint-only resume", crD, rd}} {
		if got, _ := json.Marshal(c.cr); !bytes.Equal(jRef, got) {
			t.Fatalf("%s differs from uninterrupted run:\n%s\nvs\n%s", c.name, jRef, got)
		}
		if got, _ := json.Marshal(c.r.ledger); !bytes.Equal(lRef, got) {
			t.Fatalf("%s: ledger differs from uninterrupted run:\n%s\nvs\n%s", c.name, lRef, got)
		}
		if c.r.reg.Snapshot().Counters["prudentia_journal_replayed_total"] == 0 {
			t.Fatalf("%s replayed nothing", c.name)
		}
	}
}

// cutRemote is a coordinator that can lose its fleet: it runs tasks
// through localRemote (in-process RunPair), records what each
// RunPairs call was handed, and with limit > 0 delivers only the first
// limit results before closing the channel, which the matrix reads as
// an interrupted dispatch.
type cutRemote struct {
	w     *Watchdog
	limit int
	calls [][]PairTask
}

func (r *cutRemote) RunPairs(tasks []PairTask, _ func() bool) (<-chan PairTaskResult, error) {
	r.calls = append(r.calls, tasks)
	if r.limit > 0 && r.limit < len(tasks) {
		tasks = tasks[:r.limit]
	}
	m := testMatrix(&Watchdog{Services: r.w.Services}, r.w.Settings[0], r.w.SettingOptions(1, 0))
	return localRemote{m}.RunPairs(tasks, nil)
}

// TestCoordinatorResume: a cycle whose pairs run on a RemoteRunner
// leaves no attempts in the coordinator's journal, only one pair record
// per released pair. Interrupted after k of them, the resumed cycle must
// dispatch exactly the pairs that were never released — not the whole
// setting — and still equal an uninterrupted run in its CycleResult, its
// fault ledger and its breaker state, fixed and adaptive (so the budget
// a task carries is covered). A record with its sketches stripped is
// ignored: that pair is dispatched again.
func TestCoordinatorResume(t *testing.T) {
	const released = 2
	type run struct {
		w      *Watchdog
		remote *cutRemote
		ledger []FaultEvent
	}
	for _, adaptive := range []bool{false, true} {
		mk := func(ckpt string, limit int) *run {
			opts := fastOpts(netem.HighlyConstrained())
			opts.BaseSeed = 11
			opts.Chaos = &chaos.Config{PanicRate: 0.15, ErrorRate: 0.10, CorruptRate: 0.10}
			if adaptive {
				opts.MinTrials, opts.MaxTrials, opts.Step = 4, 8, 4
				opts.Adaptive = &AdaptiveOptions{}
			}
			r := &run{}
			r.w = &Watchdog{
				Services:       threeServices(),
				Settings:       []netem.Config{netem.HighlyConstrained()},
				Opts:           opts,
				CheckpointPath: ckpt,
				OnFault:        func(ev FaultEvent) { r.ledger = append(r.ledger, ev) },
			}
			if ckpt != "" {
				r.w.JournalPath = ckpt + ".wal"
			}
			r.remote = &cutRemote{w: r.w, limit: limit}
			r.w.Remote = r.remote
			return r
		}
		outputs := func(r *run, cr *CycleResult) string {
			a, _ := json.Marshal(cr)
			b, _ := json.Marshal(r.ledger)
			c, _ := json.Marshal(r.w.Breakers.Status())
			return string(a) + "\n" + string(b) + "\n" + string(c)
		}
		resume := func(ckpt string) (*run, string) {
			t.Helper()
			r := mk(ckpt, 0)
			cr, err := r.w.RunCycle()
			if err != nil {
				t.Fatal(err)
			}
			if len(r.remote.calls) != 1 {
				t.Fatalf("resumed cycle dispatched %d times, want once", len(r.remote.calls))
			}
			return r, outputs(r, cr)
		}
		interrupt := func(ckpt string) {
			t.Helper()
			if _, err := mk(ckpt, released).w.RunCycle(); err != ErrInterrupted {
				t.Fatalf("cut-off dispatch returned %v, want ErrInterrupted", err)
			}
		}

		ref := mk("", 0)
		crRef, err := ref.w.RunCycle()
		if err != nil {
			t.Fatal(err)
		}
		want, all := outputs(ref, crRef), ref.remote.calls[0]
		if adaptive && all[released].Budget == 0 {
			t.Fatal("adaptive tasks must carry their budget")
		}

		dir := t.TempDir()
		ckpt := filepath.Join(dir, "ckpt.json")
		interrupt(ckpt)
		r, got := resume(ckpt)
		if !reflect.DeepEqual(r.remote.calls[0], all[released:]) {
			t.Fatalf("adaptive=%v: resumed cycle dispatched %+v, want the unreleased %+v", adaptive, r.remote.calls[0], all[released:])
		}
		if got != want {
			t.Fatalf("adaptive=%v: resumed coordinator cycle differs from uninterrupted run:\n%s\nvs\n%s", adaptive, got, want)
		}

		// Same interruption, but the first pair's record is superseded by
		// one without sketches before the resume.
		ckpt = filepath.Join(dir, "stripped.json")
		interrupt(ckpt)
		jw, rec, err := journal.Open(ckpt + ".wal")
		if err != nil {
			t.Fatal(err)
		}
		var first *journal.Entry
		for i := range rec.Entries {
			if rec.Entries[i].Kind == "pair" {
				first = &rec.Entries[i]
				break
			}
		}
		if first == nil {
			t.Fatal("interrupted coordinator cycle journaled no pair record")
		}
		var body struct {
			Outcome map[string]json.RawMessage `json:"outcome"`
			Events  json.RawMessage            `json:"events,omitempty"`
		}
		if err := json.Unmarshal(first.Result, &body); err != nil {
			t.Fatal(err)
		}
		delete(body.Outcome, "sketches")
		first.Result, _ = json.Marshal(body)
		if err := jw.Append(*first); err != nil {
			t.Fatal(err)
		}
		jw.Close()
		r, got = resume(ckpt)
		if wantTasks := append([]PairTask{all[0]}, all[released:]...); !reflect.DeepEqual(r.remote.calls[0], wantTasks) {
			t.Fatalf("adaptive=%v: with a sketch-less record the resume dispatched %+v, want %+v", adaptive, r.remote.calls[0], wantTasks)
		}
		if got != want {
			t.Fatalf("adaptive=%v: resume past a sketch-less record differs from uninterrupted run:\n%s\nvs\n%s", adaptive, got, want)
		}
	}
}

// TestAdmissionReplayResume: admission is recomputed, never recorded —
// each setting admits what the breakers allow when it starts, and a
// resumed cycle's replayed calibrations and earlier settings re-score
// the restored cycle-start snapshot to that same point. A two-setting
// brownout cycle whose breaker opens in setting 0, so that setting 1
// skips the sick service, is interrupted at every 3rd interrupt poll
// (every 9th under -short), fixed and adaptive, and resumed with its
// journal and with the journal deleted: the CycleResult, fault ledger
// and breaker state must equal an uninterrupted run's at every point.
func TestAdmissionReplayResume(t *testing.T) {
	const sick = "iPerf (BBR)"
	nets := []netem.Config{netem.HighlyConstrained(), netem.ModeratelyConstrained()}
	step := 3
	if testing.Short() {
		step = 9
	}
	type run struct {
		w      *Watchdog
		ledger []FaultEvent
	}
	for _, adaptive := range []bool{false, true} {
		mk := func(ckpt string, interrupt func() bool) *run {
			opts := fastOpts(nets[0])
			opts.BaseSeed = 5
			opts.Chaos = &chaos.Config{Brownouts: []*chaos.Brownout{{Service: sick, Trials: 1 << 40}}}
			if adaptive {
				opts.Adaptive = &AdaptiveOptions{}
			}
			r := &run{}
			r.w = &Watchdog{
				Services:       threeServices(),
				Settings:       nets,
				Opts:           opts,
				CheckpointPath: ckpt,
				Interrupt:      interrupt,
				OnFault:        func(ev FaultEvent) { r.ledger = append(r.ledger, ev) },
			}
			return r
		}
		outputs := func(r *run, cr *CycleResult) string {
			a, _ := json.Marshal(cr)
			b, _ := json.Marshal(r.ledger)
			c, _ := json.Marshal(r.w.Breakers.Status())
			return string(a) + "\n" + string(b) + "\n" + string(c)
		}

		polls := 0
		ref := mk("", func() bool { polls++; return false })
		crRef, err := ref.w.RunCycle()
		if err != nil {
			t.Fatal(err)
		}
		if v, ok := crRef.PerSetting[1].SharePct(sick, "iPerf (Reno)"); !ok || !math.IsInf(v, -1) {
			t.Fatalf("adaptive=%v setup: setting 1 sick cell = %v, %v; want -Inf (breaker-skipped)", adaptive, v, ok)
		}
		want := outputs(ref, crRef)

		for after := 0; after < polls; after += step {
			for _, keepJournal := range []bool{true, false} {
				ckpt := filepath.Join(t.TempDir(), "ckpt.json")
				calls := 0
				if _, err := mk(ckpt, func() bool { calls++; return calls > after }).w.RunCycle(); err != ErrInterrupted {
					t.Fatalf("adaptive=%v, after %d polls: interrupted cycle returned %v", adaptive, after, err)
				}
				if !keepJournal {
					if err := os.Remove(ckpt + ".wal"); err != nil {
						t.Fatal(err)
					}
				}
				r := mk(ckpt, nil)
				cr, err := r.w.RunCycle()
				if err != nil {
					t.Fatal(err)
				}
				if got := outputs(r, cr); got != want {
					t.Fatalf("adaptive=%v, journal=%v, interrupt after %d of %d polls: resumed cycle differs from uninterrupted run:\n%s\nvs\n%s",
						adaptive, keepJournal, after, polls, got, want)
				}
			}
		}
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
