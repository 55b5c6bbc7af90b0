package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"prudentia/internal/chaos"
	"prudentia/internal/journal"
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
	out := RunPair(svcs[0], svcs[1], net, opts, nil)
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
		return RunPair(svcs[0], svcs[2], net, opts, nil)
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
	mk := func(ckpt, jpath string, interrupt func() bool) (*Watchdog, *obs.Registry) {
		opts := fastOpts(netem.HighlyConstrained())
		opts.BaseSeed = 11
		opts.Chaos = &chaos.Config{PanicRate: 0.15, ErrorRate: 0.10, CorruptRate: 0.10}
		reg := obs.NewRegistry()
		w := &Watchdog{
			Services:       threeServices(),
			Settings:       []netem.Config{netem.HighlyConstrained()},
			Opts:           opts,
			CheckpointPath: ckpt,
			JournalPath:    jpath,
			Interrupt:      interrupt,
			Obs:            NewInstruments(reg, nil),
		}
		return w, reg
	}
	interruptAfter := func(n int) func() bool {
		calls := 0
		return func() bool { calls++; return calls > n }
	}

	// Reference: uninterrupted, no durability files.
	wRef, _ := mk("", "", nil)
	crRef, err := wRef.RunCycle()
	if err != nil {
		t.Fatal(err)
	}
	if len(crRef.Faults) == 0 {
		t.Fatal("setup: the uninterrupted cycle recorded no fault events")
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
	if _, err := os.Stat(wal); err != nil {
		t.Fatalf("journal not kept after completed cycle: %v", err)
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
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("%s not kept after completed cycle: %v", p, err)
		}
	}

	// Each resumed process alone reproduces the uninterrupted run's
	// CycleResult — with, because replay drives the ordinary release
	// path, its fault ledger event for event — and did so by replaying.
	jRef, _ := json.Marshal(crRef)
	for _, c := range []struct {
		name string
		cr   *CycleResult
		reg  *obs.Registry
	}{{"journal resume", crB, rb}, {"checkpoint-only resume", crD, rd}} {
		if got, _ := json.Marshal(c.cr); !bytes.Equal(jRef, got) {
			t.Fatalf("%s differs from uninterrupted run:\n%s\nvs\n%s", c.name, jRef, got)
		}
		if c.reg.Snapshot().Counters["prudentia_journal_replayed_total"] == 0 {
			t.Fatalf("%s replayed nothing", c.name)
		}
	}
}

// TestStalePairRecordResumes: a journal an older build's fleet
// coordinator wrote can hold a "pair" record — a whole finished pair,
// keyed under the retired 0001 identity prefix — beside the ordinary
// attempt records. A local resume from that journal must neither
// replay the record nor choke on it: its CycleResult, fault ledger and
// replay count equal a resume from the same journal without it, and
// the CycleResult and ledger equal an uninterrupted run's. The record
// names a quarantined pair with a ledger event of its own, so taking
// it would show in both.
func TestStalePairRecordResumes(t *testing.T) {
	type run struct {
		w   *Watchdog
		reg *obs.Registry
	}
	mk := func(ckpt string, interrupt func() bool) *run {
		opts := fastOpts(netem.HighlyConstrained())
		opts.BaseSeed = 11
		opts.Chaos = &chaos.Config{PanicRate: 0.15, ErrorRate: 0.10, CorruptRate: 0.10}
		r := &run{reg: obs.NewRegistry()}
		r.w = &Watchdog{
			Services:       threeServices(),
			Settings:       []netem.Config{netem.HighlyConstrained()},
			Opts:           opts,
			CheckpointPath: ckpt,
			Interrupt:      interrupt,
			Obs:            NewInstruments(r.reg, nil),
		}
		return r
	}
	outputs := func(cr *CycleResult) string {
		b, _ := json.Marshal(cr)
		return string(b)
	}
	resume := func(ckpt string, stale bool) (string, int64) {
		t.Helper()
		calls := 0
		if _, err := mk(ckpt, func() bool { calls++; return calls > 12 }).w.RunCycle(); err != ErrInterrupted {
			t.Fatalf("interrupted cycle returned %v, want ErrInterrupted", err)
		}
		r := mk(ckpt, nil)
		if stale {
			jw, rec, err := journal.Open(ckpt + ".wal")
			if err != nil {
				t.Fatal(err)
			}
			if len(rec.Entries) == 0 {
				t.Fatal("interrupted cycle journaled no attempts")
			}
			out, _ := json.Marshal(&PairOutcome{Incumbent: "iPerf (Reno)", Contender: "iPerf (Cubic)", Failed: true})
			record := fmt.Sprintf(`{"outcome":%s,"events":[{"pair":"iPerf (Reno) vs iPerf (Cubic)","kind":"quarantine"}]}`, out)
			key := trialSeed(r.w.SettingOptions(1, 0).BaseSeed, 1<<60|pairSeedID(0, 1), 0)
			if err := jw.Append(journal.Entry{Seed: key, Pair: "iPerf (Reno) vs iPerf (Cubic)", Kind: "pair",
				Result: json.RawMessage(record)}); err != nil {
				t.Fatal(err)
			}
			jw.Close()
		}
		cr, err := r.w.RunCycle()
		if err != nil {
			t.Fatal(err)
		}
		return outputs(cr), r.reg.Snapshot().Counters["prudentia_journal_replayed_total"]
	}

	ref := mk("", nil)
	cr, err := ref.w.RunCycle()
	if err != nil {
		t.Fatal(err)
	}
	want := outputs(cr)
	plain, plainReplays := resume(filepath.Join(t.TempDir(), "plain.ckpt"), false)
	got, replays := resume(filepath.Join(t.TempDir(), "stale.ckpt"), true)
	if plain != want {
		t.Fatalf("resume differs from an uninterrupted run:\n%s\nvs\n%s", plain, want)
	}
	if got != want {
		t.Fatalf("resume past a stale pair record differs from an uninterrupted run:\n%s\nvs\n%s", got, want)
	}
	if plainReplays == 0 || replays != plainReplays {
		t.Fatalf("resume past a stale pair record replayed %v attempts, want %v", replays, plainReplays)
	}
}

// chaosRun is one watchdog of the resume tests below: three baselines in
// one setting under hot fault injection.
type chaosRun struct {
	w *Watchdog
}

func newChaosRun(ckpt string, interrupt func() bool) *chaosRun {
	opts := fastOpts(netem.HighlyConstrained())
	opts.BaseSeed = 11
	opts.Chaos = &chaos.Config{PanicRate: 0.15, ErrorRate: 0.10, CorruptRate: 0.10}
	return &chaosRun{w: &Watchdog{
		Services:       threeServices(),
		Settings:       []netem.Config{netem.HighlyConstrained()},
		Opts:           opts,
		CheckpointPath: ckpt,
		Interrupt:      interrupt,
	}}
}

// outputs runs the cycle and returns its CycleResult, fault ledger
// included, as JSON.
func (r *chaosRun) outputs(t *testing.T) string {
	t.Helper()
	cr, err := r.w.RunCycle()
	if err != nil {
		t.Fatal(err)
	}
	b, _ := json.Marshal(cr)
	return string(b)
}

// interruptAt12 runs a chaosRun's cycle at ckpt until its 13th
// interrupt poll, partway through the matrix, and requires that it
// stopped there.
func interruptAt12(t *testing.T, ckpt string) {
	t.Helper()
	calls := 0
	if _, err := newChaosRun(ckpt, func() bool { calls++; return calls > 12 }).w.RunCycle(); err != ErrInterrupted {
		t.Fatalf("interrupted cycle returned %v, want ErrInterrupted", err)
	}
}

// TestCompletedCycleReplays: a completed cycle keeps its header and
// journal, so a process that dies after RunCycle returns and before it
// writes anything of its own loses nothing. A new watchdog on the same
// paths renders the same cycle by replay: the same cycle number,
// CycleResult and fault ledger, every record the first run journaled
// recovered and replayed, and no attempt executed (journaled) again.
func TestCompletedCycleReplays(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "checkpoint.json")
	first := newChaosRun(ckpt, nil)
	cr, err := first.w.RunCycle()
	if err != nil {
		t.Fatal(err)
	}
	b, _ := json.Marshal(cr)
	want := string(b)
	j1 := first.w.BuildManifest(nil, nil).Journal
	if len(cr.Faults) == 0 || j1 == nil || j1.Records == 0 {
		t.Fatalf("first run: ledger of %d events, journal %+v; want both non-empty", len(cr.Faults), j1)
	}

	second := newChaosRun(ckpt, nil)
	if n, err := second.w.Resumes(); n != 1 || err != nil {
		t.Fatalf("Resumes over a completed cycle = %d, %v; want 1", n, err)
	}
	if got := second.outputs(t); got != want {
		t.Fatalf("replayed cycle differs from the completed one:\n%s\nvs\n%s", got, want)
	}
	j2 := second.w.BuildManifest(nil, nil).Journal
	if j2.Records != 0 || j2.Replayed != j1.Records || j2.Recovered != j1.Records {
		t.Fatalf("replay journal = %+v; want 0 records and %d replayed and recovered", j2, j1.Records)
	}
}

// TestResumeUnderAnotherRecipe: seed identities are catalog and setting
// indices, so a header is bound to the recipe it ran under. A cycle
// interrupted under one recipe and rerun under a reordered catalog, or
// under the other standing setting, starts fresh: each result equals an
// uninterrupted run of the new recipe. A header without the recipe
// field, as an older build wrote it, still resumes, and by replay.
func TestResumeUnderAnotherRecipe(t *testing.T) {
	for _, c := range []struct {
		name   string
		change func(*Watchdog)
	}{
		{"reordered catalog", func(w *Watchdog) { slices.Reverse(w.Services) }},
		{"other setting", func(w *Watchdog) { w.Settings = []netem.Config{netem.ModeratelyConstrained()} }},
	} {
		t.Run(c.name, func(t *testing.T) {
			ref := newChaosRun("", nil)
			c.change(ref.w)
			want := ref.outputs(t)

			ckpt := filepath.Join(t.TempDir(), "checkpoint.json")
			interruptAt12(t, ckpt)
			r := newChaosRun(ckpt, nil)
			c.change(r.w)
			if n, err := r.w.Resumes(); n != 0 || err != nil {
				t.Fatalf("Resumes under another recipe = %d, %v; want 0", n, err)
			}
			if got := r.outputs(t); got != want {
				t.Fatalf("rerun under another recipe differs from an uninterrupted run of it:\n%s\nvs\n%s", got, want)
			}
		})
	}

	t.Run("header without recipe", func(t *testing.T) {
		want := newChaosRun("", nil).outputs(t)
		ckpt := filepath.Join(t.TempDir(), "checkpoint.json")
		interruptAt12(t, ckpt)
		cp, err := LoadCheckpoint(ckpt)
		if err != nil || cp.Recipe == "" {
			t.Fatalf("interrupted header = %+v, %v; want one with a recipe", cp, err)
		}
		cp.Recipe = ""
		if err := SaveCheckpoint(ckpt, cp); err != nil {
			t.Fatal(err)
		}
		r := newChaosRun(ckpt, nil)
		if got := r.outputs(t); got != want {
			t.Fatalf("resume of a header without recipe differs from an uninterrupted run:\n%s\nvs\n%s", got, want)
		}
		if j := r.w.BuildManifest(nil, nil).Journal; j == nil || j.Replayed == 0 {
			t.Fatalf("resume of a header without recipe replayed nothing: %+v", j)
		}
	})
}

// TestFreshCycleCannotEmptyJournal: a fresh cycle that cannot empty the
// journal (a disk fault at its rewrite) runs unjournaled and writes no
// header beside the records left there. Otherwise a run of another
// recipe, interrupted, would leave its own header over the old journal,
// and its rerun would replay the other experiment's trials. The rerun
// must equal an uninterrupted run of the new recipe.
func TestFreshCycleCannotEmptyJournal(t *testing.T) {
	reversed := func(r *chaosRun) *chaosRun { slices.Reverse(r.w.Services); return r }
	want := reversed(newChaosRun("", nil)).outputs(t)

	dir := t.TempDir()
	ckpt := filepath.Join(dir, "checkpoint.json")
	interruptAt12(t, ckpt)
	header, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	// A non-empty directory where the journal's rewrite puts its temp
	// file fails the rewrite, and only it.
	block := filepath.Join(dir, ".checkpoint.json.wal.tmp")
	if err := os.MkdirAll(filepath.Join(block, "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	calls := 0
	r := reversed(newChaosRun(ckpt, func() bool { calls++; return calls > 12 }))
	var lines []string
	r.w.Progress = func(format string, args ...any) { lines = append(lines, fmt.Sprintf(format, args...)) }
	if _, err := r.w.RunCycle(); err != ErrInterrupted {
		t.Fatalf("interrupted cycle returned %v, want ErrInterrupted", err)
	}
	if !slices.ContainsFunc(lines, func(l string) bool { return strings.HasPrefix(l, "journal open failed") }) {
		t.Fatalf("the blocked rewrite did not fail the journal open; progress:\n%s", strings.Join(lines, "\n"))
	}
	if now, err := os.ReadFile(ckpt); err != nil || !bytes.Equal(now, header) {
		t.Fatalf("a cycle that could not empty the journal wrote a header: %v\n%s", err, now)
	}

	if err := os.RemoveAll(block); err != nil {
		t.Fatal(err)
	}
	if got := reversed(newChaosRun(ckpt, nil)).outputs(t); got != want {
		t.Fatalf("rerun after an unjournaled cycle differs from an uninterrupted run:\n%s\nvs\n%s", got, want)
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
	for _, adaptive := range []bool{false, true} {
		mk := func(ckpt string, interrupt func() bool) *Watchdog {
			opts := fastOpts(nets[0])
			opts.BaseSeed = 5
			opts.Chaos = &chaos.Config{Brownouts: []*chaos.Brownout{{Service: sick, Trials: 1 << 40}}}
			if adaptive {
				opts.Adaptive = &AdaptiveOptions{}
			}
			return &Watchdog{
				Services:       threeServices(),
				Settings:       nets,
				Opts:           opts,
				CheckpointPath: ckpt,
				Interrupt:      interrupt,
			}
		}
		outputs := func(w *Watchdog, cr *CycleResult) string {
			a, _ := json.Marshal(cr)
			b, _ := json.Marshal(w.Breakers.Status())
			return string(a) + "\n" + string(b)
		}

		polls := 0
		ref := mk("", func() bool { polls++; return false })
		crRef, err := ref.RunCycle()
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
				if _, err := mk(ckpt, func() bool { calls++; return calls > after }).RunCycle(); err != ErrInterrupted {
					t.Fatalf("adaptive=%v, after %d polls: interrupted cycle returned %v", adaptive, after, err)
				}
				if !keepJournal {
					if err := os.Remove(ckpt + ".wal"); err != nil {
						t.Fatal(err)
					}
				}
				r := mk(ckpt, nil)
				cr, err := r.RunCycle()
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
