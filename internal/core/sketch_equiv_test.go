package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"prudentia/internal/journal"
	"prudentia/internal/netem"
	"prudentia/internal/services"
	"prudentia/internal/sim"
	"prudentia/internal/stats"
)

// sketchTestServices is a small catalog exercising distinct CCAs.
func sketchTestServices() []services.Service {
	return []services.Service{
		services.ByName("iPerf (Reno)"),
		services.ByName("iPerf (Cubic)"),
		services.ByName("iPerf (BBR)"),
	}
}

// The slice oracle. A pair's statistics live in sketches only; what
// they must equal is order statistics over the pair's raw counted
// trials, which production no longer retains. The equivalence tests
// therefore run the matrix under a trial journal, rebuild every pair's
// counted TrialResults from the journaled "ok" entries, and replay the
// accessors and both stopping rules in slice arithmetic (stats.Median,
// stats.IQR and stats.MedianCI over raw series, prefixes recomputed from
// scratch, no sketch and no verdict ring).

// runJournaled runs m with a write-ahead journal and returns its result
// plus every pair's counted trials in trial order, keyed by pair label.
func runJournaled(t *testing.T, m *Matrix) (*MatrixResult, map[string][]TrialResult) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trials.wal")
	jw, err := journal.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	m.Journal = newJournalSink(jw, nil)
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	jr, rec, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	jr.Close()
	entries := rec.Entries
	sort.SliceStable(entries, func(i, j int) bool { return entries[i].Attempt < entries[j].Attempt })
	trials := make(map[string][]TrialResult)
	for _, e := range entries {
		if e.Kind != "ok" {
			continue
		}
		var tr TrialResult
		if err := json.Unmarshal(e.Result, &tr); err != nil {
			t.Fatalf("journaled result of %s attempt %d: %v", e.Pair, e.Attempt, err)
		}
		trials[e.Pair] = append(trials[e.Pair], tr)
	}
	return res, trials
}

// series extracts one metric from the first n trials.
func series(trials []TrialResult, n int, f func(*TrialResult) float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = f(&trials[i])
	}
	return out
}

// sliceCIWithin is the §3.4 rule on a raw series.
func sliceCIWithin(xs []float64, tol float64) bool {
	lo, hi := stats.MedianCI(xs)
	m := stats.Median(xs)
	return len(xs) > 0 && m-lo <= tol && hi-m <= tol
}

// sliceFixedStop replays the fixed batch-escalation rule over a pair's
// counted trials: the trial it stops at (0 if it wants more than it was
// given) and whether it gives up Unstable there.
func sliceFixedStop(opts SchedulerOptions, trials []TrialResult) (stopAt int, unstable bool) {
	target := opts.MinTrials
	for n := target; n <= len(trials); n = target {
		ok := true
		for slot := 0; slot < 2; slot++ {
			ok = ok && sliceCIWithin(series(trials, n, func(t *TrialResult) float64 { return t.Mbps[slot] }), opts.ToleranceMbps)
		}
		if ok || target >= opts.MaxTrials {
			return n, !ok
		}
		if target += opts.Step; target > opts.MaxTrials {
			target = opts.MaxTrials
		}
	}
	return 0, false
}

// sliceAdaptiveStop is the sequential stopper on the raw share series
// s0, s1 (one entry per counted trial): CI width, then verdict
// stability by recomputing the last StableK prefixes, then budget.
func sliceAdaptiveStop(pol stats.SequentialPolicy, s0, s1 []float64) (stop bool, reason string) {
	n := len(s0)
	min := pol.MinTrials
	if pol.MaxTrials > 0 && min > pol.MaxTrials {
		min = pol.MaxTrials
	}
	if n == 0 || n < min {
		return false, ""
	}
	width := func(xs []float64) float64 { lo, hi := stats.MedianCI(xs); return hi - lo }
	if pol.MaxCIWidth > 0 && width(s0) <= pol.MaxCIWidth && width(s1) <= pol.MaxCIWidth {
		return true, stats.StopCIWidth
	}
	fair := func(k int) bool {
		return stats.Median(s0[:k]) >= pol.FairSharePct && stats.Median(s1[:k]) >= pol.FairSharePct
	}
	if pol.StableK > 0 && n >= pol.StableK {
		stable := true
		for i := 1; i < pol.StableK; i++ {
			stable = stable && fair(n-i) == fair(n)
		}
		if stable {
			return true, stats.StopStable
		}
	}
	if pol.MaxTrials > 0 && n >= pol.MaxTrials {
		return true, stats.StopBudget
	}
	return false, ""
}

// checkPairAgainstSlices compares every accessor of one pair with slice
// arithmetic over its raw counted trials.
func checkPairAgainstSlices(t *testing.T, res *MatrixResult, p *PairOutcome, trials []TrialResult) {
	t.Helper()
	label := p.Incumbent + " vs " + p.Contender
	n := len(trials)
	if p.Counted() != n {
		t.Fatalf("%s: Counted() = %d, journal holds %d counted trials", label, p.Counted(), n)
	}
	if p.Failed || p.Discards+p.Corrupt+len(p.Failures) != 0 {
		t.Fatalf("%s: the oracle replays clean runs only: %+v", label, p)
	}
	var obs TrialObs
	for i := range trials {
		obs.add(trials[i].Obs)
	}
	if p.Sketches.Obs != obs {
		t.Fatalf("%s: telemetry aggregate %+v != sum over trials %+v", label, p.Sketches.Obs, obs)
	}
	util := series(trials, n, func(t *TrialResult) float64 { return t.Utilization })
	if got, want := p.MedianUtilization(), stats.Median(util); got != want {
		t.Fatalf("%s: MedianUtilization %v != %v", label, got, want)
	}
	for slot := 0; slot < 2; slot++ {
		share := series(trials, n, func(t *TrialResult) float64 { return t.SharePct[slot] })
		mbps := series(trials, n, func(t *TrialResult) float64 { return t.Mbps[slot] })
		loss := series(trials, n, func(t *TrialResult) float64 { return t.Loss[slot] })
		delay := series(trials, n, func(t *TrialResult) float64 { return t.QueueDelay[slot].Seconds() })
		lo, hi := stats.MedianCI(share)
		gotLo, gotHi := p.ShareCI(slot)
		if p.MedianSharePct(slot) != stats.Median(share) ||
			p.IQRSharePct(slot) != stats.IQR(share) ||
			p.MedianMbps(slot) != stats.Median(mbps) ||
			p.MedianLoss(slot) != stats.Median(loss) ||
			p.MedianQueueDelay(slot) != sim.Time(stats.Median(delay)*float64(sim.Second)) ||
			gotLo != lo || gotHi != hi {
			t.Fatalf("%s slot %d: sketch statistics diverged from slice arithmetic", label, slot)
		}
		if !p.Sketches.SharePct[slot].Exact() {
			t.Fatalf("%s: sketch left exact regime at test trial budgets", label)
		}
		// Instability reads the first-named service's slot; a self-pair
		// only ever exposes slot 0.
		a, b := p.Incumbent, p.Contender
		if slot == 1 {
			if a == b {
				continue
			}
			a, b = b, a
		}
		rep, ok := res.Instability(a, b)
		sort.Float64s(mbps)
		if !ok || rep.IQR != stats.IQR(mbps) || !slices.Equal(rep.TrialMbps, mbps) {
			t.Fatalf("%s slot %d: Instability %+v, want sorted %v", label, slot, rep, mbps)
		}
	}
}

// TestSketchMatrixEquivalence: under the fixed protocol every accessor
// the report layer reads agrees to the last bit with slice arithmetic
// over the pair's raw trials, and every pair stops at the trial, and
// with the Unstable verdict, the slice-backed §3.4 rule dictates — for
// a tolerance every pair meets at once and for one that forces
// escalation.
func TestSketchMatrixEquivalence(t *testing.T) {
	net := netem.HighlyConstrained()
	escalated := 0
	for _, tol := range []float64{50, 0.05} {
		opts := fastOpts(net)
		opts.ToleranceMbps = tol
		res, trials := runJournaled(t, &Matrix{Services: sketchTestServices(), Net: net, Opts: opts})
		for key, p := range res.Pairs {
			tr := trials[p.Incumbent+" vs "+p.Contender]
			checkPairAgainstSlices(t, res, p, tr)
			if stopAt, unstable := sliceFixedStop(opts, tr); stopAt != len(tr) || unstable != p.Unstable {
				t.Fatalf("tol %g pair %s: ran %d trials (unstable=%v); the slice rule stops at %d (unstable=%v)",
					tol, key, len(tr), p.Unstable, stopAt, unstable)
			}
			if len(tr) > opts.MinTrials {
				escalated++
			}
		}
	}
	if escalated == 0 {
		t.Fatal("no pair escalated past MinTrials: the tight tolerance no longer exercises the rule")
	}
}

// TestSketchWorkerCountDeterminism: matrices are byte-identical
// (JSON-compared) at any worker count, like every other artifact in the
// repo.
func TestSketchWorkerCountDeterminism(t *testing.T) {
	svcs := sketchTestServices()
	net := netem.HighlyConstrained()
	run := func(workers int) []byte {
		m := &Matrix{Services: svcs, Net: net, Opts: fastOpts(net), Workers: workers}
		res, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		blob, err := json.Marshal(res.Pairs)
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	serial := run(1)
	for _, w := range []int{2, 5} {
		if got := run(w); !bytes.Equal(got, serial) {
			t.Fatalf("workers=%d: sketch matrix diverged from serial", w)
		}
	}
}

// TestSketchCheckpointRoundTrip: a PairOutcome survives the checkpoint
// JSON format with byte-identical sketch state, so a resumed run
// restores exactly the statistics it flushed.
func TestSketchCheckpointRoundTrip(t *testing.T) {
	net := netem.HighlyConstrained()
	out, err := RunPair(services.ByName("iPerf (Reno)"), services.ByName("iPerf (Cubic)"), net, fastOpts(net))
	if err != nil {
		t.Fatal(err)
	}
	if out.Counted() == 0 {
		t.Fatal("pair counted no trials")
	}
	blob, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	var back PairOutcome
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(); err != nil {
		t.Fatalf("round-tripped pair rejected: %v", err)
	}
	if back.Counted() != out.Counted() {
		t.Fatalf("round trip lost trials: %d != %d", back.Counted(), out.Counted())
	}
	for slot := 0; slot < 2; slot++ {
		if !bytes.Equal(back.Sketches.SharePct[slot].Encode(), out.Sketches.SharePct[slot].Encode()) {
			t.Fatalf("slot %d share sketch changed across JSON", slot)
		}
		if back.MedianSharePct(slot) != out.MedianSharePct(slot) {
			t.Fatalf("slot %d median changed across JSON", slot)
		}
	}
	if back.Sketches.Obs != out.Sketches.Obs {
		t.Fatalf("telemetry aggregate changed: %+v != %+v", back.Sketches.Obs, out.Sketches.Obs)
	}
	reblob, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reblob, blob) {
		t.Fatal("checkpoint JSON is not stable across a round trip")
	}
}

// TestSketchAdaptiveEquivalence: under adaptive budgets the sequential
// stopper (sketch quantiles plus the verdict ring) stops every pair at
// the trial, and with the reason, the slice-backed stopper dictates on
// the pair's raw share series, and every accessor still agrees with
// slice arithmetic.
func TestSketchAdaptiveEquivalence(t *testing.T) {
	net := netem.HighlyConstrained()
	opts := fastOpts(net)
	opts.MaxTrials, opts.Step = 8, 2
	opts.Adaptive = &AdaptiveOptions{MinTrials: 2, CIWidthPct: 10}
	var budgets map[string]int
	m := &Matrix{Services: sketchTestServices(), Net: net, Opts: opts,
		OnBudgets: func(b map[string]int) { budgets = b }}
	res, trials := runJournaled(t, m)
	reasons := map[string]int{}
	for key, p := range res.Pairs {
		tr := trials[p.Incumbent+" vs "+p.Contender]
		checkPairAgainstSlices(t, res, p, tr)
		pol := opts.Adaptive.withDefaults().policy(budgets[key], opts.MaxTrials)
		if p.Budget != pol.MaxTrials {
			t.Fatalf("pair %s: recorded budget %d, allocated ceiling %d", key, p.Budget, pol.MaxTrials)
		}
		for n := 1; n <= len(tr); n++ {
			s0 := series(tr, n, func(t *TrialResult) float64 { return t.SharePct[0] })
			s1 := series(tr, n, func(t *TrialResult) float64 { return t.SharePct[1] })
			stop, reason := sliceAdaptiveStop(pol, s0, s1)
			if stop != (n == len(tr)) || (stop && reason != p.StopReason) {
				t.Fatalf("pair %s: stopped after %d trials with %q; slice stopper at trial %d says stop=%v %q",
					key, len(tr), p.StopReason, n, stop, reason)
			}
		}
		if want := p.StopReason == stats.StopBudget && pol.MaxTrials >= opts.MaxTrials; p.Unstable != want {
			t.Fatalf("pair %s: Unstable = %v, want %v", key, p.Unstable, want)
		}
		reasons[p.StopReason]++
	}
	if len(reasons) < 2 {
		t.Fatalf("every pair stopped for the same reason (%v): the matrix no longer exercises the stopper", reasons)
	}
}

// TestSketchMergedShareSketch: the matrix-level merged sketch holds
// every counted trial's two share samples.
func TestSketchMergedShareSketch(t *testing.T) {
	net := netem.HighlyConstrained()
	m := &Matrix{Services: sketchTestServices(), Net: net, Opts: fastOpts(net)}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	merged := res.MergedShareSketch()
	if merged == nil {
		t.Fatal("matrix returned no merged sketch")
	}
	want := 0
	for i, a := range res.Names {
		for j := i; j < len(res.Names); j++ {
			if p, _, ok := res.Cell(a, res.Names[j]); ok && !p.Failed {
				want += 2 * p.Counted()
			}
		}
	}
	if merged.Count() != want {
		t.Fatalf("merged sketch holds %d samples, want %d", merged.Count(), want)
	}
}

// TestPairBeyondSketchBufferCap pins the documented >128-trial rule: a
// caller asking for more counted trials than stats.SketchBufferCap gets
// the right count, medians within 1% of slice arithmetic over the raw
// trials, an IQR, and no TrialMbps scatter.
func TestPairBeyondSketchBufferCap(t *testing.T) {
	net := netem.HighlyConstrained()
	opts := fastOpts(net)
	n := stats.SketchBufferCap + 2
	opts.MinTrials, opts.MaxTrials, opts.Step = n, n, n
	opts.Timing = func(s Spec) Spec {
		s.Duration, s.Warmup, s.Cooldown = 6*sim.Second, 2*sim.Second, sim.Second
		return s
	}
	svc := services.ByName("iPerf (Reno)")
	res, trials := runJournaled(t, &Matrix{Services: []services.Service{svc}, Net: net, Opts: opts})
	p := res.Pairs[pairKey(0, 0)]
	tr := trials[p.Incumbent+" vs "+p.Contender]
	if p.Counted() != n || len(tr) != n || p.Sketches.SharePct[0].Exact() {
		t.Fatalf("counted %d trials (journal %d), want %d in the compacted regime", p.Counted(), len(tr), n)
	}
	for slot := 0; slot < 2; slot++ {
		want := stats.Median(series(tr, n, func(t *TrialResult) float64 { return t.SharePct[slot] }))
		if got := p.MedianSharePct(slot); got < 0.99*want || got > 1.01*want {
			t.Fatalf("slot %d: median share %v not within 1%% of %v", slot, got, want)
		}
	}
	rep, ok := res.Instability(svc.Name(), svc.Name())
	if !ok || len(rep.TrialMbps) != 0 || rep.IQR < 0 {
		t.Fatalf("Instability past the cap = %+v, %v; want an IQR and no scatter", rep, ok)
	}
}

// exactStatsCheckpoint is a checkpoint as a build that still had
// -exact-stats wrote it: the pair carries its raw trials and no
// sketches. skippedCheckpoint holds a breaker-skipped pair, which never
// had either.
const (
	exactStatsCheckpoint = `{
  "schema": "prudentia.checkpoint/1",
  "cycle": 1,
  "calibration": [{"iPerf (Cubic)": 8}],
  "pairs": [{"0|0": {
    "Incumbent": "iPerf (Cubic)", "Contender": "iPerf (Cubic)",
    "Trials": [{
      "Mbps": [4.078666666666667, 3.9213333333333336], "FairShareMbps": [4, 4],
      "SharePct": [101.96666666666667, 98.03333333333335], "Utilization": 1,
      "Loss": [0.0012391573729863693, 0.001361563074409422],
      "QueueDelay": [157919993, 157828415], "ExternalLossRate": 0, "Discarded": false,
      "QueueSeries": null, "RateSeries": null,
      "obs": {"arrived_pkts": 40868, "dropped_pkts": 797, "delivered_pkts": 39946, "sim_seconds": 60}
    }],
    "Discards": 0, "Corrupt": 0, "Unstable": false, "Failed": false, "Skipped": false,
    "Retries": 0, "Failures": null}}],
  "open_services": [[]]
}`
	skippedCheckpoint = `{
  "schema": "prudentia.checkpoint/1",
  "cycle": 1,
  "calibration": [{"iPerf (Cubic)": 8}],
  "pairs": [{"0|0": {
    "Incumbent": "iPerf (Cubic)", "Contender": "iPerf (Cubic)",
    "Discards": 0, "Corrupt": 0, "Unstable": false, "Failed": false, "Skipped": true,
    "Retries": 0, "Failures": null}}],
  "open_services": [["iPerf (Cubic)"]]
}`
)

// checkpointPairRecord lifts pair "0|0" out of a checkpoint an older
// build wrote and wraps it as the journal's pair record, so the fixtures
// above keep guarding the decode that now reads finished pairs back.
func checkpointPairRecord(t testing.TB, checkpoint string) journalEntry {
	t.Helper()
	var doc struct {
		Pairs []map[string]json.RawMessage `json:"pairs"`
	}
	if err := json.Unmarshal([]byte(checkpoint), &doc); err != nil {
		t.Fatal(err)
	}
	return journalEntry{Kind: "pair", Pair: "fixture",
		Result: json.RawMessage(`{"outcome":` + string(doc.Pairs[0]["0|0"]) + `}`)}
}

// TestPairRecordRejectsRawSamplePairs: a pair that ran trials but
// decodes to no sketch state must not be accepted as a silent blank
// cell; a skipped pair, which has none by construction, still decodes.
func TestPairRecordRejectsRawSamplePairs(t *testing.T) {
	if _, _, err := decodePairRecord(checkpointPairRecord(t, exactStatsCheckpoint)); !errors.Is(err, ErrNoSketches) {
		t.Fatalf("raw-sample pair: decodePairRecord returned %v, want ErrNoSketches", err)
	}
	// Sketch state with a null member is as unusable as none.
	partial := `{"outcome": {"Incumbent": "a", "Contender": "b", "sketches": {"n": 1, "mbps": [null, null]}}}`
	if _, _, err := decodePairRecord(journalEntry{Result: json.RawMessage(partial)}); !errors.Is(err, ErrNoSketches) {
		t.Fatalf("partial sketch set: decodePairRecord returned %v, want ErrNoSketches", err)
	}
	for _, bad := range []string{``, `{`, `{}`, `{"outcome": null}`, `[1]`} {
		if out, _, err := decodePairRecord(journalEntry{Result: json.RawMessage(bad)}); err == nil {
			t.Fatalf("record %q decoded to %+v, want an error", bad, out)
		}
	}

	p, _, err := decodePairRecord(checkpointPairRecord(t, skippedCheckpoint))
	if err != nil {
		t.Fatalf("skipped pair without sketches must decode: %v", err)
	}
	if !p.Skipped || p.Counted() != 0 {
		t.Fatalf("skipped pair decoded as %+v", p)
	}
}
