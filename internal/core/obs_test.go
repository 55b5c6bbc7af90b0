package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"prudentia/internal/netem"
	"prudentia/internal/obs"
	"prudentia/internal/services"
)

// obsWatchdog builds a small chaos-enabled watchdog wired to a fresh
// registry and timeline, over the three iPerf baselines in the
// highly-constrained setting.
func obsWatchdog(workers int, tl *obs.Timeline) (*Watchdog, *obs.Registry) {
	net := netem.HighlyConstrained()
	opts := fastOpts(net)
	opts.BaseSeed = 77
	opts.Chaos = hotChaos()
	reg := obs.NewRegistry()
	return &Watchdog{
		Services: threeServices(),
		Settings: []netem.Config{net},
		Opts:     opts,
		Workers:  workers,
		Obs:      NewInstruments(reg, tl),
	}, reg
}

// TestObsSnapshotDeterminism: two identical seeded cycles — and the same
// cycle at different worker counts — must produce identical metric
// snapshots once wall-clock metrics are stripped. This is the registry's
// core contract: integer/fixed-point state is commutative, so live
// emission from worker goroutines cannot perturb the totals.
func TestObsSnapshotDeterminism(t *testing.T) {
	run := func(workers int) obs.Snapshot {
		w, reg := obsWatchdog(workers, nil)
		if _, err := w.RunCycle(); err != nil {
			t.Fatalf("cycle (workers=%d): %v", workers, err)
		}
		return deterministic(reg.Snapshot())
	}
	serial := run(1)
	if again := run(1); !reflect.DeepEqual(serial, again) {
		t.Fatal("re-running an identical seeded cycle changed the snapshot")
	}
	for _, nw := range []int{2, 4} {
		if par := run(nw); !reflect.DeepEqual(serial, par) {
			t.Fatalf("snapshot at %d workers differs from serial", nw)
		}
	}
	// Sanity: the stripped snapshot is not vacuously empty.
	if serial.Counters["prudentia_trials_completed_total"] == 0 {
		t.Fatal("determinism check ran zero trials")
	}
}

// TestObsManifestReconciliation recomputes every deterministic counter
// family from the CycleResult and requires exact agreement with the
// manifest snapshot — the acceptance criterion that the telemetry
// reconciles with the published report rather than drifting beside it.
func TestObsManifestReconciliation(t *testing.T) {
	var buf bytes.Buffer
	tl := obs.NewTimeline(&buf)
	w, reg := obsWatchdog(4, tl)
	w.CheckpointPath = filepath.Join(t.TempDir(), "cp.json")
	cr, err := w.RunCycle()
	if err != nil {
		t.Fatal(err)
	}
	if err := tl.Close(); err != nil {
		t.Fatal(err)
	}
	m := w.BuildManifest(cr, reg)
	c := m.Metrics.Counters

	// Recompute the trial ledger from the cycle result.
	var completed, failed, discarded, corrupt, retries, quarantined, pairs int64
	var agg TrialObs
	for _, ms := range cr.PerSetting {
		for _, p := range ms.Pairs {
			pairs++
			completed += int64(p.Counted())
			failed += int64(len(p.Failures))
			discarded += int64(p.Discards)
			corrupt += int64(p.Corrupt)
			retries += int64(p.Retries)
			if p.Failed {
				quarantined++
			}
			if p.Sketches != nil { // nil: breaker-skipped, nothing ran
				agg.add(p.Sketches.Obs)
			}
		}
	}
	var calibrations int64
	for _, cal := range cr.Calibration {
		calibrations += int64(len(cal))
	}

	check := func(name string, want int64) {
		t.Helper()
		if got := c[name]; got != want {
			t.Errorf("%s = %d, want %d (recomputed from CycleResult)", name, got, want)
		}
	}
	check("prudentia_trials_completed_total", completed)
	check("prudentia_trials_failed_total", failed)
	check("prudentia_trials_discarded_total", discarded)
	check("prudentia_trials_corrupt_total", corrupt)
	check("prudentia_trials_started_total", completed+failed+discarded+corrupt)
	check("prudentia_trial_retries_total", retries)
	check("prudentia_pair_quarantines_total", quarantined)
	check("prudentia_pairs_completed_total", pairs)
	check("prudentia_calibrations_total", calibrations)
	check("prudentia_netem_arrived_packets_total", agg.ArrivedPackets)
	check("prudentia_netem_dropped_packets_total", agg.DroppedPackets)
	check("prudentia_netem_delivered_packets_total", agg.DeliveredPackets)
	check("prudentia_netem_delivered_bytes_total", agg.DeliveredBytes)
	check("prudentia_netem_external_drops_total", agg.ExternalDrops)
	check("prudentia_netem_chaos_drops_total", agg.ChaosDrops)
	check("prudentia_transport_retransmits_total", agg.Retransmits)
	check("prudentia_transport_timeouts_total", agg.Timeouts)
	check("prudentia_transport_cwnd_events_total", agg.CwndEvents)
	check("prudentia_transport_tail_probes_total", agg.TailProbes)
	check(`prudentia_chaos_episodes_total{kind="flap"}`, agg.ChaosFlaps)
	check(`prudentia_chaos_episodes_total{kind="sag"}`, agg.ChaosSags)
	check(`prudentia_chaos_episodes_total{kind="stall"}`, agg.ChaosStalls)
	if got := c[`prudentia_trial_failures_total{kind="panic"}`] + c[`prudentia_trial_failures_total{kind="error"}`]; got != failed {
		t.Errorf("per-kind failure counters sum to %d, want %d", got, failed)
	}
	if c["prudentia_checkpoint_saves_total"] == 0 {
		t.Error("checkpointing was enabled but the saves counter is zero")
	}

	// Manifest envelope.
	if m.Schema != obs.ManifestSchema || m.Cycle != cr.Cycle || m.BaseSeed != 77 ||
		m.Workers != 4 || !m.ChaosEnabled || m.Interrupted {
		t.Errorf("manifest envelope wrong: %+v", m)
	}
	if len(m.Services) != 3 {
		t.Errorf("manifest services = %v", m.Services)
	}

	// The timeline must parse, and its event counts must agree with the
	// same counters.
	events, err := obs.ReadTimeline(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int64{}
	for _, ev := range events {
		kinds[ev.Kind]++
	}
	if kinds["cycle_start"] != 1 || kinds["cycle_end"] != 1 || kinds["setting_start"] != 1 {
		t.Errorf("cycle framing events wrong: %v", kinds)
	}
	if kinds["trial_start"] != c["prudentia_trials_started_total"] {
		t.Errorf("timeline trial_start = %d, counter says %d", kinds["trial_start"], c["prudentia_trials_started_total"])
	}
	if kinds["trial_ok"] != completed || kinds["trial_fail"] != failed ||
		kinds["trial_discard"] != discarded || kinds["trial_corrupt"] != corrupt {
		t.Errorf("timeline trial outcomes %v disagree with ledger (ok=%d fail=%d discard=%d corrupt=%d)",
			kinds, completed, failed, discarded, corrupt)
	}
	if kinds["pair_done"] != pairs || kinds["calibration_done"] != calibrations {
		t.Errorf("timeline pair_done=%d calibration_done=%d, want %d/%d",
			kinds["pair_done"], kinds["calibration_done"], pairs, calibrations)
	}
}

// TestObsUninstrumentedIdentical: attaching instruments must not change
// the measurement output — the cycle result with a registry attached is
// byte-equal to one without.
func TestObsUninstrumentedIdentical(t *testing.T) {
	runResult := func(instrumented bool) *CycleResult {
		net := netem.HighlyConstrained()
		opts := fastOpts(net)
		opts.BaseSeed = 77
		opts.Chaos = hotChaos()
		w := &Watchdog{
			Services: threeServices(),
			Settings: []netem.Config{net},
			Opts:     opts,
			Workers:  2,
		}
		if instrumented {
			w.Obs = NewInstruments(obs.NewRegistry(), nil)
		}
		cr, err := w.RunCycle()
		if err != nil {
			t.Fatal(err)
		}
		return cr
	}
	plain, instrumented := runResult(false), runResult(true)
	a, err1 := json.Marshal(plain)
	b, err2 := json.Marshal(instrumented)
	if err1 != nil || err2 != nil {
		t.Fatalf("marshal: %v %v", err1, err2)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("instrumentation changed the cycle result")
	}
}

// obsMatrix builds the chaos matrix the ledger tests share: obsWatchdog's
// one setting, on a fresh registry.
func obsMatrix(tl *obs.Timeline) (*matrix, *obs.Registry) {
	w, reg := obsWatchdog(0, tl)
	return testMatrix(w, w.Settings[0], w.Opts), reg
}

// TestInterruptedRegistryNamesOnlyReleasedPairs: after an interrupt the
// deterministic families equal the fold of exactly the outcomes that
// were released (and so checkpointed) — the abandoned pair's attempts
// appear on the timeline, which is live observability, but in no
// counter, so an interrupted manifest reconciles with the pairs on disk.
func TestInterruptedRegistryNamesOnlyReleasedPairs(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		var buf bytes.Buffer
		tl := obs.NewTimeline(&buf)
		m, reg := obsMatrix(tl)
		// Fifteen pairs: more than four workers can finish before the
		// interrupt lands.
		m.w.Services = append(m.w.Services, services.ByName("Dropbox"), services.ByName("Netflix"))
		m.w.Workers = workers
		// Interrupt one poll per worker after the first release: at least
		// one pair is published, and every worker still running has
		// started another trial of a pair it must then abandon. A pool
		// can finish every later pair while the worker holding pair 0 is
		// descheduled, leaving no poll after the first release, so the
		// interrupt also lands at poll 4·workers+1. The whole matrix
		// makes 37 attempts and no pair more than 4, so by then some
		// worker has finished a pair (completed pairs are released even
		// behind an abandoned one) and work is left to abandon.
		var firstRelease atomic.Bool
		var polls, pollsSince atomic.Int64
		m.w.Interrupt = func() bool {
			n := polls.Add(1)
			return firstRelease.Load() && pollsSince.Add(1) > int64(workers) || n > 4*int64(workers)
		}
		releasedLabels := map[string]bool{}
		m.w.Progress = func(format string, args ...any) {
			releasedLabels[releasedLabel(fmt.Sprintf(format, args...))] = true
			firstRelease.Store(true)
		}
		res, err := m.Run()
		if !errors.Is(err, ErrInterrupted) {
			t.Fatalf("workers=%d: Run returned %v, want ErrInterrupted", workers, err)
		}
		var released []*PairOutcome
		for _, o := range res.Pairs {
			if releasedLabels[o.Incumbent+" vs "+o.Contender] {
				released = append(released, o)
			}
		}
		if err := tl.Close(); err != nil {
			t.Fatal(err)
		}

		wantReg := obs.NewRegistry()
		fold := NewInstruments(wantReg, nil)
		var started int64
		for _, o := range released {
			fold.foldPair(o)
			started += int64(o.Counted() + len(o.Failures) + o.Discards + o.Corrupt)
		}
		got, want := reg.Snapshot(), wantReg.Snapshot()
		if len(released) == 0 || got.Counters["prudentia_pairs_completed_total"] != int64(len(released)) {
			t.Fatalf("workers=%d: %d pairs released, registry says %d (want at least one)",
				workers, len(released), got.Counters["prudentia_pairs_completed_total"])
		}
		if c := got.Counters["prudentia_trials_started_total"]; c != started {
			t.Errorf("workers=%d: trials_started = %d, released outcomes hold %d attempts", workers, c, started)
		}
		for name, w := range want.Counters {
			for _, family := range []string{"prudentia_trials_", "prudentia_trial_failures_", "prudentia_trial_retries_",
				"prudentia_netem_", "prudentia_transport_", "prudentia_chaos_"} {
				if strings.HasPrefix(name, family) && got.Counters[name] != w {
					t.Errorf("workers=%d: %s = %d, fold of released outcomes = %d", workers, name, got.Counters[name], w)
				}
			}
		}
		const hw = "prudentia_netem_occupancy_high_water_packets"
		if got.Gauges[hw] != want.Gauges[hw] {
			t.Errorf("workers=%d: %s = %v, fold of released outcomes = %v", workers, hw, got.Gauges[hw], want.Gauges[hw])
		}

		// The abandoned pair did run: its attempts are on the timeline.
		events, err := obs.ReadTimeline(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		var live int64
		for _, ev := range events {
			if ev.Kind == "trial_start" {
				live++
			}
		}
		if live < started || (workers == 1 && live == started) {
			t.Errorf("workers=%d: timeline shows %d trial_start events against %d counted attempts; the interrupt must land mid-pair",
				workers, live, started)
		}
	}
}
