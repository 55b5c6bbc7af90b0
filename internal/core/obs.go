package core

import (
	"fmt"
	"time"

	"prudentia/internal/obs"
	"prudentia/internal/stats"
)

// Instruments bundles the watchdog's telemetry sinks: a metric registry
// and a cycle timeline. Handles are resolved once at construction; a nil
// *Instruments (and a nil registry or timeline inside one) is a no-op
// everywhere, keeping every instrumented path nil-safe and the
// uninstrumented cost to a single branch.
//
// What is recorded falls in two categories:
//
//   - Deterministic families are a fold over released results, written
//     on the caller goroutine's release path: prudentia_trials_*_total
//     (started = completed + failed + discarded + corrupt, the manifest
//     reconciliation identity; "trials run" equals started minus the
//     retried duplicates) and the prudentia_netem_*/prudentia_transport_*/
//     prudentia_chaos_* aggregates of counted pair trials only — the
//     traffic that enters the heatmaps; calibration traffic is counted
//     separately — all through foldPair, plus the pair, adaptive,
//     calibration, breaker and checkpoint counters beside it. A pair an
//     interrupt abandoned is never released, so it is never counted: an
//     interrupted cycle's registry names exactly the pairs on disk.
//   - Live observability is emitted from the executing goroutine:
//     timeline events, the trial sim/wall duration histograms, the pool
//     busy fraction, and the two counter families that describe work
//     executed rather than results published (screening attempts,
//     journal appends and replays — plain commutative adds). Metrics
//     with "wall" in the name are the nondeterministic ones;
//     determinism tests compare snapshots through
//     Snapshot.StripWallClock.
type Instruments struct {
	Registry *obs.Registry
	Timeline *obs.Timeline

	trialsStarted   *obs.Counter
	trialsCompleted *obs.Counter
	trialsFailed    *obs.Counter
	failPanic       *obs.Counter
	failError       *obs.Counter
	failReap        *obs.Counter
	failBrownout    *obs.Counter
	trialsDiscarded *obs.Counter
	trialsCorrupt   *obs.Counter
	retries         *obs.Counter
	quarantines     *obs.Counter
	pairsCompleted  *obs.Counter
	pairsSkipped    *obs.Counter
	calibrations    *obs.Counter
	checkpointSaves *obs.Counter

	journalRecords  *obs.Counter
	journalBytes    *obs.Counter
	journalReplayed *obs.Counter
	journalTorn     *obs.Counter

	adaptiveStopCI     *obs.Counter
	adaptiveStopStable *obs.Counter
	adaptiveStopBudget *obs.Counter
	adaptiveSaved      *obs.Counter
	screenTrials       *obs.Counter

	breakerToOpen     *obs.Counter
	breakerToHalfOpen *obs.Counter
	breakerToClosed   *obs.Counter
	breakerProbes     *obs.Counter

	netemArrived   *obs.Counter
	netemDropped   *obs.Counter
	netemDelivered *obs.Counter
	netemDelBytes  *obs.Counter
	netemExternal  *obs.Counter
	netemChaos     *obs.Counter
	occupancyHigh  *obs.Gauge

	transportRetx       *obs.Counter
	transportTimeouts   *obs.Counter
	transportCwndEvents *obs.Counter
	transportTailProbes *obs.Counter

	chaosFlaps  *obs.Counter
	chaosSags   *obs.Counter
	chaosStalls *obs.Counter

	trialSim  *obs.Histogram
	trialWall *obs.Histogram

	poolBusy *obs.Gauge
}

// NewInstruments resolves all metric handles on reg (which may be nil)
// and attaches the timeline (which may also be nil).
func NewInstruments(reg *obs.Registry, tl *obs.Timeline) *Instruments {
	return &Instruments{
		Registry: reg,
		Timeline: tl,

		trialsStarted:   reg.Counter("prudentia_trials_started_total"),
		trialsCompleted: reg.Counter("prudentia_trials_completed_total"),
		trialsFailed:    reg.Counter("prudentia_trials_failed_total"),
		failPanic:       reg.Counter(`prudentia_trial_failures_total{kind="panic"}`),
		failError:       reg.Counter(`prudentia_trial_failures_total{kind="error"}`),
		failReap:        reg.Counter(`prudentia_trial_failures_total{kind="reap"}`),
		failBrownout:    reg.Counter(`prudentia_trial_failures_total{kind="brownout"}`),
		trialsDiscarded: reg.Counter("prudentia_trials_discarded_total"),
		trialsCorrupt:   reg.Counter("prudentia_trials_corrupt_total"),
		retries:         reg.Counter("prudentia_trial_retries_total"),
		quarantines:     reg.Counter("prudentia_pair_quarantines_total"),
		pairsCompleted:  reg.Counter("prudentia_pairs_completed_total"),
		pairsSkipped:    reg.Counter("prudentia_pairs_skipped_total"),
		calibrations:    reg.Counter("prudentia_calibrations_total"),
		checkpointSaves: reg.Counter("prudentia_checkpoint_saves_total"),

		journalRecords:  reg.Counter("prudentia_journal_records_total"),
		journalBytes:    reg.Counter("prudentia_journal_bytes_total"),
		journalReplayed: reg.Counter("prudentia_journal_replayed_total"),
		journalTorn:     reg.Counter("prudentia_journal_torn_tail_total"),

		adaptiveStopCI:     reg.Counter(`prudentia_adaptive_stops_total{reason="ci_width"}`),
		adaptiveStopStable: reg.Counter(`prudentia_adaptive_stops_total{reason="verdict_stable"}`),
		adaptiveStopBudget: reg.Counter(`prudentia_adaptive_stops_total{reason="budget"}`),
		adaptiveSaved:      reg.Counter("prudentia_adaptive_trials_saved_total"),
		screenTrials:       reg.Counter("prudentia_adaptive_screen_trials_total"),

		breakerToOpen:     reg.Counter(`prudentia_breaker_transitions_total{to="open"}`),
		breakerToHalfOpen: reg.Counter(`prudentia_breaker_transitions_total{to="half-open"}`),
		breakerToClosed:   reg.Counter(`prudentia_breaker_transitions_total{to="closed"}`),
		breakerProbes:     reg.Counter("prudentia_breaker_probes_total"),

		netemArrived:   reg.Counter("prudentia_netem_arrived_packets_total"),
		netemDropped:   reg.Counter("prudentia_netem_dropped_packets_total"),
		netemDelivered: reg.Counter("prudentia_netem_delivered_packets_total"),
		netemDelBytes:  reg.Counter("prudentia_netem_delivered_bytes_total"),
		netemExternal:  reg.Counter("prudentia_netem_external_drops_total"),
		netemChaos:     reg.Counter("prudentia_netem_chaos_drops_total"),
		occupancyHigh:  reg.Gauge("prudentia_netem_occupancy_high_water_packets"),

		transportRetx:       reg.Counter("prudentia_transport_retransmits_total"),
		transportTimeouts:   reg.Counter("prudentia_transport_timeouts_total"),
		transportCwndEvents: reg.Counter("prudentia_transport_cwnd_events_total"),
		transportTailProbes: reg.Counter("prudentia_transport_tail_probes_total"),

		chaosFlaps:  reg.Counter(`prudentia_chaos_episodes_total{kind="flap"}`),
		chaosSags:   reg.Counter(`prudentia_chaos_episodes_total{kind="sag"}`),
		chaosStalls: reg.Counter(`prudentia_chaos_episodes_total{kind="stall"}`),

		trialSim:  reg.Histogram("prudentia_trial_sim_seconds", obs.TrialSimSecondsBuckets()),
		trialWall: reg.Histogram("prudentia_trial_wall_seconds", obs.TrialWallSecondsBuckets()),

		poolBusy: reg.Gauge("prudentia_pool_busy_wall_fraction"),
	}
}

// emit forwards an event to the timeline (nil-safe).
func (in *Instruments) emit(ev obs.TimelineEvent) {
	if in != nil {
		in.Timeline.Emit(ev)
	}
}

// now returns the wall clock only when timing will actually be recorded.
func (in *Instruments) now() time.Time {
	if in == nil {
		return time.Time{}
	}
	return time.Now()
}

// trialStart announces one attempt entering execution on the timeline.
func (in *Instruments) trialStart(pair string, seed uint64, attempt int) {
	in.emit(obs.TimelineEvent{Kind: "trial_start", Pair: pair, Seed: seed, Attempt: attempt})
}

// trialEnd records a classified attempt's wall-clock observability from
// the executing goroutine: the sim/wall duration histograms (individual
// samples, not summable deltas) and the trial_<class> timeline event. It
// touches no counter — the trial ledger is foldPair's, on the release
// path. Failures carry no simulated duration; discards and corrupt
// results carry only theirs, never the rejected metrics.
func (in *Instruments) trialEnd(pair string, seed uint64, attempt int, ar *attemptResult, start time.Time) {
	if in == nil {
		return
	}
	wall := time.Since(start).Seconds()
	in.trialSim.Observe(ar.simSeconds)
	in.trialWall.Observe(wall)
	ev := obs.TimelineEvent{Kind: "trial_" + ar.class, Pair: pair, Seed: seed, Attempt: attempt,
		SimSeconds: ar.simSeconds, WallSeconds: wall}
	switch ar.class {
	case "fail":
		ev.Detail = ar.failKind + ": " + ar.failMsg
	case "corrupt":
		ev.Detail = ar.detail
	}
	in.emit(ev)
}

// foldPair folds one released pair's outcome into the registry's
// deterministic families: the trial ledger (started = completed + failed
// + discarded + corrupt, the manifest reconciliation identity), per-kind
// failures, retries, and the netem/transport/chaos aggregates of its
// counted trials. It is the only writer of those families and its only
// caller is Matrix.finish, on the canonical release path, so what the
// registry counts is by construction a fold over exactly the outcomes
// that were published — whichever goroutine, process or fleet worker
// executed them, and never a pair an interrupt abandoned.
func (in *Instruments) foldPair(o *PairOutcome) {
	if in == nil {
		return
	}
	counted, failed := int64(o.Counted()), int64(len(o.Failures))
	discarded, corrupt := int64(o.Discards), int64(o.Corrupt)
	in.trialsStarted.Add(counted + failed + discarded + corrupt)
	in.trialsCompleted.Add(counted)
	in.trialsFailed.Add(failed)
	for _, f := range o.Failures {
		switch f.Kind {
		case "panic":
			in.failPanic.Inc()
		case "error":
			in.failError.Inc()
		case "reap":
			in.failReap.Inc()
		case "brownout":
			in.failBrownout.Inc()
		}
	}
	in.trialsDiscarded.Add(discarded)
	in.trialsCorrupt.Add(corrupt)
	in.retries.Add(int64(o.Retries))

	t := o.Sketches.Obs
	in.netemArrived.Add(t.ArrivedPackets)
	in.netemDropped.Add(t.DroppedPackets)
	in.netemDelivered.Add(t.DeliveredPackets)
	in.netemDelBytes.Add(t.DeliveredBytes)
	in.netemExternal.Add(t.ExternalDrops)
	in.netemChaos.Add(t.ChaosDrops)
	in.occupancyHigh.SetMax(float64(t.OccupancyHighWater))
	in.transportRetx.Add(t.Retransmits)
	in.transportTimeouts.Add(t.Timeouts)
	in.transportCwndEvents.Add(t.CwndEvents)
	in.transportTailProbes.Add(t.TailProbes)
	in.chaosFlaps.Add(t.ChaosFlaps)
	in.chaosSags.Add(t.ChaosSags)
	in.chaosStalls.Add(t.ChaosStalls)
}

// remoteSimDurations replays a remotely executed pair's counted-trial
// durations into the sim-seconds histogram. Duration samples are
// worker-local observability (trialEnd); a fleet worker's never reach
// the coordinator, so its counted trials are reconstructed from the
// outcome's duration sketch (exact samples within the buffer cap,
// bucket representatives beyond it; histograms only see bucketed values
// anyway). Timeline events and wall-clock histograms are deliberately
// not reconstructed.
func (in *Instruments) remoteSimDurations(o *PairOutcome) {
	if in == nil {
		return
	}
	o.Sketches.SimSeconds.Each(func(v float64, n int64) {
		for k := int64(0); k < n; k++ {
			in.trialSim.Observe(v)
		}
	})
}

// pairDone records a pair reaching a final state. Called from the
// scheduler's ordered release path, so pair_done timeline events appear
// in canonical order even under the worker pool — and for remotely
// executed pairs too (fleet results release through the same path), so
// the adaptive stop-reason counters and trials-saved total are uniform
// across local and fleet execution. Fixed-budget pairs carry no
// StopReason and produce exactly the pre-adaptive event stream.
func (in *Instruments) pairDone(st *pairState) {
	if in == nil {
		return
	}
	in.pairsCompleted.Inc()
	o := st.outcome
	detail := "ok"
	if o.Failed {
		in.quarantines.Inc()
		detail = "quarantined"
	} else if o.Unstable {
		detail = "unstable"
	}
	if o.StopReason != "" {
		switch o.StopReason {
		case stats.StopCIWidth:
			in.adaptiveStopCI.Inc()
		case stats.StopStable:
			in.adaptiveStopStable.Inc()
		case stats.StopBudget:
			in.adaptiveStopBudget.Inc()
		}
		if saved := o.Budget - o.Counted(); saved > 0 {
			in.adaptiveSaved.Add(int64(saved))
		}
		detail += " stop=" + o.StopReason
	}
	in.emit(obs.TimelineEvent{Kind: "pair_done", Pair: st.pairLabel(), Detail: detail})
}

// screenTrial records one coarse screening attempt (started and
// classified, from the executing goroutine — the counter is
// commutative, so totals are deterministic for any worker count).
// Screening attempts deliberately stay out of prudentia_trials_*:
// those families reconcile against the published report, which
// screening never enters.
func (in *Instruments) screenTrial(pair string, seed uint64, attempt int, class string) {
	if in == nil {
		return
	}
	in.screenTrials.Inc()
	in.emit(obs.TimelineEvent{Kind: "screen_trial", Pair: pair, Seed: seed, Attempt: attempt,
		Detail: class})
}

// calibrationDone records one service's solo calibration outcome.
func (in *Instruments) calibrationDone(label string, ok bool) {
	if in == nil {
		return
	}
	detail := "failed"
	if ok {
		in.calibrations.Inc()
		detail = "ok"
	}
	in.emit(obs.TimelineEvent{Kind: "calibration_done", Pair: label, Detail: detail})
}

// checkpointSaved records a successful checkpoint flush.
func (in *Instruments) checkpointSaved() {
	if in != nil {
		in.checkpointSaves.Inc()
	}
}

// journalAppend records one durable journal record of n framed bytes.
func (in *Instruments) journalAppend(n int64) {
	if in == nil {
		return
	}
	in.journalRecords.Inc()
	in.journalBytes.Add(n)
}

// journalReplay records one attempt served from the recovered journal
// instead of being re-simulated.
func (in *Instruments) journalReplay() {
	if in != nil {
		in.journalReplayed.Inc()
	}
}

// journalRecovered records the outcome of journal recovery at cycle
// start: how many intact records were found and whether a torn tail
// was truncated.
func (in *Instruments) journalRecovered(records int, tornBytes int64) {
	if in == nil {
		return
	}
	detail := fmt.Sprintf("%d records", records)
	if tornBytes > 0 {
		in.journalTorn.Inc()
		detail = fmt.Sprintf("%d records, %d torn bytes truncated", records, tornBytes)
	}
	in.emit(obs.TimelineEvent{Kind: "journal_recovered", Detail: detail})
}

// breakerTransition records a circuit-breaker state change: a counter
// by destination state, a per-service state gauge (0 closed,
// 1 half-open, 2 open), and a timeline event.
func (in *Instruments) breakerTransition(service string, from, to BreakerState) {
	if in == nil {
		return
	}
	var kind string
	switch to {
	case BreakerOpen:
		in.breakerToOpen.Inc()
		kind = "breaker_open"
	case BreakerHalfOpen:
		in.breakerToHalfOpen.Inc()
		kind = "breaker_halfopen"
	default:
		in.breakerToClosed.Inc()
		kind = "breaker_close"
	}
	in.Registry.Gauge(fmt.Sprintf("prudentia_breaker_state{service=%q}", service)).Set(float64(to))
	in.emit(obs.TimelineEvent{Kind: kind, Pair: service,
		Detail: from.String() + " -> " + to.String()})
}

// breakerProbe records one canary trial against an ejected service.
func (in *Instruments) breakerProbe(service string, ok bool) {
	if in == nil {
		return
	}
	in.breakerProbes.Inc()
	detail := "failed"
	if ok {
		detail = "ok"
	}
	in.emit(obs.TimelineEvent{Kind: "breaker_probe", Pair: service, Detail: detail})
}

// pairSkipped records a pair denied admission because a member's
// breaker is open. Called from the matrix's canonical construction
// path, so the events are ordered for any worker count.
func (in *Instruments) pairSkipped(pair, openService string) {
	if in == nil {
		return
	}
	in.pairsSkipped.Inc()
	in.emit(obs.TimelineEvent{Kind: "pair_skipped", Pair: pair,
		Detail: "breaker open: " + openService})
}

// poolStats records the worker pool's measured busy fraction (busy
// worker-time over elapsed×workers — a wall-clock metric, stripped from
// determinism comparisons). The pool size itself is host configuration
// and lives in the run manifest, not the registry, so snapshots stay
// identical across worker counts.
func (in *Instruments) poolStats(busyFraction float64) {
	if in != nil && busyFraction >= 0 {
		in.poolBusy.Set(busyFraction)
	}
}
