// Package core implements the Prudentia watchdog itself — the paper's
// primary contribution: an orchestrator that measures fairness between
// pairs of live services by running them simultaneously over a controlled
// bottleneck, repeating trials until statistically significant, cycling
// round-robin through all service pairs in multiple network settings, and
// publishing MmF-share heatmaps plus QoE reports.
//
// Pairs are independent experiments, so Matrix and Watchdog can fan them
// out to a worker pool (the Workers field): every trial owns a private
// sim.Engine and netem testbed, every trial seed is a pure function of
// (BaseSeed, pair, attempt), and completed pairs are merged back in
// canonical order — heatmaps, reports, and the fault ledger are
// byte-identical for any worker count. See ARCHITECTURE.md for the data
// flow and pairproto.go / parallel.go for the protocol and pool.
package core

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"prudentia/internal/browser"
	"prudentia/internal/chaos"
	"prudentia/internal/netem"
	"prudentia/internal/obs"
	"prudentia/internal/services"
	"prudentia/internal/sim"
)

// Spec describes a single experiment: one incumbent and (optionally) one
// contender service competing over one emulated network setting.
type Spec struct {
	// Incumbent occupies slot 0; Contender (nil for a solo calibration
	// run, §3.1 "Background Noise") occupies slot 1.
	Incumbent services.Service
	Contender services.Service
	// Net is the emulated bottleneck setting.
	Net netem.Config
	// Duration is the trial length in the paper's terms; Warmup and
	// Cooldown are trimmed from its head and tail, leaving the
	// measurement window [Warmup, Duration-Cooldown]. The paper runs
	// 10-minute trials and ignores the first and last two minutes
	// (§3.4) because live services stop raggedly; a simulated one stops
	// on command, so Cooldown only places the window's closing edge and
	// is trimmed by not being simulated: the engine runs to
	// Duration-Cooldown (horizon) and no further. DefaultTiming applies
	// the paper's values, QuickTiming a laptop-scale equivalent.
	Duration, Warmup, Cooldown sim.Time
	// Seed makes the trial fully reproducible.
	Seed uint64
	// Client is the browser environment (defaults to the full-fidelity
	// testbed client of §3.3).
	Client *browser.Client
	// Chaos, if non-nil, arms the deterministic fault plan for this
	// trial: in-simulation faults on the testbed plus seed-decided
	// trial-level panics/errors/corruption.
	Chaos *chaos.Config
	// Observe, if non-nil, receives the fully-assembled testbed before
	// any traffic starts. The golden-trace conformance harness
	// (internal/sim/golden) uses it to attach the netem packet-lifecycle
	// hooks; trace collectors and the queue/throughput series samplers
	// (netem.Bottleneck.StartSampling, obs.NewRateSampler) attach the
	// same way. It must not start traffic or advance the engine.
	Observe func(*netem.Testbed)
	// Abort, if non-nil, is installed on the trial's engine: setting it
	// true makes an in-progress run panic with sim.Aborted, which the
	// panic barrier converts into a "reap" TrialError. The hung-trial
	// reaper (runTrialBudgeted) owns this flag; most callers leave it
	// nil.
	Abort *atomic.Bool
}

// DefaultTiming applies the paper's trial timing: 10 minutes total,
// first and last 2 minutes ignored, so 480 simulated seconds.
func (s Spec) DefaultTiming() Spec {
	s.Duration, s.Warmup, s.Cooldown = 10*sim.Minute, 2*sim.Minute, 2*sim.Minute
	return s
}

// QuickTiming applies a compressed trial suitable for tests and laptop
// benchmark runs: 60 seconds with a 10-second head trim and a 5-second
// tail trim, so 55 simulated seconds. Shape-level conclusions are
// unchanged; absolute confidence is lower, which the scheduler's trial
// escalation compensates for.
func (s Spec) QuickTiming() Spec {
	s.Duration, s.Warmup, s.Cooldown = 60*sim.Second, 10*sim.Second, 5*sim.Second
	return s
}

// ScreenTiming applies the coarse-to-fine screening pass's timing: a
// 15-second trial with minimal head/tail trims (3 s and 2 s, so 13
// simulated seconds), roughly a quarter of a QuickTiming trial.
// Screening only ranks pairs by predicted
// unfairness — the ranking feeds budget allocation, never the heatmaps
// — so the lower absolute confidence is acceptable by construction.
func (s Spec) ScreenTiming() Spec {
	s.Duration, s.Warmup, s.Cooldown = 15*sim.Second, 3*sim.Second, 2*sim.Second
	return s
}

// horizon is the instant the measurement window closes, which is how far
// a trial simulates: nothing after the closing snapshot can change what
// it read. The snapshot, the engine's run, TrialObs.SimSeconds, the
// reaper's wall budget, the injected-panic draw and the manifest's
// simulated_s all read it here.
func (s Spec) horizon() sim.Time { return s.Duration - s.Cooldown }

// MaxExternalLoss is the external (upstream) loss fraction above which a
// trial is discarded (§3.1: 0.05%).
const MaxExternalLoss = 0.0005

// TrialResult is everything one experiment produced.
type TrialResult struct {
	// Mbps is each slot's delivered throughput over the measurement
	// window (incumbent = 0, contender = 1).
	Mbps [2]float64
	// FairShareMbps is each slot's max-min fair share given the link
	// rate and the services' app-level caps.
	FairShareMbps [2]float64
	// SharePct is the headline number: percentage of MmF share achieved.
	SharePct [2]float64
	// Utilization is total delivered rate over link capacity (Fig 11).
	Utilization float64
	// Loss is each slot's bottleneck drop fraction (Fig 12).
	Loss [2]float64
	// QueueDelay is each slot's mean queueing delay (Fig 13).
	QueueDelay [2]sim.Time
	// ExternalLossRate is upstream (background-noise) loss over the
	// simulated span, start to window close.
	ExternalLossRate float64
	// Discarded marks trials that exceeded MaxExternalLoss and must be
	// re-run rather than counted (§3.1).
	Discarded bool
	// ServiceStats carries per-slot QoE metrics (§5).
	ServiceStats [2]services.Stats
	// Obs is the trial's deterministic telemetry aggregate, scraped from
	// the testbed after the run (never on the packet path). The obs
	// layer folds it into the registry; because every field is a pure
	// function of the seed, the fold is identical for any worker count.
	Obs TrialObs `json:"obs"`
}

// TrialObs aggregates what one trial's private testbed observed: the
// bottleneck ledger (whole-link totals over both slots), queue high
// water, upstream loss processes, transport rare events, and chaos
// episodes. It is deterministic in the trial seed — wall-clock timing
// lives in the registry's "wall" metrics and the timeline, never here —
// so it can ride on TrialResult through the journal and the parallel
// merge without breaking byte-identical determinism.
type TrialObs struct {
	ArrivedPackets   int64 `json:"arrived_pkts"`
	DroppedPackets   int64 `json:"dropped_pkts"`
	DeliveredPackets int64 `json:"delivered_pkts"`
	DeliveredBytes   int64 `json:"delivered_bytes"`
	// OccupancyHighWater is the deepest bottleneck queue depth seen.
	OccupancyHighWater int `json:"occupancy_high_water"`
	// UpstreamSent/ExternalDrops/ChaosDrops mirror the testbed's
	// upstream ledger (noise losses vs injected link-flap losses).
	UpstreamSent  int64 `json:"upstream_sent"`
	ExternalDrops int64 `json:"external_drops"`
	ChaosDrops    int64 `json:"chaos_drops"`
	// Transport rare-event totals across all flows of the trial.
	Retransmits int64 `json:"retransmits"`
	Timeouts    int64 `json:"timeouts"`
	CwndEvents  int64 `json:"cwnd_events"`
	TailProbes  int64 `json:"tail_probes"`
	// Chaos episodes injected during the trial, by kind.
	ChaosFlaps  int64 `json:"chaos_flaps"`
	ChaosSags   int64 `json:"chaos_sags"`
	ChaosStalls int64 `json:"chaos_stalls"`
	// SimSeconds is the trial's simulated duration, Duration-Cooldown.
	SimSeconds float64 `json:"sim_seconds"`
}

// add folds o into t: every field sums except OccupancyHighWater, which
// takes the max. Sums of sums are sums and max is commutative, so an
// aggregate of aggregates (a pair's sketch total) folds through the same
// method as a single trial.
func (t *TrialObs) add(o TrialObs) {
	t.ArrivedPackets += o.ArrivedPackets
	t.DroppedPackets += o.DroppedPackets
	t.DeliveredPackets += o.DeliveredPackets
	t.DeliveredBytes += o.DeliveredBytes
	if o.OccupancyHighWater > t.OccupancyHighWater {
		t.OccupancyHighWater = o.OccupancyHighWater
	}
	t.UpstreamSent += o.UpstreamSent
	t.ExternalDrops += o.ExternalDrops
	t.ChaosDrops += o.ChaosDrops
	t.Retransmits += o.Retransmits
	t.Timeouts += o.Timeouts
	t.CwndEvents += o.CwndEvents
	t.TailProbes += o.TailProbes
	t.ChaosFlaps += o.ChaosFlaps
	t.ChaosSags += o.ChaosSags
	t.ChaosStalls += o.ChaosStalls
	t.SimSeconds += o.SimSeconds
}

// scrapeObs fills a TrialObs from a finished trial's testbed; simulated
// is how far its engine ran.
func scrapeObs(tb *netem.Testbed, simulated sim.Time) TrialObs {
	o := TrialObs{
		OccupancyHighWater: tb.Bneck.HighWater(),
		UpstreamSent:       tb.UpstreamSentPackets(),
		ExternalDrops:      tb.ExternalDrops,
		ChaosDrops:         tb.ChaosDrops,
		Retransmits:        tb.TransportRetransmits,
		Timeouts:           tb.TransportTimeouts,
		CwndEvents:         tb.TransportCwndEvents,
		TailProbes:         tb.TransportTailProbes,
		ChaosFlaps:         tb.ChaosFlaps,
		ChaosSags:          tb.ChaosSags,
		ChaosStalls:        tb.ChaosStalls,
		SimSeconds:         simulated.Seconds(),
	}
	for slot := 0; slot < netem.MaxServices; slot++ {
		st := tb.Bneck.Stats(slot)
		o.ArrivedPackets += st.ArrivedPackets
		o.DroppedPackets += st.DroppedPackets
		o.DeliveredPackets += st.DeliveredPackets
		o.DeliveredBytes += st.DeliveredBytes
	}
	return o
}

// Validate checks a spec for structural errors.
func (s Spec) Validate() error {
	if s.Incumbent == nil {
		return fmt.Errorf("core: spec requires an incumbent service")
	}
	if s.Duration <= 0 {
		return fmt.Errorf("core: spec requires a positive duration (use DefaultTiming)")
	}
	if s.Warmup+s.Cooldown >= s.Duration {
		return fmt.Errorf("core: warmup %v + cooldown %v leave no measurement window in %v",
			s.Warmup, s.Cooldown, s.Duration)
	}
	return nil
}

// RunTrial executes one experiment and reports its results. The engine
// runs to the instant the measurement window closes (Duration-Cooldown)
// and stops there; the cooldown is never simulated. The entire run is
// deterministic in (Spec, Seed) — including any chaos faults,
// which are decided by hashing the seed. Injected panics propagate to
// the caller; the scheduler runs trials through runTrialSafe to convert
// them into recorded failures.
func RunTrial(spec Spec) (TrialResult, error) {
	if err := spec.Validate(); err != nil {
		return TrialResult{}, err
	}
	// Brownouts fail the trial before any simulation is built: the
	// service's backend is "down", so there is nothing to measure.
	if spec.Chaos != nil && len(spec.Chaos.Brownouts) > 0 {
		names := []string{spec.Incumbent.Name()}
		if spec.Contender != nil {
			names = append(names, spec.Contender.Name())
		}
		if svc := spec.Chaos.BrownoutFor(names...); svc != "" {
			return TrialResult{}, &TrialError{Kind: "brownout", Seed: spec.Seed,
				Msg: "chaos: service brownout: " + svc}
		}
	}
	fault := spec.Chaos.TrialFault(spec.Seed)
	if fault == chaos.FaultError {
		return TrialResult{}, &TrialError{Kind: "error", Seed: spec.Seed, Msg: "chaos: injected trial error"}
	}
	horizon := spec.horizon()
	eng := sim.NewEngine()
	eng.SetAbort(spec.Abort)
	rng := sim.NewRNG(spec.Seed)
	tb := netem.NewTestbed(eng, spec.Net, rng.Split())
	if spec.Chaos != nil {
		// A dedicated RNG keeps the base experiment's streams untouched.
		crng := sim.NewRNG(chaos.StreamSeed(spec.Seed))
		if fault == chaos.FaultPanic {
			// Drawn inside the simulated span, so a planned panic fires.
			at := crng.Duration(horizon)
			eng.Schedule(at, func(now sim.Time) {
				panic(chaos.InjectedPanic{Seed: spec.Seed, At: now})
			})
		}
		spec.Chaos.Arm(eng, tb, crng)
	}
	if spec.Observe != nil {
		spec.Observe(tb)
	}

	client := browser.TestbedClient()
	if spec.Client != nil {
		client = *spec.Client
	}

	// Start services with a small jitter so paired control loops do not
	// phase-lock on the simulation grid.
	type started struct {
		inst services.Instance
	}
	var insts [2]*started
	caps := [2]int64{spec.Incumbent.MaxRateBps(), 0}
	if spec.Contender != nil {
		caps[1] = spec.Contender.MaxRateBps()
	}
	for slot, svc := range []services.Service{spec.Incumbent, spec.Contender} {
		if svc == nil {
			continue
		}
		svc := svc
		env := &services.Env{
			Eng:    eng,
			TB:     tb,
			Slot:   slot,
			RNG:    rng.Split(),
			Client: client,
		}
		st := &started{}
		insts[slot] = st
		eng.After(rng.Duration(100*sim.Millisecond), func(sim.Time) {
			st.inst = svc.Start(env)
		})
	}

	// Snapshot bottleneck counters at the window edges. The closing one
	// is an event scheduled here, before any traffic, not a read after
	// the run returns: its (at, seq) place among same-instant events is
	// what the reports are pinned to.
	var snapStart, snapEnd [2]netem.ServiceStats
	eng.Schedule(spec.Warmup, func(sim.Time) {
		snapStart = [2]netem.ServiceStats{tb.Bneck.Stats(0), tb.Bneck.Stats(1)}
	})
	eng.Schedule(horizon, func(sim.Time) {
		snapEnd = [2]netem.ServiceStats{tb.Bneck.Stats(0), tb.Bneck.Stats(1)}
	})

	eng.RunUntil(horizon)

	window := horizon - spec.Warmup
	res := TrialResult{ExternalLossRate: tb.ExternalLossRate()}
	res.Discarded = res.ExternalLossRate > MaxExternalLoss
	res.Obs = scrapeObs(tb, horizon)

	var win [2]obs.WindowStats
	for slot := 0; slot < 2; slot++ {
		win[slot] = obs.Sub(snapEnd[slot], snapStart[slot])
		res.Mbps[slot] = win[slot].ThroughputMbps(window)
		res.Loss[slot] = win[slot].LossRate()
		res.QueueDelay[slot] = win[slot].MeanQueueDelay()
	}
	res.Utilization = obs.LinkUtilization(
		[2]int64{win[0].Bytes, win[1].Bytes}, spec.Net.RateBps, window)

	fair := obs.MmFShares(spec.Net.RateBps, caps)
	for slot := 0; slot < 2; slot++ {
		res.FairShareMbps[slot] = fair[slot] / 1e6
		res.SharePct[slot] = obs.SharePercent(res.Mbps[slot]*1e6, fair[slot])
	}

	for slot, st := range insts {
		if st == nil || st.inst == nil {
			continue
		}
		res.ServiceStats[slot] = st.inst.Stats()
		st.inst.Stop()
	}
	if fault == chaos.FaultCorrupt {
		applyCorruption(&res, spec.Chaos.Corruption(spec.Seed))
	}
	return res, nil
}

// applyCorruption mangles a result the way a wedged measurement pipeline
// would (garbage counters, sign errors, unit mix-ups). The validity gate
// must catch every kind.
func applyCorruption(res *TrialResult, kind chaos.CorruptKind) {
	switch kind {
	case chaos.CorruptNaNThroughput:
		res.Mbps[0] = math.NaN()
	case chaos.CorruptNegativeThroughput:
		res.Mbps[1] = -res.Mbps[1] - 1
	case chaos.CorruptUtilization:
		res.Utilization = 4.2
	case chaos.CorruptShare:
		res.SharePct[0] = res.SharePct[0]*50 + 1000
	}
}

// Validate is the corrupt-result gate: it rejects metrics no honest
// trial can produce (NaN/negative throughput, loss outside [0,1],
// utilization above the link's capability, shares inconsistent with the
// measured throughput). Rejected results are re-run like
// noise-discarded ones rather than polluting the pair's statistics.
func (r TrialResult) Validate() error {
	for slot := 0; slot < 2; slot++ {
		m := r.Mbps[slot]
		if math.IsNaN(m) || math.IsInf(m, 0) || m < 0 {
			return fmt.Errorf("core: slot %d throughput %v out of range", slot, m)
		}
		if l := r.Loss[slot]; math.IsNaN(l) || l < 0 || l > 1 {
			return fmt.Errorf("core: slot %d loss %v out of range", slot, l)
		}
		if r.QueueDelay[slot] < 0 {
			return fmt.Errorf("core: slot %d queue delay %v negative", slot, r.QueueDelay[slot])
		}
		if fair := r.FairShareMbps[slot]; fair > 0 {
			want := 100 * r.Mbps[slot] / fair
			if diff := r.SharePct[slot] - want; diff > 1+0.05*want || diff < -(1+0.05*want) {
				return fmt.Errorf("core: slot %d share %.1f%% inconsistent with %.2f Mbps of %.2f fair",
					slot, r.SharePct[slot], r.Mbps[slot], fair)
			}
		}
	}
	if u := r.Utilization; math.IsNaN(u) || u < 0 || u > 1.05 {
		return fmt.Errorf("core: utilization %v out of range", u)
	}
	return nil
}

// runTrialSafe runs a trial with a panic barrier: a panicking trial —
// injected by chaos or a genuine simulator bug — becomes a typed
// *TrialError instead of killing the cycle. This is the watchdog's
// first line of defense; a service that must run unattended for years
// cannot afford to lose a multi-hour cycle to one bad trial.
func runTrialSafe(spec Spec) (res TrialResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			if ab, ok := r.(sim.Aborted); ok {
				err = &TrialError{Kind: "reap", Seed: spec.Seed,
					Msg: fmt.Sprintf("trial reaped at sim time %v", ab.At)}
				return
			}
			err = &TrialError{Kind: "panic", Seed: spec.Seed, Msg: fmt.Sprint(r)}
		}
	}()
	return RunTrial(spec)
}

// runTrialBudgeted is runTrialSafe under a wall-clock deadline: the
// trial runs on its own goroutine, and if it has not finished within
// budget the reaper trips the engine's abort flag and returns a typed
// "reap" TrialError immediately. The abandoned goroutine exits on its
// own within 1024 events of the flag flip (an eventful hang), or — for
// a hard wedge inside a single event callback — keeps running detached;
// its result, if any ever arrives, is discarded, since nothing else
// references its private engine and testbed. A budget <= 0 disables
// reaping.
func runTrialBudgeted(spec Spec, budget time.Duration) (TrialResult, error) {
	if budget <= 0 {
		return runTrialSafe(spec)
	}
	var abort atomic.Bool
	spec.Abort = &abort
	type outcome struct {
		res TrialResult
		err error
	}
	ch := make(chan outcome, 1) // buffered: a late finisher never blocks
	go func() {
		res, err := runTrialSafe(spec)
		ch <- outcome{res, err}
	}()
	timer := time.NewTimer(budget)
	defer timer.Stop()
	select {
	case out := <-ch:
		return out.res, out.err
	case <-timer.C:
		abort.Store(true)
		return TrialResult{}, &TrialError{Kind: "reap", Seed: spec.Seed,
			Msg: fmt.Sprintf("trial exceeded wall budget %v", budget)}
	}
}

// wallBudget converts the scheduler's WallBudget factor into this
// spec's absolute wall-clock deadline: simulated seconds × factor.
// Zero (reaper disabled) if no factor is configured.
func wallBudget(spec Spec, factor float64) time.Duration {
	if factor <= 0 {
		return 0
	}
	return time.Duration(spec.horizon().Seconds() * factor * float64(time.Second))
}

// RunSolo measures a service alone (the calibration runs Prudentia uses
// to detect upstream throttling, §3.1; Table 1's "Max Xput" column).
func RunSolo(svc services.Service, net netem.Config, seed uint64, timing func(Spec) Spec) (TrialResult, error) {
	return RunTrial(SchedulerOptions{Timing: timing}.spec(svc, nil, net, seed))
}
