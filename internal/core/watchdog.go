package core

import (
	"errors"
	"fmt"
	"os"
	"sort"

	"prudentia/internal/chaos"
	"prudentia/internal/journal"
	"prudentia/internal/netem"
	"prudentia/internal/obs"
	"prudentia/internal/services"
)

// Watchdog is the continuously-running fairness monitor: it cycles the
// all-pairs matrix across its network settings, keeps per-cycle history
// (how the paper detected the 2022→2023 Google Drive and YouTube stack
// changes, Obs 13), runs solo calibrations to detect upstream throttling
// (§3.1), and accepts third-party service submissions gated by access
// codes (Appendix A).
type Watchdog struct {
	// Services is the catalog under test.
	Services []services.Service
	// Settings are the network environments to cycle through; defaults
	// to the paper's two standing settings.
	Settings []netem.Config
	// Opts overrides the per-pair protocol field by field: every field
	// left zero takes its value, per setting, from PaperOptions — or from
	// QuickOptions when Quick is set — so a caller who sets only a seed,
	// a Timing or a chaos plan keeps each setting's own tolerance (see
	// SettingOptions).
	Opts SchedulerOptions
	// Quick selects the compressed QuickOptions preset instead of the
	// paper protocol as the base Opts is laid over. It is a flag, not a
	// value in Opts, because the preset depends on the setting.
	Quick bool
	// Workers is the number of concurrent trial workers used for solo
	// calibrations and the pair matrices; values <= 1 run everything
	// serially. Results — heatmaps, medians, checkpoints, fault ledger —
	// are byte-identical for any worker count, because every trial seed
	// is a pure function of (pair, attempt) and completed work is merged
	// in canonical order. With Workers > 1 the Interrupt hook must be
	// safe for concurrent use.
	Workers int
	// Remote, if non-nil, executes every setting's pair matrix on a
	// remote runner (the fleet coordinator) instead of the local worker
	// pool; solo calibrations and canary probes stay local. Because
	// remote results merge through the same ordered-release path, the
	// cycle's outputs — report, heatmaps, checkpoints, fault ledger —
	// are byte-identical to a single-process run.
	Remote RemoteRunner
	// AccessCodes gate third-party submissions.
	AccessCodes []string
	// Progress, if non-nil, receives human-readable progress lines.
	Progress func(format string, args ...any)

	// CheckpointPath, when set, makes RunCycle durable: the cycle's
	// Checkpoint header lives in this file (flushed when it changes,
	// not per pair) and every attempt is journaled beside it, at
	// JournalPath or else CheckpointPath+".wal". A completed cycle
	// removes both; after an interrupt or a kill -9 the next RunCycle
	// resumes from them. A checkpoint-save failure is reported via
	// Progress but never aborts the cycle.
	CheckpointPath string
	// JournalPath names the write-ahead trial journal (internal/journal):
	// one fsynced record per executed attempt — counted, discarded,
	// corrupt, or failed — or per pair a RemoteRunner finished. The next
	// RunCycle recovers it, truncates any torn tail, and replays the
	// recovered attempts by seed instead of re-simulating them: at most
	// the single in-flight trial is lost. It may be set without
	// CheckpointPath. Journal open failures degrade to unjournaled
	// operation (reported via Progress), never abort the cycle.
	JournalPath string
	// DiskChaos, when non-nil, runs the watchdog's durable writers —
	// the cycle checkpoint and the trial journal — through a
	// seed-deterministic disk-fault plan (injected ENOSPC, torn tails
	// at fsync, fsync stalls). Both writers already degrade rather than
	// die on disk failure; the plan exists to keep those paths
	// exercised. Not part of the byte-identical replay contract.
	DiskChaos *chaos.DiskPlan
	// Breakers holds the per-service circuit breakers (breaker.go). Nil
	// means RunCycle creates a fresh set on first use; supply one to
	// tune Threshold or observe transitions. The set persists across
	// cycles — soak runs carry trip state forward — with closed-state
	// scores decaying at each cycle end.
	Breakers *BreakerSet
	// Interrupt, if non-nil, is polled between trials; returning true
	// stops RunCycle gracefully with ErrInterrupted after draining
	// in-flight trials and flushing the checkpoint. Must be
	// concurrency-safe when Workers > 1 (it is polled from worker
	// goroutines).
	Interrupt func() bool
	// OnFault, if non-nil, receives the live robustness ledger from all
	// matrices and calibrations.
	OnFault func(ev FaultEvent)
	// Obs, if non-nil, receives live telemetry for the whole cycle:
	// metric counters/histograms plus the cycle timeline
	// (cycle/setting/calibration/trial/pair/checkpoint events). Build one
	// with NewInstruments; nil disables instrumentation entirely.
	Obs *Instruments

	cycles      []*CycleResult
	submissions []Submission
	resume      *Checkpoint
	lastJournal *obs.JournalInfo
	cycleOffset int
	// inFlight is the number of the cycle RunCycle most recently started,
	// which an interrupted run's manifest reports.
	inFlight int
}

// CycleResult is one complete iteration over all pairs in all settings.
type CycleResult struct {
	// Cycle is the 1-based iteration number.
	Cycle int
	// PerSetting maps each setting (by index into Settings) to its
	// matrix result.
	PerSetting []*MatrixResult
	// Calibration holds each service's solo throughput per setting, the
	// Table 1 "Max Xput" check.
	Calibration []map[string]float64
}

// Submission is a third-party service queued for evaluation (Appendix A).
type Submission struct {
	URL     string
	Service services.Service
}

// NewWatchdog returns a watchdog over the standard catalog and settings.
func NewWatchdog() *Watchdog {
	return &Watchdog{
		Services: services.ThroughputCatalog(),
		Settings: []netem.Config{netem.HighlyConstrained(), netem.ModeratelyConstrained()},
		// Access codes published in the paper's Appendix A for
		// third-party testing.
		AccessCodes: []string{
			"KD4p1Z8Gs1SVPHUrTOVTMNHtvUnMSmvZ",
			"A7mH2gHPmtlhbpb8ajfe48oCzA7hp6VB",
			"5PWWIvTUxZSYVhIuEiBEmOOOog8zgrGa",
			"XrVzJ3evvkVpoAf3k54mYuY0tCgjTD2k",
			"bTXmWjSdAmQf4ULItqH2JCR5oX8jZvhL",
		},
	}
}

// Submit queues a custom URL for testing. The URL is modelled as a web
// page whose parameters derive deterministically from the URL string.
// An invalid access code is rejected.
func (w *Watchdog) Submit(url, accessCode string) error {
	ok := false
	for _, c := range w.AccessCodes {
		if c == accessCode {
			ok = true
			break
		}
	}
	if !ok {
		return fmt.Errorf("core: invalid access code for submission %q", url)
	}
	if url == "" {
		return fmt.Errorf("core: submission requires a URL")
	}
	svc := customURLService(url)
	w.submissions = append(w.submissions, Submission{URL: url, Service: svc})
	w.Services = append(w.Services, svc)
	return nil
}

// Submissions lists accepted submissions.
func (w *Watchdog) Submissions() []Submission { return w.submissions }

// customURLService builds a web-page model whose weight and flow count
// derive deterministically from the URL (a stand-in for fetching and
// profiling the real page, which the live system does with Chrome).
func customURLService(url string) services.Service {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(url); i++ {
		h ^= uint64(url[i])
		h *= 1099511628211
	}
	page := services.NewWikipedia(nil)
	page.ServiceName = url
	page.Factory = services.CubicFactory()
	page.TotalBytes = 500_000 + int64(h%4_000_000)
	page.Flows = 4 + int(h%16)
	page.Resources = 10 + int(h%40)
	page.AboveFoldFrac = 0.5 + float64(h%40)/100
	return page
}

// Resume stages a checkpoint: the next RunCycle continues the cycle it
// heads instead of starting a new one.
func (w *Watchdog) Resume(cp *Checkpoint) { w.resume = cp }

// StagedCheckpoint returns the checkpoint staged by Resume or
// LoadCheckpoint (nil if none), letting callers inspect it — e.g. for
// HasBudgetState — before deciding how to run the next cycle.
func (w *Watchdog) StagedCheckpoint() *Checkpoint { return w.resume }

// LoadCheckpoint stages the checkpoint at CheckpointPath if one exists.
// It reports whether a checkpoint was found; a missing file is not an
// error (the watchdog simply starts fresh).
func (w *Watchdog) LoadCheckpoint() (bool, error) {
	if w.CheckpointPath == "" {
		return false, nil
	}
	cp, err := LoadCheckpoint(w.CheckpointPath)
	if err != nil {
		if os.IsNotExist(err) {
			return false, nil
		}
		return false, err
	}
	w.resume = cp
	return true, nil
}

// AdvanceTo tells the watchdog that its next cycle is cycle `next`,
// even though it holds no in-memory history for the earlier ones. A
// restarted daemon that rehydrated N completed cycles from disk calls
// AdvanceTo(N+1) so cycle numbering — and with it every cycle-derived
// trial seed — continues exactly where the previous process stopped.
// A staged checkpoint still overrides: resuming an interrupted cycle
// reuses the checkpoint's own number.
func (w *Watchdog) AdvanceTo(next int) {
	off := next - 1 - len(w.cycles)
	if off > w.cycleOffset {
		w.cycleOffset = off
	}
}

// flush persists the cycle's header. Failures are reported, never
// fatal: a watchdog with a broken disk should keep measuring.
func (w *Watchdog) flush(cp *Checkpoint) {
	if w.CheckpointPath == "" {
		return
	}
	if err := SaveCheckpointDisk(w.CheckpointPath, cp, w.DiskChaos); err != nil {
		if w.Progress != nil {
			w.Progress("checkpoint save failed: %v", err)
		}
		return
	}
	w.Obs.checkpointSaved()
	w.Obs.emit(obs.TimelineEvent{Kind: "checkpoint", Cycle: cp.Cycle})
}

// RunCycle executes one full iteration and appends it to the history.
// It is crash-safe end to end: trial panics and errors are quarantined
// per pair, every executed attempt is journaled when CheckpointPath or
// JournalPath is set, and an Interrupt request returns ErrInterrupted
// with in-flight trials drained and the checkpoint header flushed.
// Recovery is replay: a resumed cycle (see Resume/LoadCheckpoint)
// restores the header and runs from the top, with every attempt the
// journal holds served back by seed instead of simulated (a pair a
// RemoteRunner finished comes back whole, remote.go), so ledger events,
// breaker scoring, telemetry and Progress lines happen on the ordinary
// release path and nowhere else; what the journal lacks is simulated
// again from the same seeds. Either way the CycleResult and fault
// ledger are identical to an uninterrupted run's, at every worker count.
func (w *Watchdog) RunCycle() (*CycleResult, error) {
	if w.resume != nil && w.Opts.Adaptive != nil && !w.resume.HasBudgetState() {
		// A pre-adaptive checkpoint records no budget allocations;
		// re-screening could allocate different ceilings than the
		// interrupted run used and silently change its stopping
		// decisions. Refuse before consuming the staged checkpoint so
		// the caller can disarm Adaptive and resume fixed
		// (cmd/prudentia does exactly that, with a stderr warning).
		return nil, ErrCheckpointNoBudget
	}
	// live is the cycle's header: the staged checkpoint when resuming —
	// its decisions stand, later ones are added to it — else a fresh one.
	live := w.resume
	w.resume = nil
	resumed := live != nil
	if w.Breakers == nil {
		w.Breakers = &BreakerSet{}
	}
	if w.Breakers.OnTransition == nil {
		w.Breakers.OnTransition = w.Obs.breakerTransition
	}
	if resumed {
		// The header's breaker snapshot is the *cycle-start* state;
		// restoring it and letting the replayed work re-score it
		// reproduces the uninterrupted run's breaker evolution exactly.
		w.Breakers.Restore(live.Breakers)
	} else {
		live = &Checkpoint{Cycle: w.cycleOffset + len(w.cycles) + 1, Breakers: w.Breakers.Status()}
	}
	// A header sized for other settings (or none: an older build's, a
	// caller's own) records no decision about these.
	if len(live.OpenServices) != len(w.Settings) {
		live.OpenServices = make([][]string, len(w.Settings))
	}
	if (live.Budget != nil || w.Opts.Adaptive != nil) && len(live.Budget) != len(w.Settings) {
		// Non-nil before the first screening pass, so the header says it
		// is adaptive from the start (HasBudgetState).
		live.Budget = make([]map[string]int, len(w.Settings))
	}
	cr := &CycleResult{Cycle: live.Cycle}
	w.inFlight = cr.Cycle
	sink, jw, rec, err := w.openJournal()
	if err != nil {
		return nil, err
	}
	// Flushed before any work, so a kill in the first calibration
	// already finds the cycle number and the breaker snapshot on disk.
	w.flush(live)
	w.Obs.emit(obs.TimelineEvent{Kind: "cycle_start", Cycle: cr.Cycle,
		Detail: fmt.Sprintf("%d services, %d settings, resumed=%v", len(w.Services), len(w.Settings), resumed)})
	finishJournal := func() {
		if jw == nil {
			return
		}
		records, bytes := jw.Stats()
		w.lastJournal = &obs.JournalInfo{
			Path:      w.journalPath(),
			Records:   records,
			Bytes:     bytes,
			Replayed:  sink.replayCount(),
			Recovered: int64(len(rec.Entries)),
			TornBytes: rec.TornBytes,
		}
		jw.Close()
	}
	interruptedExit := func() {
		w.flush(live)
		finishJournal()
		w.Obs.emit(obs.TimelineEvent{Kind: "cycle_end", Cycle: cr.Cycle, Detail: "interrupted"})
	}

	// Canary probes (§breaker.go): every service whose breaker is open
	// gets exactly one half-open probe trial at cycle start; success
	// re-admits it for the whole cycle.
	w.probeOpenServices(sink, cr.Cycle)

	for si, net := range w.Settings {
		w.Obs.emit(obs.TimelineEvent{Kind: "setting_start", Cycle: cr.Cycle, Setting: si,
			Detail: fmt.Sprintf("%d Mbps", net.RateBps/1_000_000)})
		opts := w.SettingOptions(cr.Cycle, si)

		// Solo calibration first (§3.1): detect upstream throttling.
		cal, stopped := w.calibrateAll(net, opts, sink)
		if stopped {
			interruptedExit()
			return nil, ErrInterrupted
		}
		cr.Calibration = append(cr.Calibration, cal)

		// Admission: decided once, here, before the matrix starts; the
		// header stores the decision so a resumed cycle skips exactly
		// the same pairs.
		open := live.OpenServices[si]
		if open == nil {
			open = append([]string{}, w.Breakers.OpenServices()...)
			live.OpenServices[si] = open
			w.flush(live)
		}
		var skip func(string) bool
		if len(open) > 0 {
			openSet := make(map[string]bool, len(open))
			for _, n := range open {
				openSet[n] = true
			}
			skip = func(name string) bool { return openSet[name] }
		}

		// Adaptive budgets: a header that recorded this setting's
		// allocation hands it over verbatim (screening is skipped), so
		// the resumed cycle's stopping ceilings match the interrupted
		// run's; a fresh allocation is flushed the moment it is
		// decided, before any full-depth trial runs.
		var budgets map[string]int
		if live.Budget != nil {
			budgets = live.Budget[si]
		}

		si := si
		m := &Matrix{
			Services:    w.Services,
			Net:         net,
			Opts:        opts,
			Workers:     w.Workers,
			Remote:      w.Remote,
			Cycle:       cr.Cycle,
			Setting:     si,
			Progress:    w.Progress,
			OnFault:     w.OnFault,
			Interrupt:   w.Interrupt,
			SkipService: skip,
			Journal:     sink,
			Breakers:    w.Breakers,
			Obs:         w.Obs,
			Budgets:     budgets,
			OnBudgets: func(b map[string]int) {
				live.Budget[si] = b
				w.flush(live)
			},
		}
		res, err := m.Run()
		if err != nil {
			interruptedExit()
			return nil, err
		}
		cr.PerSetting = append(cr.PerSetting, res)
	}
	if w.CheckpointPath != "" {
		os.Remove(w.CheckpointPath)
	}
	finishJournal()
	if jw != nil {
		os.Remove(w.journalPath())
	}
	w.Breakers.Decay()
	w.cycles = append(w.cycles, cr)
	w.Obs.emit(obs.TimelineEvent{Kind: "cycle_end", Cycle: cr.Cycle, Detail: "completed"})
	return cr, nil
}

// SettingOptions resolves the scheduler options RunCycle uses for one
// (cycle, setting) pair: the setting's preset (PaperOptions, or
// QuickOptions when Quick is set) with every non-zero field of Opts laid
// over it and the cycle/setting seed offset applied.
// It is exported for fleet workers, which must derive trial seeds
// identically to the coordinator's watchdog from their own (matching)
// configuration.
func (w *Watchdog) SettingOptions(cycle, si int) SchedulerOptions {
	base := PaperOptions(w.Settings[si])
	if w.Quick {
		base = QuickOptions(w.Settings[si])
	}
	opts := w.Opts.over(base)
	// Seed-scope each cycle and setting so re-runs differ but stay
	// reproducible.
	opts.BaseSeed += uint64(cycle)*1_000_003 + uint64(si)*7_919
	return opts
}

// journalPath resolves where the cycle's trial journal lives:
// JournalPath, else beside the checkpoint, else nowhere.
func (w *Watchdog) journalPath() string {
	if w.JournalPath == "" && w.CheckpointPath != "" {
		return w.CheckpointPath + ".wal"
	}
	return w.JournalPath
}

// openJournal opens (or creates) the write-ahead journal, recovering
// any records a previous process left behind. A journal that cannot be
// opened degrades to unjournaled operation — a resumed cycle then
// re-simulates from the header alone, to the same bytes: the journal is
// a durability optimization, never a correctness dependency. The one
// exception is a future-version journal, which is a hard error —
// appending a fresh prudentia.journal/1 beside history a newer binary
// still considers authoritative would silently fork the trial record.
func (w *Watchdog) openJournal() (*journalSink, *journal.Writer, journal.Recovery, error) {
	path := w.journalPath()
	if path == "" {
		return nil, nil, journal.Recovery{}, nil
	}
	jw, rec, err := journal.OpenWrapped(path, w.DiskChaos.WrapFunc())
	if errors.Is(err, journal.ErrFutureVersion) {
		return nil, nil, journal.Recovery{}, err
	}
	if err != nil {
		if w.Progress != nil {
			w.Progress("journal open failed (running unjournaled): %v", err)
		}
		return nil, nil, journal.Recovery{}, nil
	}
	if derr := jw.Err(); derr != nil && w.Progress != nil {
		w.Progress("journal degraded (recovered attempts replay, new ones go unjournaled): %v", derr)
	}
	if len(rec.Entries) > 0 || rec.Truncated {
		w.Obs.journalRecovered(len(rec.Entries), rec.TornBytes)
		if w.Progress != nil {
			w.Progress("journal recovered: %d attempts replayable, %d torn bytes truncated",
				len(rec.Entries), rec.TornBytes)
		}
	}
	return newJournalSink(jw, rec.Entries), jw, rec, nil
}

// probeOpenServices runs one canary trial for every open breaker, in
// sorted order, re-admitting services whose probe succeeds. Probes are
// solo trials in the first setting; their seeds live in the canary
// namespace with the cycle number as the attempt index, so each cycle
// probes with a fresh — but journaled, hence replayable — seed. Probes
// deliberately emit no fault-ledger events (they are supervision, not
// measurement), so a resumed cycle that re-probes cannot duplicate
// ledger entries; they surface on the timeline and the
// prudentia_breaker_probes_total counter instead.
func (w *Watchdog) probeOpenServices(sink *journalSink, cycle int) {
	open := w.Breakers.OpenServices()
	if len(open) == 0 || len(w.Settings) == 0 {
		return
	}
	net := w.Settings[0]
	opts := w.SettingOptions(cycle, 0)
	for _, name := range open {
		var svc services.Service
		for _, s := range w.Services {
			if s.Name() == name {
				svc = s
				break
			}
		}
		if svc == nil {
			continue // service left the catalog; breaker ages out via decay
		}
		w.Breakers.BeginProbe(name)
		seed := trialSeed(opts.BaseSeed, canarySeedID(name), cycle)
		spec := opts.spec(svc, nil, net, seed)
		ar := executeAttempt(sink, w.Obs, opts, spec, name+" (canary)", cycle)
		ok := ar.class == "ok"
		w.Breakers.ProbeResult(name, ok)
		w.Obs.breakerProbe(name, ok)
		if w.Progress != nil {
			verdict := "failed; breaker stays open"
			if ok {
				verdict = "ok; service re-admitted"
			}
			w.Progress("canary probe %s: %s", name, verdict)
		}
	}
}

// calibrateAll measures every admitted catalog service solo for one
// setting — one more task set on the shared runner (parallel.go), so it
// is deterministic for any worker count: each service's attempt seeds
// derive from its catalog index alone, and fault events, calibration
// telemetry and breaker scoring (BreakerSet is single-goroutine by
// design) ride the catalog-order release. It reports stopped=true, with
// the partial map discarded, when the Interrupt hook fires.
func (w *Watchdog) calibrateAll(net netem.Config, opts SchedulerOptions, sink *journalSink) (cal map[string]float64, stopped bool) {
	var admitted []int // catalog indices; an open breaker means no solo run, no penalty
	for i, svc := range w.Services {
		if w.Breakers.State(svc.Name()) != BreakerOpen {
			admitted = append(admitted, i)
		}
	}
	type calRun struct {
		events []FaultEvent
		mbps   float64
		ok     bool
	}
	cal = make(map[string]float64, len(w.Services))
	stopped = runOrdered(len(admitted), w.Workers, w.Interrupt,
		func(k int, interrupt func() bool) (cr calRun, completed bool) {
			if interrupt() {
				return cr, false
			}
			i := admitted[k]
			cr.mbps, cr.ok = w.calibrate(w.Services[i], net, opts, i, sink,
				func(ev FaultEvent) { cr.events = append(cr.events, ev) })
			return cr, true
		},
		func(k int, cr calRun) {
			name := w.Services[admitted[k]].Name()
			if w.OnFault != nil {
				for _, ev := range cr.events {
					w.OnFault(ev)
				}
			}
			w.Obs.calibrationDone(name, cr.ok)
			if cr.ok {
				cal[name] = cr.mbps
			} else {
				w.Breakers.scoreCalibrationFailure(name)
			}
		})
	if stopped {
		return nil, true
	}
	return cal, false
}

// calibrate measures one service solo with the same defenses the matrix
// applies: recovered panics, injected errors, and reaped hangs retry
// with fresh seeds, and discarded or corrupt results are skipped.
// Attempts run through executeAttempt, so they are journaled (and
// replayed on resume) and subject to the wall-clock reaper, but they do
// no trial counting — calibration stays out of prudentia_trials_*.
// After MaxFailures fruitless attempts the service's calibration entry
// is omitted for the cycle (reported on the fault ledger) instead of
// killing the cycle.
func (w *Watchdog) calibrate(svc services.Service, net netem.Config, opts SchedulerOptions, idx int, sink *journalSink, emit func(FaultEvent)) (float64, bool) {
	id := soloSeedID(idx)
	budget := opts.MaxFailures + opts.MaxDiscards
	for attempt := 0; attempt < budget; attempt++ {
		seed := trialSeed(opts.BaseSeed, id, attempt)
		spec := opts.spec(svc, nil, net, seed)
		ar := executeAttempt(sink, w.Obs, opts, spec, svc.Name()+" (solo)", attempt)
		switch ar.class {
		case "fail":
			if emit != nil {
				emit(FaultEvent{Pair: svc.Name() + " (solo)", Kind: ar.failKind, Attempt: attempt, Seed: seed, Detail: ar.failMsg})
			}
		case "ok":
			return ar.res.Mbps[0], true
		}
		// discard / corrupt: skipped, next attempt.
	}
	if emit != nil {
		emit(FaultEvent{Pair: svc.Name() + " (solo)", Kind: "calibration", Attempt: budget,
			Detail: "all calibration attempts failed; entry omitted this cycle"})
	}
	return 0, false
}

// History returns all completed cycles.
func (w *Watchdog) History() []*CycleResult { return w.cycles }

// ThrottledServices reports services whose solo throughput in the given
// setting stayed below frac of the link capacity — the rule that flags
// OneDrive's external 45 Mbps cap in Table 1. Only meaningful for
// services without an intrinsic cap.
func (c *CycleResult) ThrottledServices(setting int, net netem.Config, svcs []services.Service, frac float64) []string {
	if setting >= len(c.Calibration) {
		return nil
	}
	linkMbps := float64(net.RateBps) / 1e6
	var out []string
	for _, svc := range svcs {
		if svc.MaxRateBps() > 0 {
			continue // intrinsically capped (video, RTC)
		}
		if got, ok := c.Calibration[setting][svc.Name()]; ok && got < frac*linkMbps {
			out = append(out, svc.Name())
		}
	}
	sort.Strings(out)
	return out
}

// ChangeReport compares a service's median throughput against a given
// contender across two cycles (the Fig 9a analysis: Google Drive and
// YouTube improved between 2022 and 2023 measurement periods).
type ChangeReport struct {
	Service, Versus string
	BeforeMbps      float64
	AfterMbps       float64
	ImprovementPct  float64
}

// CompareCycles builds a ChangeReport from two cycles for one setting.
func CompareCycles(before, after *CycleResult, setting int, service, versus string) (ChangeReport, bool) {
	rep := ChangeReport{Service: service, Versus: versus}
	if setting >= len(before.PerSetting) || setting >= len(after.PerSetting) {
		return rep, false
	}
	b, bs, ok1 := before.PerSetting[setting].Cell(service, versus)
	a, as, ok2 := after.PerSetting[setting].Cell(service, versus)
	if !ok1 || !ok2 || b.Counted() == 0 || a.Counted() == 0 {
		return rep, false
	}
	rep.BeforeMbps = b.MedianMbps(bs)
	rep.AfterMbps = a.MedianMbps(as)
	if rep.BeforeMbps > 0 {
		rep.ImprovementPct = 100 * (rep.AfterMbps - rep.BeforeMbps) / rep.BeforeMbps
	}
	return rep, true
}

// InstabilityReport summarizes trial-level spread for a pair (Fig 10):
// services like OneDrive and Vimeo show wide trial-to-trial variance.
type InstabilityReport struct {
	Incumbent, Contender string
	Slot                 int
	// TrialMbps is the slot's per-trial throughput samples in sorted
	// order (not trial order), empty once the pair counted more than
	// stats.SketchBufferCap trials; the IQR is available in either case.
	TrialMbps []float64
	IQR       float64
	Unstable  bool
}

// Instability extracts the Fig 10 scatter for one ordered pair.
func (r *MatrixResult) Instability(incumbent, contender string) (InstabilityReport, bool) {
	p, slot, ok := r.Cell(incumbent, contender)
	if !ok || p.Counted() == 0 {
		return InstabilityReport{}, false
	}
	rep := InstabilityReport{
		Incumbent: incumbent, Contender: contender, Slot: slot,
		Unstable: p.Unstable,
	}
	rep.TrialMbps, _ = p.Sketches.Mbps[slot].Values()
	rep.IQR = p.Sketches.Mbps[slot].IQR()
	return rep, true
}
