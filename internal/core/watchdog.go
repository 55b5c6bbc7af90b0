package core

import (
	"errors"
	"fmt"
	"io/fs"
	"slices"
	"sort"

	"prudentia/internal/chaos"
	"prudentia/internal/journal"
	"prudentia/internal/netem"
	"prudentia/internal/obs"
	"prudentia/internal/services"
)

// Watchdog is the continuously-running fairness monitor: it cycles the
// all-pairs matrix across its network settings, one numbered cycle after
// another (repeated cycles are how the paper detected the 2022→2023
// Google Drive and YouTube stack changes, Obs 13), runs solo calibrations to detect upstream throttling
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
	// Progress, if non-nil, receives human-readable progress lines.
	Progress func(format string, args ...any)

	// CheckpointPath, when set, makes RunCycle durable: the cycle's
	// Checkpoint header lives in this file (flushed at cycle start and
	// on interrupt, never per pair) and every attempt is journaled beside
	// it, at JournalPath or else CheckpointPath+".wal". Both stay after a
	// cycle; RunCycle resumes it (Resumes) or starts fresh and empties the
	// journal. A checkpoint-save failure is reported via Progress but
	// never aborts the cycle; a header that fails to load is its error.
	CheckpointPath string
	// JournalPath names the write-ahead trial journal (internal/journal):
	// one fsynced record per executed attempt — counted, discarded,
	// corrupt, or failed. A resumed RunCycle recovers it, truncates any
	// torn tail, and replays the recovered attempts by seed instead of
	// re-simulating them: at most the single in-flight trial is lost.
	// Without CheckpointPath there is no header, so it never resumes. An
	// open failure degrades to unjournaled operation, reported via Progress.
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
	// observe transitions. The set persists across
	// cycles — soak runs carry trip state forward — with closed-state
	// scores decaying at each cycle end.
	Breakers *BreakerSet
	// Interrupt, if non-nil, is polled between trials; returning true
	// stops RunCycle gracefully with ErrInterrupted after draining
	// in-flight trials and flushing the checkpoint. Must be
	// concurrency-safe when Workers > 1 (it is polled from worker
	// goroutines).
	Interrupt func() bool
	// OnFault, if non-nil, also receives each ledger event as it is
	// released; the cycle's own ledger is CycleResult.Faults.
	OnFault func(ev FaultEvent)
	// Obs, if non-nil, receives live telemetry for the whole cycle:
	// metric counters/histograms plus the cycle timeline
	// (cycle/setting/calibration/trial/pair/checkpoint events). Build one
	// with NewInstruments; nil disables instrumentation entirely.
	Obs *Instruments

	// done is the last cycle this watchdog completed or was advanced
	// past (AdvanceTo); a fresh cycle is number done+1. Results are
	// returned, never retained.
	done        int
	lastJournal *obs.JournalInfo
	// inFlight is the number of the cycle RunCycle most recently started,
	// which an interrupted run's manifest reports.
	inFlight int
	// faults is the running cycle's ledger, CycleResult.Faults once the
	// cycle completes.
	faults []FaultEvent
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
	// Faults is the cycle's robustness ledger in canonical release order:
	// the same events for any worker count, resumed or not.
	Faults []FaultEvent
}

// NewWatchdog returns a watchdog over the standard catalog and settings.
func NewWatchdog() *Watchdog {
	return &Watchdog{
		Services: services.ThroughputCatalog(),
		Settings: []netem.Config{netem.HighlyConstrained(), netem.ModeratelyConstrained()},
	}
}

// accessCodes are the codes the paper's Appendix A publishes for
// third-party testing; a submission must carry one of them.
var accessCodes = []string{
	"KD4p1Z8Gs1SVPHUrTOVTMNHtvUnMSmvZ",
	"A7mH2gHPmtlhbpb8ajfe48oCzA7hp6VB",
	"5PWWIvTUxZSYVhIuEiBEmOOOog8zgrGa",
	"XrVzJ3evvkVpoAf3k54mYuY0tCgjTD2k",
	"bTXmWjSdAmQf4ULItqH2JCR5oX8jZvhL",
}

// CheckSubmission reports why a submission of url under accessCode
// would be refused: an access code that is not one of Appendix A's, or
// an empty URL. The daemon calls it when a submission arrives, so a
// refused one never reaches its queue.
func CheckSubmission(url, accessCode string) error {
	if !slices.Contains(accessCodes, accessCode) {
		return fmt.Errorf("core: invalid access code for submission %q", url)
	}
	if url == "" {
		return fmt.Errorf("core: submission requires a URL")
	}
	return nil
}

// Submit queues a custom URL for testing. The URL is modelled as a web
// page whose parameters derive deterministically from the URL string.
// A submission CheckSubmission refuses is rejected.
func (w *Watchdog) Submit(url, accessCode string) error {
	if err := CheckSubmission(url, accessCode); err != nil {
		return err
	}
	w.Services = append(w.Services, customURLService(url))
	return nil
}

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

// AdvanceTo tells the watchdog that its next cycle is cycle `next`,
// even though it did not run the earlier ones. A restarted daemon that rehydrated N completed cycles from disk calls
// AdvanceTo(N+1) so cycle numbering — and with it every cycle-derived
// trial seed — continues exactly where the previous process stopped.
// A checkpoint header naming a later cycle still overrides: resuming an
// interrupted cycle reuses the header's own number.
func (w *Watchdog) AdvanceTo(next int) {
	if next-1 > w.done {
		w.done = next - 1
	}
}

// flush persists the cycle's header, if it has one. Failures are
// reported, never fatal: a watchdog with a broken disk keeps measuring.
func (w *Watchdog) flush(cp *Checkpoint) {
	if w.CheckpointPath == "" || cp == nil {
		return
	}
	cp.Recipe = w.recipeFingerprint()
	if err := SaveCheckpointDisk(w.CheckpointPath, cp, w.DiskChaos); err != nil {
		w.progress("checkpoint save failed: %v", err)
		return
	}
	w.Obs.checkpointSaved()
	w.Obs.emit(obs.TimelineEvent{Kind: "checkpoint", Cycle: cp.Cycle})
}

// progress forwards a line to Progress if one is attached.
func (w *Watchdog) progress(format string, args ...any) {
	if w.Progress != nil {
		w.Progress(format, args...)
	}
}

// fault records a ledger event for the running cycle and passes it to
// OnFault if a listener is attached.
func (w *Watchdog) fault(ev FaultEvent) {
	w.faults = append(w.faults, ev)
	if w.OnFault != nil {
		w.OnFault(ev)
	}
}

// header is the one judge of whether RunCycle resumes: it returns the
// header at CheckpointPath to resume, or nil to start fresh — no file,
// or one set aside (aside says why): its cycle is one this watchdog
// completed or was advanced past, or its recipe is another. A header
// that fails to load is an error: starting fresh would overwrite it.
func (w *Watchdog) header() (cp *Checkpoint, aside string, err error) {
	cp, err = LoadCheckpoint(w.CheckpointPath)
	switch {
	case errors.Is(err, fs.ErrNotExist): // no file, or no CheckpointPath
		return nil, "", nil
	case err != nil:
		return nil, "", err
	case cp.Cycle <= w.done:
		return nil, fmt.Sprintf("cycle %d is complete", cp.Cycle), nil
	case cp.Recipe != "" && cp.Recipe != w.recipeFingerprint():
		return nil, fmt.Sprintf("cycle %d ran under another recipe", cp.Cycle), nil
	}
	return cp, "", nil
}

// Resumes reports the cycle the next RunCycle resumes, or 0 when it
// starts fresh; its error is RunCycle's for a header it cannot load.
func (w *Watchdog) Resumes() (cycle int, err error) {
	cp, _, err := w.header()
	if cp != nil {
		cycle = cp.Cycle
	}
	return cycle, err
}

// RunCycle executes one full iteration and returns it. It is crash-safe
// end to end: trial panics and errors are quarantined per pair, every
// executed attempt is journaled when CheckpointPath or JournalPath is set,
// and an Interrupt request returns ErrInterrupted with in-flight trials
// drained and the checkpoint header flushed. Recovery is replay: when
// header() resumes a cycle, even a completed one, RunCycle restores it and
// runs from the top, with every attempt the journal holds served back by
// seed instead of simulated, so ledger events, breaker scoring, telemetry
// and Progress lines happen on the ordinary release path and nowhere else;
// what the journal lacks is simulated again from the same seeds. Decisions
// are recomputed the same way: each setting's admission is the breaker
// state the replayed work re-scored the restored snapshot to, and each
// adaptive allocation comes from the replayed screening. Either way the
// CycleResult and fault ledger are identical to an uninterrupted run's
// under this watchdog's configuration, at every worker count — whatever
// protocol the interrupted process ran. A header that fails to load is
// returned before anything is written.
func (w *Watchdog) RunCycle() (*CycleResult, error) {
	cp, aside, err := w.header()
	if err != nil {
		return nil, err
	}
	resumed := cp != nil
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
		w.Breakers.Restore(cp.Breakers)
	} else {
		if aside != "" {
			w.progress("set aside %s (%s); cycle %d starts fresh", w.CheckpointPath, aside, w.done+1)
		}
		cp = &Checkpoint{Cycle: w.done + 1, Breakers: w.Breakers.Status()}
	}
	cr := &CycleResult{Cycle: cp.Cycle}
	w.inFlight = cr.Cycle
	w.faults = nil
	sink, jw, rec, err := w.openJournal(resumed)
	if err != nil {
		return nil, err
	}
	if jw == nil && !resumed {
		cp = nil // no header beside records a fresh cycle could not empty
	}
	// Flushed before any work, so a kill in the first calibration
	// already finds the cycle number and the breaker snapshot on disk.
	w.flush(cp)
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
		w.flush(cp)
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

		// Admission: decided once, here, before the matrix starts, from
		// the breakers as the probes, the calibrations and the earlier
		// settings left them — on a resumed cycle, as their replay
		// re-scored the restored snapshot, so the same pairs are skipped.
		open := make(map[string]bool)
		for _, n := range w.Breakers.OpenServices() {
			open[n] = true
		}
		m := &matrix{w: w, net: net, opts: opts, open: open, journal: sink}
		res, err := m.Run()
		if err != nil {
			interruptedExit()
			return nil, err
		}
		cr.PerSetting = append(cr.PerSetting, res)
	}
	finishJournal()
	cr.Faults, w.faults = w.faults, nil
	w.Breakers.Decay()
	w.done = cr.Cycle
	w.Obs.emit(obs.TimelineEvent{Kind: "cycle_end", Cycle: cr.Cycle, Detail: "completed"})
	return cr, nil
}

// SettingOptions resolves the scheduler options RunCycle uses for one
// (cycle, setting) pair: the setting's preset (PaperOptions, or
// QuickOptions when Quick is set) with every non-zero field of Opts laid
// over it and the cycle/setting seed offset applied.
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

// openJournal opens the write-ahead journal, recovering what a previous
// process left behind on resume and emptying it otherwise. A journal
// that cannot be opened or emptied runs the cycle unjournaled — a resumed
// one re-simulates from the header alone, to the same bytes, and a fresh
// one writes no header: the journal is an optimization, not a dependency.
// The one exception is a future-version journal, which is a hard error —
// appending a fresh prudentia.journal/1 beside history a newer binary
// still considers authoritative would silently fork the trial record.
func (w *Watchdog) openJournal(resume bool) (*journalSink, *journal.Writer, journal.Recovery, error) {
	path := w.journalPath()
	if path == "" {
		return nil, nil, journal.Recovery{}, nil
	}
	jw, rec, err := openJournalFile(path, resume, w.DiskChaos.WrapFunc())
	if errors.Is(err, journal.ErrFutureVersion) {
		return nil, nil, journal.Recovery{}, err
	}
	if err != nil {
		w.progress("journal open failed (running unjournaled): %v", err)
		return nil, nil, journal.Recovery{}, nil
	}
	if derr := jw.Err(); derr != nil {
		w.progress("journal degraded (recovered attempts replay, new ones go unjournaled): %v", derr)
	}
	if len(rec.Entries) > 0 || rec.Truncated {
		w.Obs.journalRecovered(len(rec.Entries), rec.TornBytes)
		w.progress("journal recovered: %d attempts replayable, %d torn bytes truncated",
			len(rec.Entries), rec.TornBytes)
	}
	return newJournalSink(jw, rec.Entries), jw, rec, nil
}

// openJournalFile is openJournal's file step. Emptying checks the schema
// frame, so a newer build's journal is still refused, and decodes no record.
func openJournalFile(path string, resume bool, wrap journal.WrapFunc) (*journal.Writer, journal.Recovery, error) {
	if resume {
		return journal.OpenWrapped(path, wrap)
	}
	l, lr, err := journal.OpenLog(path, journal.Schema, wrap, nil)
	if err == nil && len(lr.Payloads) > 0 {
		if err = l.Rewrite(nil); err != nil {
			l.Close()
		}
	}
	return (*journal.Writer)(l), journal.Recovery{}, err
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
		verdict := "failed; breaker stays open"
		if ok {
			verdict = "ok; service re-admitted"
		}
		w.progress("canary probe %s: %s", name, verdict)
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
			for _, ev := range cr.events {
				w.fault(ev)
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
// After maxFailures+maxDiscards fruitless attempts the service's
// calibration entry is omitted for the cycle (reported on the fault
// ledger) instead of killing the cycle.
func (w *Watchdog) calibrate(svc services.Service, net netem.Config, opts SchedulerOptions, idx int, sink *journalSink, emit func(FaultEvent)) (float64, bool) {
	id := soloSeedID(idx)
	budget := maxFailures + maxDiscards
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
