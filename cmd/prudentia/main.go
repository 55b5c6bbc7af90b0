// Command prudentia runs the continuous fairness watchdog: it cycles
// through all service pairs in both standing network settings, applying
// the paper's trial-escalation protocol with each setting's own stopping
// tolerance, and prints the MmF-share, utilization, loss, and
// queueing-delay heatmaps after every cycle — the terminal analogue of
// internetfairness.net.
//
// An invocation is parsed and validated once into one config value
// (config.go) that the watchdog, the fleet fingerprint, the manifest
// recipe, the sweep cells and the daemon all derive from; a flag the
// selected mode would ignore is an error, not a no-op.
//
// The watchdog is crash-safe: with -checkpoint f it keeps the cycle's
// header in f (cycle number, cycle-start breakers, admission and budget
// decisions) and fsyncs every executed attempt to the write-ahead trial
// journal f.wal as it completes. SIGINT/SIGTERM stop it gracefully, a
// kill -9 loses at most the one in-flight trial, and either way the next
// run with the same -checkpoint resumes the cycle by replaying the
// journal instead of re-simulating it, with a report and fault ledger
// identical to an uninterrupted run (both files exist only while a cycle
// is in progress). -journal moves the journal to another path, or
// journals a run that has no checkpoint. -max-trial-wall arms the
// hung-trial reaper, circuit-breaker state carries across the cycles of
// one run (-v prints it after each), and -chaos arms the deterministic
// fault-injection plan (link flaps, bandwidth sags, client stalls, trial
// panics/errors, result corruption, service brownouts) to exercise those
// defenses.
//
// -adaptive replaces the fixed trial protocol with adaptive budgets
// (docs/ADAPTIVE.md): a coarse screening pass ranks pairs by predicted
// unfairness and allocates the cycle's trial budget depth-first to the
// most contested pairs, and a sequential stopper ends each pair's
// trials the moment its fairness verdict is statistically settled —
// same verdicts, typically ≥30% fewer trials. Resuming a pre-adaptive
// checkpoint finishes that cycle with the fixed protocol.
//
// Per-pair statistics accumulate in O(1) mergeable quantile sketches
// (docs/SKETCHES.md): medians/CIs bit-identical to order statistics
// over the raw samples at the standard trial budgets, with constant
// memory per pair at any trial count. -sweep replaces the
// watchdog cycles with a rate × RTT × queue × CCA parameter grid and
// writes consolidated TSV/JSON artifacts (-sweep-rates, -sweep-rtts,
// -sweep-queues, -sweep-ccas, -sweep-out; scripts/sweep.sh wraps it).
//
// -workers N (default GOMAXPROCS) fans calibrations and pair trials out
// to a worker pool; every trial owns a private simulation engine and
// emulated testbed, and completed work is merged in canonical order, so
// heatmaps, reports, and the fault ledger are byte-identical for any
// worker count. The first SIGINT drains the trials in flight before
// flushing the checkpoint; a resumed parallel run replays identically.
//
// Usage:
//
//	prudentia -cycles 1 -quick
//	prudentia -cycles 0            # run forever (live watchdog mode)
//	prudentia -workers 8           # parallel matrix, identical output
//	prudentia -checkpoint state.json            # kill -9 safe; rerun to resume
//	prudentia -cycles 5 -v -max-trial-wall 50   # long-run supervision
//	prudentia -chaos -v                         # fault-injection run
//	prudentia -submit https://my.service/page -code <access code>
package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"

	"prudentia/internal/core"
	"prudentia/internal/journal"
	"prudentia/internal/obs"
	"prudentia/internal/report"
	"prudentia/internal/trace"
)

func main() {
	cfg, err := parseConfig(os.Args[1:])
	if err == nil {
		err = run(cfg, os.Stdout, os.Stderr)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "prudentia: %v\n", err)
		os.Exit(1)
	}
}

// run executes one validated invocation: a sweep, a fleet worker, or
// watchdog cycles (batch, fleet coordinator, or behind the -serve
// daemon). stdout carries the comparable report and nothing else;
// status and warnings go to stderr, and every failure is the returned
// error.
func run(cfg config, stdout, stderr io.Writer) error {
	if cfg.usage != "" {
		fmt.Fprint(stderr, cfg.usage)
		return nil
	}
	warnf := func(format string, args ...any) {
		fmt.Fprintf(stderr, "prudentia: "+format+"\n", args...)
	}
	w := cfg.watchdog
	if cfg.verbose {
		w.Progress = func(format string, args ...any) {
			fmt.Fprintf(stdout, "  "+format+"\n", args...)
		}
	}
	switch {
	case cfg.sweep:
		return runSweep(cfg, stdout, stderr)
	case cfg.connect != "":
		return runWorker(cfg, warnf)
	}

	ledger := &trace.FaultLedger{}
	w.OnFault = ledger.Record

	// Observability sinks: metric registry, JSONL timeline, run manifest,
	// fault-ledger export. All optional; the watchdog runs uninstrumented
	// (nil Obs) when no flag asks for them. The daemon always carries a
	// registry: /metrics is part of its API surface.
	var reg *obs.Registry
	var tl *obs.Timeline
	if cfg.metricsOut != "" || cfg.timeline != "" || cfg.manifest != "" || cfg.serve {
		reg = obs.NewRegistry()
	}
	if cfg.timeline != "" {
		var err error
		if tl, err = obs.CreateTimeline(cfg.timeline); err != nil {
			return err
		}
		defer tl.Close()
	}
	if reg != nil || tl != nil {
		w.Obs = core.NewInstruments(reg, tl)
	}
	// exportObs flushes the metric snapshot and manifest; called after
	// every cycle (and on interrupt, with cr == nil) so a killed watchdog
	// still leaves reconciliation artifacts behind.
	exportObs := func(cr *core.CycleResult) {
		if cfg.metricsOut != "" {
			if err := writeMetrics(cfg.metricsOut, reg); err != nil {
				warnf("%v", err)
			}
		}
		if cfg.manifest != "" {
			if err := w.BuildManifest(cr, reg).Write(cfg.manifest); err != nil {
				warnf("%v", err)
			}
		}
	}
	if cfg.faultsOut != "" {
		defer func() {
			f, err := os.Create(cfg.faultsOut)
			if err == nil {
				err = trace.WriteFaultsJSONL(f, ledger.Snapshot())
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
			if err != nil {
				warnf("faults-out: %v", err)
			}
		}()
	}

	// Graceful shutdown: the first SIGINT/SIGTERM requests a stop at the
	// next trial boundary (every attempt is journaled as it completes, so
	// nothing finished is lost); a second signal kills immediately.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	go func() {
		<-sigc
		cancel()
		warnf("stopping at next trial boundary (signal again to kill)")
		<-sigc
		os.Exit(1)
	}()
	w.Interrupt = func() bool { return ctx.Err() != nil }

	if w.CheckpointPath != "" {
		found, err := w.LoadCheckpoint()
		if err != nil {
			return err
		}
		if found {
			fmt.Fprintf(stdout, "resuming interrupted cycle from %s\n", w.CheckpointPath)
			if w.Opts.Adaptive != nil && !w.StagedCheckpoint().HasBudgetState() {
				// Pre-adaptive checkpoints carry no budget allocations;
				// re-screening could change the interrupted run's
				// stopping decisions, so finish this cycle with the
				// fixed protocol instead of erroring.
				warnf("checkpoint predates adaptive budgets; running this cycle with the fixed protocol")
				w.Opts.Adaptive = nil
			}
		} else {
			fmt.Fprintf(stdout, "no checkpoint at %s; starting fresh\n", w.CheckpointPath)
		}
	}
	if cfg.submit != "" {
		fmt.Fprintf(stdout, "accepted submission %q; it joins the catalog for this run\n", cfg.submit)
	}

	// Fleet coordinator mode: shard each setting's pair matrix over the
	// connected workers. Calibrations and canary probes stay local (they
	// are cheap and feed per-cycle admission decisions); only the pair
	// matrices fan out. It composes with -serve, which then serves
	// fleet-backed cycles.
	if cfg.coordinator {
		stopFleet, err := startCoordinator(cfg, ledger, reg, warnf)
		if err != nil {
			return err
		}
		defer stopFleet()
	}
	if cfg.serve {
		return runServe(ctx, cfg, ledger, reg, exportObs, stdout)
	}

	for cycle := 1; cfg.cycles == 0 || cycle <= cfg.cycles; cycle++ {
		fmt.Fprintf(stdout, "=== cycle %d (catalog: %d services) ===\n", cycle, len(w.Services))
		stopProfiles, err := startProfiles(cfg.pprofDir, cycle, warnf)
		if err != nil {
			return err
		}
		cr, err := w.RunCycle()
		stopProfiles()
		if errors.Is(err, core.ErrInterrupted) {
			exportObs(nil)
			if w.CheckpointPath != "" {
				fmt.Fprintf(stdout, "interrupted; cycle state saved to %s (rerun with the same -checkpoint to resume)\n", w.CheckpointPath)
			} else {
				fmt.Fprintln(stdout, "interrupted (no -checkpoint set; cycle state discarded)")
			}
			return nil
		}
		if err != nil {
			return fmt.Errorf("cycle %d: %w", cycle, err)
		}
		exportObs(cr)
		// The shared byte-stable renderer (internal/report) is the one
		// the daemon's /api/v1/report.txt serves verbatim — the CI serve
		// gate byte-compares the two, so no private rendering path here.
		for si, res := range cr.PerSetting {
			fmt.Fprint(stdout, report.CycleText(res, cr, si, w.Settings[si], w.Services))
		}
		if s := ledger.Summary(); s != "" {
			fmt.Fprintf(stdout, "fault ledger: %s\n\n", s)
		}
		if cfg.verbose {
			// Breaker state persists across cycles, so this line after
			// each one is the long-run supervision view.
			fmt.Fprintf(stdout, "cycle %d complete; breakers: %s\n\n", cycle, breakerSummary(w.Breakers.Status()))
			if reg != nil {
				fmt.Fprintln(stdout, report.MetricsSummary(reg.Snapshot()))
			}
		}
	}
	return nil
}

// breakerSummary renders a breaker snapshot — the watchdog's service
// breakers under -v, the coordinator's worker breakers in fleet mode.
func breakerSummary(infos []obs.BreakerInfo) string {
	if len(infos) == 0 {
		return "all closed"
	}
	parts := make([]string, 0, len(infos))
	for _, bi := range infos {
		parts = append(parts, fmt.Sprintf("%s=%s(%.1f)", bi.Service, bi.State, bi.Score))
	}
	return strings.Join(parts, " ")
}

// writeMetrics stores reg's current state at path, choosing the format
// by extension: .json gets the JSON exposition, anything else the
// Prometheus text format. The file is replaced atomically
// (journal.ReplaceFile), so a textfile collector reading it between two
// cycles of a long-lived watchdog never finds it empty or cut short.
func writeMetrics(path string, reg *obs.Registry) error {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	var data []byte
	if strings.HasSuffix(path, ".json") {
		var b bytes.Buffer
		if err := reg.Snapshot().WriteJSON(&b); err != nil {
			return err
		}
		data = b.Bytes()
	} else {
		data = reg.AppendPrometheus(nil)
	}
	return journal.ReplaceFile(path, data, nil)
}

// startProfiles begins a CPU profile for one cycle and returns a stop
// function that finishes it and captures a heap profile. With dir empty
// it is a no-op.
func startProfiles(dir string, cycle int, warnf func(string, ...any)) (func(), error) {
	if dir == "" {
		return func() {}, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cpu, err := os.Create(filepath.Join(dir, fmt.Sprintf("cycle%d.cpu.pprof", cycle)))
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(cpu); err != nil {
		cpu.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		cpu.Close()
		heap, err := os.Create(filepath.Join(dir, fmt.Sprintf("cycle%d.heap.pprof", cycle)))
		if err != nil {
			warnf("heap profile: %v", err)
			return
		}
		runtime.GC() // get up-to-date allocation statistics
		if err := pprof.WriteHeapProfile(heap); err != nil {
			warnf("heap profile: %v", err)
		}
		heap.Close()
	}, nil
}
