// Command prudentia runs the continuous fairness watchdog: it cycles
// through all service pairs in both standing network settings, applying
// the paper's trial-escalation protocol with each setting's own stopping
// tolerance, and prints the MmF-share, utilization, loss, and
// queueing-delay heatmaps after every cycle — the terminal analogue of
// internetfairness.net.
//
// An invocation is parsed and validated once into one config value
// (config.go) that the watchdog, the manifest recipe, the sweep grid and
// the daemon all derive from; a flag the selected mode would ignore is an
// error, not a no-op.
//
// A run's record lives in one directory. With -dir d the watchdog is
// crash-safe: it keeps the cycle's header in d/checkpoint.json (the
// cycle number, recipe and starting breakers) and fsyncs every executed
// attempt to the write-ahead trial journal d/trials.wal as it completes.
// SIGINT/SIGTERM stop it gracefully, a kill -9 loses at most the one
// in-flight trial, and either way the next run with the same -dir
// resumes the cycle by replaying the journal instead of re-simulating
// it, with a report and fault ledger identical to an uninterrupted run
// of the resuming invocation. Both stay after the cycle: a rerun of the
// same recipe replays it. The directory also holds the JSONL timeline
// (d/timeline.jsonl, rewritten by each invocation), and the run manifest,
// the Prometheus exposition of its metrics and the cycle's fault ledger
// (d/manifest.json, d/metrics.prom and d/faults.jsonl, replaced after
// every cycle); under -serve it is also the
// daemon's state directory, and d/addr holds the bound listen address.
// -max-trial-wall arms the hung-trial reaper, circuit-breaker state
// carries across the cycles of one run (-v prints it after each), and
// -chaos arms the deterministic fault-injection plan (link flaps,
// bandwidth sags, client stalls, trial panics/errors, result
// corruption) to exercise those defenses.
//
// -adaptive replaces the fixed trial protocol with adaptive budgets
// (docs/ADAPTIVE.md): a coarse screening pass ranks pairs by predicted
// unfairness and allocates the cycle's trial budget depth-first to the
// most contested pairs, and a sequential stopper ends each pair's
// trials the moment its fairness verdict is statistically settled —
// same verdicts, typically ≥30% fewer trials. A cycle interrupted
// under one protocol resumes under the other as if it had run that way
// from the start.
//
// Per-pair statistics accumulate in sketches that keep every counted
// trial's sample (ARCHITECTURE.md, "Statistics pipeline"):
// medians/CIs bit-identical to order statistics over the raw samples
// at any trial count. -sweep runs one cycle whose settings are a
// rate × RTT × queue grid (-sweep-rates, -sweep-rtts, -sweep-queues)
// over the -services catalog, and writes it as consolidated TSV/JSON
// artifacts (d/sweep.tsv and d/sweep.json, so a sweep needs -dir)
// instead of the report; every other cycle flag means what it means
// for a cycle, and scripts/sweep.sh wraps it.
//
// -workers N (default GOMAXPROCS) fans calibrations and pair trials out
// to a worker pool; every trial owns a private simulation engine and
// emulated testbed, and completed work is merged in canonical order, so
// heatmaps, reports, and the fault ledger are byte-identical for any
// worker count. The first SIGINT drains the trials in flight before
// flushing the checkpoint; a resumed parallel run replays identically.
//
// `prudentia pair` measures one service pair in one setting instead,
// through the same §3.4 protocol path, and prints what a cycle would
// record for it; -out exports its first counted trial's queue and
// throughput series (pair.go).
//
// Usage:
//
//	prudentia -cycles 1 -quick
//	prudentia -cycles 0            # run forever (live watchdog mode)
//	prudentia -workers 8           # parallel matrix, identical output
//	prudentia -dir run                          # kill -9 safe; rerun to resume
//	prudentia -cycles 5 -v -max-trial-wall 50   # long-run supervision
//	prudentia -chaos -v -dir run                # fault-injection run; ledger in run/faults.jsonl
//	prudentia -submit https://my.service/page -code <access code>
//	prudentia -sweep -sweep-rates 8,50 -dir sweep.run  # one cycle over a grid
//	prudentia pair -incumbent YouTube -contender Mega -setting highly -trials 3 -out dir
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

// run executes one validated invocation: a pair, or watchdog cycles
// (batch, sweep, or behind the -serve daemon). stdout carries the
// comparable report and nothing else; status and warnings go to stderr,
// and every failure is the returned error.
func run(cfg config, stdout, stderr io.Writer) error {
	if cfg.usage != "" {
		fmt.Fprint(stderr, cfg.usage)
		return nil
	}
	if cfg.pair != nil {
		return runPair(cfg.pair, stdout)
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

	// Observability sinks: metric registry, and in the run directory the
	// JSONL timeline, run manifest, metric exposition and fault-ledger
	// export. The watchdog runs uninstrumented (nil Obs) without -dir.
	// The daemon always carries a registry: /metrics is part of its API
	// surface.
	var reg *obs.Registry
	var tl *obs.Timeline
	if cfg.dir != "" || cfg.serve {
		reg = obs.NewRegistry()
	}
	if cfg.dir != "" {
		// Creating the timeline creates the directory, before the
		// watchdog writes its header and journal there.
		var err error
		if tl, err = obs.CreateTimeline(filepath.Join(cfg.dir, "timeline.jsonl")); err != nil {
			return err
		}
		defer tl.Close()
	}
	if reg != nil {
		w.Obs = core.NewInstruments(reg, tl)
	}
	// exportObs writes the manifest and the Prometheus exposition of the
	// metrics into the run directory, and after a completed cycle its
	// fault ledger; called after every cycle (and on interrupt, with
	// cr == nil, which leaves the last ledger) so a killed watchdog still
	// leaves reconciliation artifacts behind. Every file is replaced whole
	// (journal.ReplaceFile), so a textfile collector reading metrics.prom
	// between two cycles never finds it empty or cut short.
	exportObs := func(cr *core.CycleResult) {
		if cfg.dir == "" {
			return
		}
		if err := w.BuildManifest(cr, reg).Write(filepath.Join(cfg.dir, "manifest.json")); err != nil {
			warnf("%v", err)
		}
		if err := journal.ReplaceFile(filepath.Join(cfg.dir, "metrics.prom"), reg.AppendPrometheus(nil), nil); err != nil {
			warnf("%v", err)
		}
		if cr != nil {
			var faults bytes.Buffer
			err := trace.WriteFaultsJSONL(&faults, cr.Faults)
			if err == nil {
				err = journal.ReplaceFile(filepath.Join(cfg.dir, "faults.jsonl"), faults.Bytes(), nil)
			}
			if err != nil {
				warnf("fault ledger: %v", err)
			}
		}
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

	// The batch loop counts from the cycle RunCycle resumes, even one past
	// -cycles. Under -serve the daemon's rehydration (AdvanceTo) moves it.
	first := 1
	if w.CheckpointPath != "" && !cfg.serve {
		n, err := w.Resumes()
		switch {
		case err != nil:
			return err
		case n > 0:
			first = n
			fmt.Fprintf(stdout, "resuming cycle %d from %s\n", n, w.CheckpointPath)
		default:
			fmt.Fprintf(stdout, "no cycle to resume at %s; starting fresh\n", w.CheckpointPath)
		}
	}
	if cfg.submit != "" {
		fmt.Fprintf(stdout, "accepted submission %q; it joins the catalog for this run\n", cfg.submit)
	}

	if cfg.serve {
		return runServe(ctx, cfg, reg, exportObs, stdout)
	}

	for cycle := first; cfg.cycles == 0 || cycle <= max(cfg.cycles, first); cycle++ {
		if !cfg.sweep {
			fmt.Fprint(stdout, report.CycleBanner(cycle, len(w.Services)))
		}
		cr, err := w.RunCycle()
		if errors.Is(err, core.ErrInterrupted) {
			exportObs(nil)
			if cfg.dir != "" {
				fmt.Fprintf(stdout, "interrupted; cycle state saved in %s (rerun with the same -dir to resume)\n", cfg.dir)
			} else {
				fmt.Fprintln(stdout, "interrupted (no -dir set; cycle state discarded)")
			}
			return nil
		}
		if err != nil {
			return fmt.Errorf("cycle %d: %w", cycle, err)
		}
		exportObs(cr)
		if cfg.sweep { // one cycle, its grid cells rendered as artifacts
			return writeSweep(cfg, cr, stdout)
		}
		// The shared byte-stable renderer (internal/report) is the one
		// the daemon's /api/v1/report.txt serves verbatim — the CI serve
		// gate byte-compares the two, so no private rendering path here.
		for si, res := range cr.PerSetting {
			fmt.Fprint(stdout, report.CycleText(res, cr, si, w.Settings[si], w.Services))
		}
		if s := trace.Summary(cr.Faults); s != "" {
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

// breakerSummary renders the watchdog's service breakers for -v.
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
