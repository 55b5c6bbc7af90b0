// Command prudentia runs the continuous fairness watchdog: it cycles
// through all service pairs in both standing network settings, applying
// the paper's trial-escalation protocol, and prints the MmF-share,
// utilization, loss, and queueing-delay heatmaps after every cycle —
// the terminal analogue of internetfairness.net.
//
// The watchdog is crash-safe: with -checkpoint it flushes completed-pair
// state to disk after every pair, SIGINT/SIGTERM stop it gracefully with
// the checkpoint intact, and -resume picks the cycle back up, skipping
// already-completed pairs while producing results identical to an
// uninterrupted run. -journal adds a write-ahead trial journal below the
// checkpoint: every executed attempt is fsynced as it completes, so even
// kill -9 loses at most the single in-flight trial and the next run
// replays the journaled remainder instead of re-simulating it.
// -max-trial-wall arms the hung-trial reaper (wall-clock budget per
// trial), -soak N runs N consecutive cycles carrying circuit-breaker
// state across them, and -chaos arms the deterministic fault-injection
// plan (link flaps, bandwidth sags, client stalls, trial panics/errors,
// result corruption, service brownouts) to exercise those defenses.
//
// -adaptive replaces the fixed trial protocol with adaptive budgets
// (docs/ADAPTIVE.md): a coarse screening pass ranks pairs by predicted
// unfairness and allocates the cycle's trial budget depth-first to the
// most contested pairs, and a sequential stopper (-ci-width,
// -min-trials) ends each pair's trials the moment its fairness verdict
// is statistically settled — same verdicts, typically ≥30% fewer
// trials. A -resume from a pre-adaptive checkpoint finishes that cycle
// with the fixed protocol.
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
// heatmaps, checkpoints, and the fault ledger are byte-identical for any
// worker count. The first SIGINT drains the trials in flight before
// flushing the checkpoint; a resumed parallel run replays identically.
//
// Usage:
//
//	prudentia -cycles 1 -quick
//	prudentia -cycles 0            # run forever (live watchdog mode)
//	prudentia -workers 8           # parallel matrix, identical output
//	prudentia -checkpoint state.json            # crash-safe cycles
//	prudentia -checkpoint state.json -resume    # continue after a kill
//	prudentia -checkpoint s.json -journal t.wal # journal: kill -9 safe
//	prudentia -soak 5 -max-trial-wall 50        # long-run supervision
//	prudentia -chaos -v                         # fault-injection run
//	prudentia -submit https://my.service/page -code <access code>
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"prudentia/internal/chaos"
	"prudentia/internal/core"
	"prudentia/internal/journal"
	"prudentia/internal/netem"
	"prudentia/internal/obs"
	"prudentia/internal/report"
	"prudentia/internal/services"
	"prudentia/internal/trace"
)

func main() {
	var (
		cycles     = flag.Int("cycles", 1, "number of full all-pairs cycles (0 = run forever)")
		quick      = flag.Bool("quick", true, "compressed trials (60s, 3-9 per pair) instead of the paper protocol")
		submit     = flag.String("submit", "", "submit a custom URL for testing (Appendix A)")
		code       = flag.String("code", "", "access code for -submit")
		setting    = flag.String("setting", "both", "highly | moderately | both")
		verbose    = flag.Bool("v", false, "per-pair progress output")
		checkpoint = flag.String("checkpoint", "", "checkpoint file: flush cycle state after every pair")
		resume     = flag.Bool("resume", false, "resume the interrupted cycle from -checkpoint")
		chaosOn    = flag.Bool("chaos", false, "arm the deterministic fault-injection plan (all classes)")
		workers    = flag.Int("workers", runtime.GOMAXPROCS(0),
			"parallel trial workers for calibrations and the pair matrix (1 = serial; output is byte-identical for any value)")
		seed       = flag.Uint64("seed", 0, "base seed for the deterministic trial-seed sequence (0 = default)")
		svcFilter  = flag.String("services", "", "comma-separated service names: restrict the catalog (exact match)")
		metricsOut = flag.String("metrics-out", "", "write the metric snapshot here after every cycle (.json = JSON, else Prometheus text)")
		timeline   = flag.String("timeline", "", "append the JSONL cycle timeline (trial/pair/checkpoint events) to this file")
		manifest   = flag.String("manifest", "", "write the run manifest here after every cycle (default: manifest.json beside -timeline)")
		pprofDir   = flag.String("pprof-dir", "", "capture cycle<N>.cpu.pprof and cycle<N>.heap.pprof profiles into this directory")
		faultsOut  = flag.String("faults-out", "", "write the robustness fault ledger as JSONL here at exit")
		journal    = flag.String("journal", "", "write-ahead trial journal: append every executed attempt (fsynced) so a crashed cycle loses at most the in-flight trial and replays the rest")
		maxWall    = flag.Float64("max-trial-wall", 0, "hung-trial reaper: wall-clock budget factor per trial (emulated duration × factor; 0 = off)")
		adaptive   = flag.Bool("adaptive", false, "adaptive trial budgets: coarse screening ranks pairs, the sequential stopper ends each pair's trials once its verdict is stable")
		ciWidth    = flag.Float64("ci-width", 0, "adaptive: stop a pair when the 95% CI on both slots' share medians is at most this many share points wide (0 = default 10)")
		minTrials  = flag.Int("min-trials", 0, "adaptive: floor below which no pair stops early (0 = default 2)")
		soak       = flag.Int("soak", 0, "soak mode: run N consecutive cycles carrying circuit-breaker state across cycles, printing breaker status after each (overrides -cycles)")

		// Sweep mode: a rate × RTT × queue × CCA parameter grid instead
		// of watchdog cycles, emitting consolidated TSV/JSON artifacts
		// (see cmd/prudentia/sweep.go and scripts/sweep.sh).
		sweepMode   = flag.Bool("sweep", false, "sweep mode: run the pair matrix of -sweep-ccas at every rate × RTT × queue grid point and write <-sweep-out>.tsv/.json instead of running cycles")
		sweepRates  = flag.String("sweep-rates", "8,50", "sweep: comma-separated bottleneck rates in Mbps")
		sweepRTTs   = flag.String("sweep-rtts", "25,50,100", "sweep: comma-separated round-trip times in ms")
		sweepQueues = flag.String("sweep-queues", "64,256", "sweep: comma-separated drop-tail queue capacities in packets")
		sweepCCAs   = flag.String("sweep-ccas", "iPerf (Cubic),iPerf (BBR),iPerf (Reno)", "sweep: comma-separated catalog service names forming the pair matrix at each grid point")
		sweepOut    = flag.String("sweep-out", "sweep", "sweep: output path prefix (writes <prefix>.tsv and <prefix>.json)")

		// Serve mode: long-running daemon — campaign scheduler plus a
		// read-optimized HTTP API over each completed cycle's artifacts
		// (internal/serve; see README "Serving").
		serveMode  = flag.Bool("serve", false, "daemon mode: run continuous cycles and serve reports/heatmaps/metrics over HTTP (-serve-addr); -cycles bounds the campaign (0 = forever)")
		serveAddr  = flag.String("serve-addr", "127.0.0.1:9080", "serve: listen address (use :0 for an ephemeral port with -serve-addr-file)")
		serveFile  = flag.String("serve-addr-file", "", "serve: write the bound address to this file once listening")
		cycleEvery = flag.Duration("cycle-interval", 10*time.Minute, "serve: pause between cycle starts (jittered per cycle; <0 = none)")
		history    = flag.Int("history", 8, "serve: completed cycles kept addressable via ?cycle=N")
		subsMax    = flag.Int("submissions-max", 64, "serve: cap on queued POST /api/v1/submissions across all tenants")
		serveDir   = flag.String("serve-dir", "", "serve: durable state directory (submission WAL, per-cycle artifacts, and — unless -checkpoint/-journal override — the cycle checkpoint and trial journal); a restarted daemon rehydrates its history, replays unapplied submissions, and resumes the interrupted cycle")
		chaosDisk  = flag.Uint64("chaos-disk", 0, "chaos: arm the seed-deterministic disk-fault plan (injected ENOSPC, torn-tail fsyncs, fsync stalls) on the durable writers with this seed (0 = off)")

		// Fleet mode: one coordinator shards the pair matrix over N
		// worker processes (prudentia.fleet/1 over TCP); the merged
		// report is byte-identical to a serial run. Coordinator and
		// workers must share the experiment flags above — the handshake
		// fingerprint rejects divergent workers.
		coordMode   = flag.Bool("coordinator", false, "fleet: shard the pair matrix over TCP workers (-listen, -expect-workers)")
		listenAddr  = flag.String("listen", "127.0.0.1:9070", "fleet coordinator listen address (use :0 for an ephemeral port with -listen-addr-file)")
		listenFile  = flag.String("listen-addr-file", "", "fleet: write the coordinator's bound address to this file once listening")
		expectWork  = flag.Int("expect-workers", 1, "fleet: wait for this many workers before the first cycle")
		partitions  = flag.Int("chaos-partitions", 0, "fleet chaos: sever up to N worker assignments (coordinator-side; the report stays byte-identical)")
		workerMode  = flag.Bool("worker", false, "fleet: execute pairs for a coordinator instead of running cycles (-connect)")
		connectAddr = flag.String("connect", "", "fleet worker: coordinator address (host:port)")
		workerName  = flag.String("worker-name", "", "fleet worker: stable name for lease accounting (default host-pid)")
	)
	flag.Parse()

	w := core.NewWatchdog()
	w.Workers = *workers
	switch {
	case strings.HasPrefix(*setting, "high"):
		w.Settings = []netem.Config{netem.HighlyConstrained()}
	case strings.HasPrefix(*setting, "mod"):
		w.Settings = []netem.Config{netem.ModeratelyConstrained()}
	}
	if *quick {
		w.Opts = core.QuickOptions(w.Settings[0])
	}
	if *seed != 0 {
		w.Opts.BaseSeed = *seed
	}
	if *chaosOn {
		plan := chaos.Default()
		w.Opts.Chaos = &plan
	}
	if *chaosDisk != 0 {
		// Disk faults ride the durable writers (checkpoint, trial
		// journal, submission WAL), not the trials, so they compose with
		// -chaos and never perturb the measurement results themselves.
		w.DiskChaos = chaos.DefaultDiskPlan(*chaosDisk)
	}
	w.Opts.WallBudget = *maxWall
	if *adaptive {
		w.Opts.Adaptive = &core.AdaptiveOptions{
			CIWidthPct: *ciWidth,
			MinTrials:  *minTrials,
		}
	}
	w.JournalPath = *journal
	soakMode := *soak > 0
	if soakMode {
		*cycles = *soak
	}
	if *svcFilter != "" {
		var keep []services.Service
		for _, name := range strings.Split(*svcFilter, ",") {
			name = strings.TrimSpace(name)
			found := false
			for _, svc := range w.Services {
				if svc.Name() == name {
					keep = append(keep, svc)
					found = true
					break
				}
			}
			if !found {
				fmt.Fprintf(os.Stderr, "prudentia: -services: unknown service %q\n", name)
				os.Exit(1)
			}
		}
		w.Services = keep
	}
	if *verbose {
		w.Progress = func(format string, args ...any) {
			fmt.Printf("  "+format+"\n", args...)
		}
	}

	// Sweep mode: run the parameter grid and exit — no cycles, no
	// checkpoints; the artifacts are the deliverable.
	if *sweepMode {
		cfg := sweepConfig{
			CCAs:    splitTrim(*sweepCCAs),
			Out:     *sweepOut,
			Workers: *workers,
			Seed:    *seed,
			Verbose: *verbose,
		}
		var err error
		if cfg.RatesMbps, err = parseSweepFloats("sweep-rates", *sweepRates); err == nil {
			if cfg.RTTsMs, err = parseSweepFloats("sweep-rtts", *sweepRTTs); err == nil {
				cfg.Queues, err = parseSweepInts("sweep-queues", *sweepQueues)
			}
		}
		if err == nil {
			err = runSweep(cfg)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "prudentia: %v\n", err)
			os.Exit(1)
		}
		return
	}

	// Fleet worker mode: serve pairs for a coordinator and exit. The
	// watchdog object is fully configured by this point, so the worker
	// derives options — and therefore trial seeds — exactly as the
	// coordinator's serial path would. Signals keep their default
	// (terminate) behaviour: a killed worker's pairs are re-dispatched.
	if *workerMode {
		if *submit != "" {
			if err := w.Submit(*submit, *code); err != nil {
				fmt.Fprintf(os.Stderr, "prudentia: %v\n", err)
				os.Exit(1)
			}
		}
		runWorker(w, *connectAddr, *workerName, *workers,
			fleetFingerprint(w, *quick, *chaosOn, *maxWall))
	}

	ledger := &trace.FaultLedger{}
	w.OnFault = ledger.Record

	// Observability sinks: metric registry, JSONL timeline, run manifest,
	// fault-ledger export. All optional; the watchdog runs uninstrumented
	// (nil Obs) when no flag asks for them.
	var reg *obs.Registry
	var tl *obs.Timeline
	manifestPath := *manifest
	if manifestPath == "" && *timeline != "" {
		manifestPath = filepath.Join(filepath.Dir(*timeline), "manifest.json")
	}
	if *metricsOut != "" || *timeline != "" || manifestPath != "" || *serveMode {
		// The daemon always carries a registry: /metrics is part of its
		// API surface.
		reg = obs.NewRegistry()
	}
	if *timeline != "" {
		var err error
		tl, err = obs.CreateTimeline(*timeline)
		if err != nil {
			fmt.Fprintf(os.Stderr, "prudentia: %v\n", err)
			os.Exit(1)
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
		if *metricsOut != "" {
			if err := writeMetrics(*metricsOut, reg); err != nil {
				fmt.Fprintf(os.Stderr, "prudentia: %v\n", err)
			}
		}
		if manifestPath != "" {
			if err := w.BuildManifest(cr, reg).Write(manifestPath); err != nil {
				fmt.Fprintf(os.Stderr, "prudentia: %v\n", err)
			}
		}
	}
	writeFaults := func() {
		if *faultsOut == "" {
			return
		}
		f, err := os.Create(*faultsOut)
		if err == nil {
			err = trace.WriteFaultsJSONL(f, ledger.Snapshot())
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "prudentia: faults-out: %v\n", err)
		}
	}
	defer writeFaults()

	// Graceful shutdown: the first SIGINT/SIGTERM requests a stop at the
	// next trial boundary (the checkpoint is flushed after every pair, so
	// nothing completed is lost); a second signal kills immediately.
	var stop atomic.Bool
	stopped := make(chan struct{})
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		stop.Store(true)
		close(stopped)
		fmt.Fprintln(os.Stderr, "prudentia: stopping at next trial boundary (signal again to kill)")
		<-sigc
		os.Exit(1)
	}()
	w.Interrupt = stop.Load

	if *checkpoint != "" {
		w.CheckpointPath = *checkpoint
		if *resume {
			found, err := w.LoadCheckpoint()
			if err != nil {
				fmt.Fprintf(os.Stderr, "prudentia: %v\n", err)
				os.Exit(1)
			}
			if found {
				fmt.Printf("resuming interrupted cycle from %s\n", *checkpoint)
				if w.Opts.Adaptive != nil && !w.StagedCheckpoint().HasBudgetState() {
					// Pre-adaptive checkpoints carry no budget
					// allocations; re-screening could change the
					// interrupted run's stopping decisions, so finish
					// this cycle with the fixed protocol instead of erroring.
					fmt.Fprintln(os.Stderr,
						"prudentia: checkpoint predates adaptive budgets; running this cycle with the fixed protocol")
					w.Opts.Adaptive = nil
				}
			} else {
				fmt.Printf("no checkpoint at %s; starting fresh\n", *checkpoint)
			}
		}
	} else if *resume {
		fmt.Fprintln(os.Stderr, "prudentia: -resume requires -checkpoint")
		os.Exit(1)
	}

	if *submit != "" {
		if err := w.Submit(*submit, *code); err != nil {
			fmt.Fprintf(os.Stderr, "prudentia: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("accepted submission %q; it joins the catalog for this run\n", *submit)
	}

	// Fleet coordinator mode: shard each setting's pair matrix over the
	// connected workers. Calibrations and canary probes stay local (they
	// are cheap and feed per-cycle admission decisions); only the pair
	// matrices fan out.
	if *coordMode {
		stopFleet := startCoordinator(w, ledger, reg, *listenAddr, *listenFile,
			*expectWork, *partitions, fleetFingerprint(w, *quick, *chaosOn, *maxWall))
		defer stopFleet()
	}

	// Serve mode: hand the fully configured engine (checkpoint, journal,
	// chaos, fleet coordinator — all compose) to the daemon and block
	// until a signal drains it. Placed after the coordinator block so
	// `-serve -coordinator` serves fleet-backed cycles.
	if *serveMode {
		if *serveDir != "" {
			// The state directory is the one-stop durability root: the
			// engine's checkpoint and trial journal default into it so a
			// plain `-serve -serve-dir d` restart resumes an interrupted
			// cycle without further flags.
			if w.CheckpointPath == "" {
				w.CheckpointPath = filepath.Join(*serveDir, "checkpoint.json")
			}
			if w.JournalPath == "" {
				w.JournalPath = filepath.Join(*serveDir, "trials.wal")
			}
		}
		err := runServe(w, ledger, reg, serveOptions{
			addr:           *serveAddr,
			addrFile:       *serveFile,
			cycleInterval:  *cycleEvery,
			history:        *history,
			submissionsMax: *subsMax,
			maxCycles:      *cycles,
			stateDir:       *serveDir,
		}, stopped, exportObs)
		if err != nil {
			fmt.Fprintf(os.Stderr, "prudentia: %v\n", err)
			os.Exit(1)
		}
		return
	}

	for cycle := 1; *cycles == 0 || cycle <= *cycles; cycle++ {
		fmt.Printf("=== cycle %d (catalog: %d services) ===\n", cycle, len(w.Services))
		stopProfiles, perr := startProfiles(*pprofDir, cycle)
		if perr != nil {
			fmt.Fprintf(os.Stderr, "prudentia: %v\n", perr)
			os.Exit(1)
		}
		cr, err := w.RunCycle()
		stopProfiles()
		if errors.Is(err, core.ErrInterrupted) {
			exportObs(nil)
			if *checkpoint != "" {
				fmt.Printf("interrupted; cycle state saved to %s (resume with -resume)\n", *checkpoint)
			} else {
				fmt.Println("interrupted (no -checkpoint set; cycle state discarded)")
			}
			return
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "prudentia: cycle %d: %v\n", cycle, err)
			os.Exit(1)
		}
		exportObs(cr)
		for si, res := range cr.PerSetting {
			printCycle(res, cr, si, w.Settings[si], w.Services)
		}
		if s := ledger.Summary(); s != "" {
			fmt.Printf("fault ledger: %s\n\n", s)
		}
		if soakMode {
			fmt.Printf("soak: cycle %d/%d complete; breakers: %s\n\n",
				cycle, *cycles, breakerSummary(w.Breakers.Status()))
		}
		if *verbose && reg != nil {
			fmt.Println(report.MetricsSummary(reg.Snapshot()))
		}
	}
}

// breakerSummary renders a breaker snapshot — the watchdog's service
// breakers in soak mode, the coordinator's worker breakers in fleet mode.
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
func startProfiles(dir string, cycle int) (func(), error) {
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
			fmt.Fprintf(os.Stderr, "prudentia: heap profile: %v\n", err)
			return
		}
		runtime.GC() // get up-to-date allocation statistics
		if err := pprof.WriteHeapProfile(heap); err != nil {
			fmt.Fprintf(os.Stderr, "prudentia: heap profile: %v\n", err)
		}
		heap.Close()
	}, nil
}

// printCycle renders one setting's text block through the shared
// byte-stable renderer (internal/report), which the serving daemon's
// /api/v1/report.txt serves verbatim — the CI serve gate byte-compares
// the two, so this must never grow a private rendering path.
func printCycle(res *core.MatrixResult, cr *core.CycleResult, si int, cfg netem.Config, svcs []services.Service) {
	fmt.Print(report.CycleText(res, cr, si, cfg, svcs))
}
