package main

import (
	"fmt"
	"os"
	"time"

	"prudentia/internal/chaos"
	"prudentia/internal/core"
	"prudentia/internal/fleet"
	"prudentia/internal/netem"
	"prudentia/internal/obs"
	"prudentia/internal/trace"
)

// Fleet mode glue. A fleet run is one coordinator process
// (-coordinator -listen addr -expect-workers N) plus N worker processes
// (-worker -connect addr), each started with the SAME experiment flags
// (-services, -setting, -seed, -quick, -chaos, -max-trial-wall): the
// configuration fingerprint in the hello handshake rejects workers
// whose flags diverge, because they would compute silently different
// results. All fleet status lines go to stderr — the coordinator's
// stdout carries exactly the serial report, byte for byte.

// fleetStderr is the Progress hook for fleet components: membership and
// re-dispatch chatter belongs on stderr, never in the comparable report.
func fleetStderr(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "prudentia: "+format+"\n", args...)
}

// fleetFingerprint hashes everything that determines a trial's bytes:
// the catalog (names, in order), the network settings, the seed, and
// the mode flags that alter options. Derived from the resolved watchdog
// config rather than raw flags so -services filtering is included.
func fleetFingerprint(w *core.Watchdog, quick, chaosOn bool, maxWall float64) uint64 {
	parts := []string{
		fleet.Schema,
		fmt.Sprintf("seed=%d", w.Opts.BaseSeed),
		fmt.Sprintf("quick=%v", quick),
		fmt.Sprintf("chaos=%v", chaosOn),
		fmt.Sprintf("wall=%g", maxWall),
		// The outcome's wire shape: an older worker run with
		// -exact-stats ships raw trials instead and is rejected here.
		"stats=sketch",
	}
	if ad := w.Opts.Adaptive; ad != nil {
		// Adaptive stopping parameters change every pair's trial count,
		// so a worker with divergent (or absent) adaptive flags would
		// compute different bytes. Appended only when armed, so
		// fixed-budget fingerprints match pre-adaptive builds.
		parts = append(parts, fmt.Sprintf("adaptive=%d:%g:%d:%g:%d:%g",
			ad.MinTrials, ad.CIWidthPct, ad.StableK, ad.FairSharePct,
			ad.ScreenTrials, ad.BudgetFrac))
	}
	for _, svc := range w.Services {
		parts = append(parts, "svc:"+svc.Name())
	}
	for _, cfg := range w.Settings {
		parts = append(parts, settingFingerprint(cfg))
	}
	return fleet.Fingerprint(parts...)
}

// settingFingerprint renders one netem.Config's identity-bearing
// fields. Noise is dereferenced (a pointer would render its address,
// which differs per process and would falsely reject every worker).
func settingFingerprint(cfg netem.Config) string {
	noise := "none"
	if cfg.Noise != nil {
		noise = fmt.Sprintf("%+v", *cfg.Noise)
	}
	return fmt.Sprintf("net:%d:%v:%d:%d:%s:%v",
		cfg.RateBps, cfg.RTT, cfg.QueueCapacity, cfg.BufferBDP, noise, cfg.NoJitter)
}

// runWorker runs the process as a fleet worker until the coordinator
// shuts it down; it never returns to the cycle loop.
func runWorker(w *core.Watchdog, connect, name string, capacity int, fp uint64) {
	if connect == "" {
		fmt.Fprintln(os.Stderr, "prudentia: -worker requires -connect host:port")
		os.Exit(1)
	}
	if name == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	fw := &fleet.Worker{
		Name:        name,
		Coordinator: connect,
		Capacity:    capacity,
		Fingerprint: fp,
		Services:    w.Services,
		Settings:    w.Settings,
		Options:     w.SettingOptions,
		Progress:    fleetStderr,
	}
	if err := fw.Run(); err != nil {
		fmt.Fprintf(os.Stderr, "prudentia: %v\n", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// startCoordinator brings up the fleet listener, optionally publishes
// the bound address (for ":0" port discovery in tests and CI), waits
// for the expected fleet size, and attaches the coordinator to the
// watchdog as its remote runner. The returned cleanup shuts the fleet
// down after the last cycle.
func startCoordinator(w *core.Watchdog, ledger *trace.FaultLedger, reg *obs.Registry,
	listen, addrFile string, expect, partitions int, fp uint64) func() {
	coord := &fleet.Coordinator{
		ListenAddr:  listen,
		Fingerprint: fp,
		Breakers:    &core.BreakerSet{},
		OnFault:     ledger.Record,
		Progress:    fleetStderr,
		Obs:         fleet.NewInstruments(reg),
	}
	if partitions > 0 {
		// Coordinator-side chaos only: partitions never reach a trial,
		// so workers need no matching flag and the fingerprint ignores
		// it. The report stays byte-identical regardless — partitioned
		// workers' pairs are re-executed deterministically elsewhere.
		coord.Chaos = &chaos.Config{
			Partitions: []*chaos.WorkerPartition{{Times: int64(partitions)}},
		}
	}
	if err := coord.Start(); err != nil {
		fmt.Fprintf(os.Stderr, "prudentia: %v\n", err)
		os.Exit(1)
	}
	if addrFile != "" {
		if err := os.WriteFile(addrFile, []byte(coord.Addr()+"\n"), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "prudentia: write -listen-addr-file: %v\n", err)
			os.Exit(1)
		}
	}
	fleetStderr("fleet: coordinator listening on %s (fingerprint %x, expecting %d workers)",
		coord.Addr(), fp, expect)
	if err := coord.WaitForWorkers(expect, 2*time.Minute); err != nil {
		fmt.Fprintf(os.Stderr, "prudentia: %v\n", err)
		os.Exit(1)
	}
	fleetStderr("fleet: %d workers connected; starting cycles", expect)
	w.Remote = coord
	return func() {
		fleetStderr("fleet: worker breakers: %s", breakerSummary(coord.BreakerStatus()))
		_ = coord.Close()
	}
}
