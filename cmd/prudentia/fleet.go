package main

import (
	"fmt"
	"os"
	"time"

	"prudentia/internal/chaos"
	"prudentia/internal/core"
	"prudentia/internal/fleet"
	"prudentia/internal/obs"
	"prudentia/internal/trace"
)

// Fleet mode glue. A fleet run is one coordinator process
// (-coordinator -listen addr -expect-workers N) plus N worker processes
// (-connect addr) whose flags resolve to the same recipe (fingerprint,
// config.go): the hello handshake rejects a worker that would compute
// different results. All fleet status lines go to stderr — the
// coordinator's stdout carries exactly the serial report, byte for byte.

// runWorker runs the process as a fleet worker until the coordinator
// shuts it down. Signals keep their default (terminate) behaviour: a
// killed worker's pairs are re-dispatched.
func runWorker(cfg config, logf func(string, ...any)) error {
	w := cfg.watchdog
	fp, err := fingerprint(w)
	if err != nil {
		return err
	}
	name := cfg.workerName
	if name == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	fw := &fleet.Worker{
		Name:        name,
		Coordinator: cfg.connect,
		Capacity:    w.Workers,
		Fingerprint: fp,
		Services:    w.Services,
		Settings:    w.Settings,
		Options:     w.SettingOptions,
		Progress:    logf,
	}
	return fw.Run()
}

// startCoordinator brings up the fleet listener, optionally publishes
// the bound address (for ":0" port discovery in tests and CI), waits
// for the expected fleet size, and attaches the coordinator to the
// watchdog as its remote runner. The returned cleanup shuts the fleet
// down after the last cycle.
func startCoordinator(cfg config, ledger *trace.FaultLedger, reg *obs.Registry,
	logf func(string, ...any)) (func(), error) {
	w := cfg.watchdog
	fp, err := fingerprint(w)
	if err != nil {
		return nil, err
	}
	coord := &fleet.Coordinator{
		ListenAddr:  cfg.listen,
		Fingerprint: fp,
		Breakers:    &core.BreakerSet{},
		OnFault:     ledger.Record,
		Progress:    logf,
		Obs:         fleet.NewInstruments(reg),
	}
	if cfg.chaosPartitions > 0 {
		// Coordinator-side chaos only: partitions never reach a trial,
		// so workers need no matching flag and the recipe leaves it out.
		// The report stays byte-identical regardless — partitioned
		// workers' pairs are re-executed deterministically elsewhere.
		coord.Chaos = &chaos.Config{
			Partitions: []*chaos.WorkerPartition{{Times: int64(cfg.chaosPartitions)}},
		}
	}
	if err := coord.Start(); err != nil {
		return nil, err
	}
	if cfg.listenAddrFile != "" {
		if err := os.WriteFile(cfg.listenAddrFile, []byte(coord.Addr()+"\n"), 0o644); err != nil {
			_ = coord.Close()
			return nil, fmt.Errorf("-listen-addr-file: %w", err)
		}
	}
	logf("fleet: coordinator listening on %s (fingerprint %x, expecting %d workers)",
		coord.Addr(), fp, cfg.expectWorkers)
	if err := coord.WaitForWorkers(cfg.expectWorkers, 2*time.Minute); err != nil {
		_ = coord.Close()
		return nil, err
	}
	logf("fleet: %d workers connected; starting cycles", cfg.expectWorkers)
	w.Remote = coord
	return func() {
		logf("fleet: worker breakers: %s", breakerSummary(coord.BreakerStatus()))
		_ = coord.Close()
	}, nil
}
