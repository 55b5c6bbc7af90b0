package main

// Serve-mode wiring: a serve.Server over the configured watchdog, run
// until the signal handler asks for a graceful stop. The daemon mirrors
// each completed cycle's batch report to stdout through the same
// renderer its /api/v1/report.txt serves, so daemon logs and daemon
// responses are byte-interchangeable with a batch run at the same seed.

import (
	"context"
	"fmt"
	"io"
	"net"
	"path/filepath"

	"prudentia/internal/core"
	"prudentia/internal/journal"
	"prudentia/internal/obs"
	"prudentia/internal/report"
	"prudentia/internal/serve"
	"prudentia/internal/trace"
)

// runServe boots the daemon and blocks until ctx is cancelled (first
// SIGINT/SIGTERM) and the HTTP server drains, or a cycle fails.
func runServe(ctx context.Context, cfg config, reg *obs.Registry,
	exportObs func(*core.CycleResult), stdout io.Writer) error {
	w := cfg.watchdog
	s, err := serve.New(serve.Config{
		Source:        w,
		Registry:      reg,
		CycleInterval: cfg.cycleInterval,
		MaxCycles:     cfg.cycles,
		StateDir:      cfg.dir,
		DiskChaos:     w.DiskChaos,
		Log: func(format string, args ...any) {
			fmt.Fprintf(stdout, format+"\n", args...)
		},
		OnCycle: func(cr *core.CycleResult) {
			exportObs(cr)
			// Mirror the batch report to stdout, bytes for bytes.
			fmt.Fprint(stdout, report.ReportText(cr, w.Settings, w.Services, trace.Summary(cr.Faults)))
		},
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", cfg.serveAddr)
	if err != nil {
		return err
	}
	// A poller of <dir>/addr (an ephemeral -serve-addr :0) sees the
	// whole address or none: the file is replaced, never written in place.
	if cfg.dir != "" {
		if err := journal.ReplaceFile(filepath.Join(cfg.dir, "addr"), []byte(ln.Addr().String()+"\n"), nil); err != nil {
			ln.Close()
			return err
		}
	}
	return s.Run(ctx, ln)
}
