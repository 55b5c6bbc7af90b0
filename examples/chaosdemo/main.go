// Chaosdemo: the watchdog under fire. Runs a 3-service matrix with
// every chaos fault class enabled — link flaps, bandwidth sags, client
// stalls, trial panics, injected errors, and result corruption — and
// prints the retry/quarantine/checkpoint ledger showing how the
// scheduler absorbed each fault without aborting the matrix. Running it
// twice with the same seed produces the identical ledger: faults are
// part of the experiment, not nondeterminism.
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"

	"prudentia/internal/chaos"
	"prudentia/internal/core"
	"prudentia/internal/netem"
	"prudentia/internal/report"
	"prudentia/internal/services"
	"prudentia/internal/sim"
	"prudentia/internal/trace"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	net := netem.HighlyConstrained()
	opts := core.QuickOptions(net)
	opts.MinTrials, opts.MaxTrials, opts.Step = 2, 4, 2
	opts.ToleranceMbps = 50
	opts.Timing = func(s core.Spec) core.Spec {
		s.Duration, s.Warmup, s.Cooldown = 30*sim.Second, 5*sim.Second, 2*sim.Second
		return s
	}

	// Every fault class, hot enough to fire constantly in 30 s trials
	// (28 simulated: a trial stops where its window closes).
	opts.Chaos = &chaos.Config{
		FlapMeanGap:  8 * sim.Second,
		FlapMeanLen:  300 * sim.Millisecond,
		FluctMeanGap: 6 * sim.Second,
		FluctMeanLen: 1500 * sim.Millisecond,
		FluctMinFrac: 0.25,
		StallMeanGap: 8 * sim.Second,
		StallMeanLen: 700 * sim.Millisecond,
		PanicRate:    0.12,
		ErrorRate:    0.08,
		CorruptRate:  0.10,
	}

	ledger := &trace.FaultLedger{}
	ckpt := filepath.Join(os.TempDir(), fmt.Sprintf("chaosdemo-%d.json", os.Getpid()))
	defer os.Remove(ckpt)

	wd := &core.Watchdog{
		Services: []services.Service{
			services.ByName("iPerf (Reno)"),
			services.ByName("iPerf (Cubic)"),
			services.ByName("iPerf (BBR)"),
		},
		Settings:       []netem.Config{net},
		Opts:           opts,
		CheckpointPath: ckpt,
		OnFault:        ledger.Record,
		Progress: func(format string, args ...any) {
			fmt.Fprintf(w, "  "+format+"\n", args...)
		},
	}

	fmt.Fprintln(w, "chaosdemo: 3-service matrix, every fault class armed")
	cr, err := wd.RunCycle()
	if err != nil {
		return err
	}
	res := cr.PerSetting[0]

	fmt.Fprintln(w)
	fmt.Fprintln(w, report.Heatmap("MmF share % under chaos (×× = quarantined)",
		res.Names,
		func(inc, cont string) (float64, bool) { return res.SharePct(inc, cont) },
		".0f"))

	fmt.Fprintf(w, "fault ledger: %s\n", ledger.Summary())
	fmt.Fprintln(w, "events:")
	for _, ev := range ledger.Events {
		fmt.Fprintf(w, "  [%-10s] %-28s attempt %2d seed %d  %s\n",
			ev.Kind, ev.Pair, ev.Attempt, ev.Seed, ev.Detail)
	}
	var retries, discards, corrupt int
	for _, p := range res.Pairs {
		retries += p.Retries
		discards += p.Discards
		corrupt += p.Corrupt
	}
	fmt.Fprintf(w, "\ntotals: %d retries, %d discards, %d corrupt results gated, %d pairs quarantined\n",
		retries, discards, corrupt, len(res.FailedPairs()))
	fmt.Fprintf(w, "checkpoint flushed to %s, every attempt journaled to %s.wal (both removed on completion)\n", ckpt, ckpt)
	return nil
}
