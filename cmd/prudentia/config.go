package main

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"prudentia/internal/chaos"
	"prudentia/internal/core"
	"prudentia/internal/netem"
	"prudentia/internal/sim"
)

// config is one prudentia invocation, parsed and validated once.
// parseConfig, with parsePair for the `pair` subcommand, is the only code
// that touches package flag; the watchdog it configures and, through
// that watchdog's core.Recipe, the manifest, the sweep grid and the
// daemon all derive from this value.
type config struct {
	usage string // -h was given: the text to print instead of running

	// pair is set by the `pair` subcommand (pair.go): one pair measured
	// instead of watchdog cycles; nothing below it is.
	pair *pairConfig

	// watchdog is the engine the experiment flags describe: catalog,
	// settings, preset, seed, fault plans, worker pool, durability paths
	// and any -submit. Flags bind straight into its fields.
	watchdog *core.Watchdog

	cycles  int
	verbose bool
	submit  string

	// dir is the run directory, where every file a run writes lives: the
	// cycle header and trial journal (the watchdog's CheckpointPath and
	// JournalPath), the timeline, the manifest, the metric exposition and
	// the fault ledger, a sweep's artifacts, and under -serve the
	// daemon's state and its bound address.
	dir string

	// sweep replaces the report with <dir>/sweep.tsv and sweep.json; the
	// grid is also the watchdog's Settings, in the same order (sweep.go).
	sweep     bool
	sweepGrid []gridPoint

	serve         bool
	serveAddr     string
	cycleInterval time.Duration
}

// flagNeeds names, for each flag that only one mode reads, the flag that
// selects that mode; given without it the flag would be silently ignored.
var flagNeeds = map[string]string{
	"code":       "submit",
	"serve-addr": "serve", "cycle-interval": "serve",
	"sweep-rates": "sweep", "sweep-rtts": "sweep", "sweep-queues": "sweep",
}

// flagConflicts lists pairs where the first flag's mode never reads the
// second: the daemon is not a sweep, and a sweep is one cycle over its
// own settings.
var flagConflicts = [][2]string{
	{"serve", "sweep"},
	{"sweep", "cycles"}, {"sweep", "setting"},
}

// parseConfig turns an argument vector into a validated config with its
// watchdog configured, or, when the first argument is `pair`, into a
// pair subcommand. Every error names the flag at fault.
func parseConfig(args []string) (config, error) {
	if len(args) > 0 && args[0] == "pair" {
		return parsePair(args[1:])
	}
	w := core.NewWatchdog()
	c := config{watchdog: w}
	var setting, svcFilter, code, rates, rtts, queues string
	var chaosOn, adaptive bool
	var chaosDisk uint64
	fs := flag.NewFlagSet("prudentia", flag.ContinueOnError)

	fs.IntVar(&c.cycles, "cycles", 1, "number of full all-pairs cycles (0 = run forever)")
	fs.BoolVar(&w.Quick, "quick", true, "compressed trials (60s, of which 55 are simulated; 3-9 per pair) instead of the paper protocol")
	fs.StringVar(&c.submit, "submit", "", "submit a custom URL for testing (Appendix A)")
	fs.StringVar(&code, "code", "", "access code for -submit")
	fs.StringVar(&setting, "setting", "both", "highly | moderately | both")
	fs.BoolVar(&c.verbose, "v", false, "per-pair progress output, plus circuit-breaker status after every cycle")
	fs.StringVar(&c.dir, "dir", "", "run directory: checkpoint.json and trials.wal hold the in-progress cycle, every attempt fsynced, so a run interrupted or killed -9 resumes on the next run with the same -dir (both are removed when the cycle completes); timeline.jsonl is rewritten on each start, manifest.json and metrics.prom (Prometheus text) after every cycle and faults.jsonl at exit; -sweep writes sweep.tsv and sweep.json here, and -serve keeps subs.wal, cycles/<N>/ and the bound address in addr")
	fs.BoolVar(&chaosOn, "chaos", false, "arm the deterministic fault-injection plan: link flaps, bandwidth sags, client stalls, trial panics/errors and result corruption")
	fs.IntVar(&w.Workers, "workers", runtime.GOMAXPROCS(0),
		"parallel trial workers for calibrations and the pair matrix (1 = serial; output is byte-identical for any value)")
	fs.Uint64Var(&w.Opts.BaseSeed, "seed", 0, "base seed for the deterministic trial-seed sequence (0 = default)")
	fs.StringVar(&svcFilter, "services", "", "comma-separated service names: restrict the catalog (exact match; -sweep defaults to "+sweepServices+")")
	fs.Float64Var(&w.Opts.WallBudget, "max-trial-wall", 0, "hung-trial reaper: wall-clock budget factor per trial (simulated seconds × factor; 0 = off)")
	fs.BoolVar(&adaptive, "adaptive", false, "adaptive trial budgets: coarse screening ranks pairs, the sequential stopper ends each pair's trials once its verdict is stable")

	// Sweep mode: one cycle whose settings are a rate × RTT × queue grid
	// (sweep.go, scripts/sweep.sh).
	fs.BoolVar(&c.sweep, "sweep", false, "sweep mode: run one cycle whose settings are the rate × RTT × queue grid and write <-dir>/sweep.tsv and sweep.json instead of the report")
	fs.StringVar(&rates, "sweep-rates", "8,50", "sweep: comma-separated bottleneck rates in Mbps")
	fs.StringVar(&rtts, "sweep-rtts", "25,50,100", "sweep: comma-separated round-trip times in ms")
	fs.StringVar(&queues, "sweep-queues", "64,256", "sweep: comma-separated drop-tail queue capacities in packets")

	// Serve mode: campaign scheduler plus a read-optimized HTTP API over
	// each completed cycle's artifacts (internal/serve).
	fs.BoolVar(&c.serve, "serve", false, "daemon mode: run continuous cycles and serve reports/heatmaps/metrics over HTTP (-serve-addr); -cycles bounds the campaign (0 = forever)")
	fs.StringVar(&c.serveAddr, "serve-addr", "127.0.0.1:9080", "serve: listen address (:0 picks an ephemeral port; the bound address is logged, and written to <-dir>/addr)")
	fs.DurationVar(&c.cycleInterval, "cycle-interval", 10*time.Minute, "serve: pause between cycle starts (jittered per cycle; <0 = none)")
	fs.Uint64Var(&chaosDisk, "chaos-disk", 0, "chaos: arm the seed-deterministic disk-fault plan (injected ENOSPC, torn-tail fsyncs, fsync stalls) on the durable writers with this seed (0 = off)")

	if usage, err := parseFlags(fs, args); usage != "" || err != nil {
		return config{usage: usage}, err
	}

	// given reports whether a flag is in effect: a mode by its value (so
	// -serve=false is off), anything else by having been set at all.
	given := map[string]bool{}
	var set []string // in flag.Visit's sorted order, so errors are stable
	fs.Visit(func(f *flag.Flag) { given[f.Name] = true; set = append(set, f.Name) })
	given["serve"], given["sweep"], given["submit"] = c.serve, c.sweep, c.submit != ""
	for _, name := range set {
		if mode, ok := flagNeeds[name]; ok && !given[mode] {
			return c, fmt.Errorf("-%s does nothing without -%s", name, mode)
		}
	}
	for _, p := range flagConflicts {
		if given[p[0]] && given[p[1]] {
			return c, fmt.Errorf("-%s cannot be combined with -%s", p[1], p[0])
		}
	}
	if net, ok := standingSetting(setting); ok {
		w.Settings = []netem.Config{net}
	} else if setting != "both" { // both: NewWatchdog's two standing settings
		return c, fmt.Errorf("-setting: %q is not highly, moderately or both", setting)
	}
	if c.cycles < 0 {
		return c, fmt.Errorf("-cycles: %d is negative (0 runs forever)", c.cycles)
	}
	if wall := w.Opts.WallBudget; !(wall >= 0) || math.IsInf(wall, 0) {
		return c, fmt.Errorf("-max-trial-wall: %g is not a finite factor >= 0", wall)
	}
	if c.sweep && c.dir == "" {
		return c, errors.New("-sweep writes sweep.tsv and sweep.json into the run directory: give it -dir")
	}
	if c.dir != "" {
		w.CheckpointPath = filepath.Join(c.dir, "checkpoint.json")
		w.JournalPath = filepath.Join(c.dir, "trials.wal")
	}
	if c.sweep {
		float := func(s string) (float64, error) { return strconv.ParseFloat(s, 64) }
		rateList, e1 := parseSweepList("sweep-rates", rates, float)
		rttList, e2 := parseSweepList("sweep-rtts", rtts, float)
		queueList, e3 := parseSweepList("sweep-queues", queues, strconv.Atoi)
		if err := errors.Join(e1, e2, e3); err != nil {
			return c, err
		}
		// Rate-major, then RTT, then queue: the order of the artifacts' cells.
		w.Settings = nil
		for _, rate := range rateList {
			for _, rtt := range rttList {
				for _, queue := range queueList {
					c.sweepGrid = append(c.sweepGrid, gridPoint{rate, rtt, queue})
					w.Settings = append(w.Settings, netem.Config{
						RateBps:       int64(rate * 1e6),
						RTT:           sim.Time(rtt * float64(sim.Millisecond)),
						QueueCapacity: queue,
					})
				}
			}
		}
		if svcFilter == "" {
			svcFilter = sweepServices
		}
	}
	if chaosOn {
		plan := chaos.Default()
		w.Opts.Chaos = &plan
	}
	if adaptive {
		w.Opts.Adaptive = &core.AdaptiveOptions{}
	}
	if chaosDisk != 0 {
		// Disk faults ride the durable writers (checkpoint, trial
		// journal, submission WAL), not the trials, so they compose with
		// -chaos and never perturb the measurement results themselves.
		w.DiskChaos = chaos.DefaultDiskPlan(chaosDisk)
	}
	if keep := splitTrim(svcFilter); len(keep) > 0 {
		catalog := w.Services
		w.Services = nil
	next:
		for _, name := range keep {
			for _, svc := range catalog {
				if svc.Name() == name {
					w.Services = append(w.Services, svc)
					continue next
				}
			}
			return c, fmt.Errorf("-services: unknown service %q", name)
		}
	}
	if c.submit != "" {
		if err := w.Submit(c.submit, code); err != nil {
			return c, fmt.Errorf("-submit: %w", err)
		}
	}
	return c, nil
}

// parseFlags parses args into fs. -h returns the usage text to print
// instead of running; an unknown flag, a bad value or a positional
// argument is an error.
func parseFlags(fs *flag.FlagSet, args []string) (usage string, err error) {
	var out strings.Builder
	fs.SetOutput(&out)
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return out.String(), nil
	} else if err != nil {
		// flag has already rendered the message and the usage.
		return "", errors.New(strings.TrimRight(out.String(), "\n"))
	}
	if fs.NArg() > 0 {
		return "", fmt.Errorf("unexpected argument %q (flags after it would be ignored)", fs.Arg(0))
	}
	return "", nil
}

// standingSetting resolves a -setting value naming one of the paper's
// two standing settings, by any non-empty prefix of its name.
func standingSetting(s string) (netem.Config, bool) {
	switch {
	case s != "" && strings.HasPrefix("highly", s):
		return netem.HighlyConstrained(), true
	case s != "" && strings.HasPrefix("moderately", s):
		return netem.ModeratelyConstrained(), true
	}
	return netem.Config{}, false
}

// splitTrim splits a comma-separated flag into trimmed, non-empty entries.
func splitTrim(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

// parseSweepList parses a comma-separated grid axis of finite values > 0.
func parseSweepList[T int | float64](flagName, s string, parse func(string) (T, error)) ([]T, error) {
	var out []T
	for _, f := range strings.Split(s, ",") {
		v, err := parse(strings.TrimSpace(f))
		if err != nil || !(v > 0) || math.IsInf(float64(v), 0) {
			return nil, fmt.Errorf("-%s: bad value %q", flagName, f)
		}
		out = append(out, v)
	}
	return out, nil
}
