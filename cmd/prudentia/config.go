package main

import (
	"encoding/json"
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
	"prudentia/internal/fleet"
	"prudentia/internal/netem"
	"prudentia/internal/services"
)

// config is one prudentia invocation, parsed and validated once.
// parseConfig is the only code that touches package flag; the watchdog
// it configures and, through that watchdog's core.Recipe, the fleet
// fingerprint, the manifest, the sweep cells and the daemon all derive
// from this value.
type config struct {
	usage string // -h was given: the text to print instead of running

	// watchdog is the engine the experiment flags describe: catalog,
	// settings, preset, seed, fault plans, worker pool, durability paths
	// and any -submit. Flags bind straight into its fields.
	watchdog *core.Watchdog

	cycles              int
	verbose             bool
	submit              string
	metricsOut          string
	timeline, manifest  string
	pprofDir, faultsOut string

	sweep                 bool
	sweepRates, sweepRTTs []float64
	sweepQueues           []int
	sweepCCAs             []services.Service
	sweepOut              string

	serve                              bool
	serveAddr, serveAddrFile, serveDir string
	cycleInterval                      time.Duration

	coordinator                    bool
	listen, listenAddrFile         string
	expectWorkers, chaosPartitions int
	connect, workerName            string
}

// flagNeeds names, for each flag that only one mode reads, the flag that
// selects that mode; given without it the flag would be silently ignored.
var flagNeeds = map[string]string{
	"code":       "submit",
	"serve-addr": "serve", "serve-addr-file": "serve", "serve-dir": "serve", "cycle-interval": "serve",
	"listen": "coordinator", "listen-addr-file": "coordinator", "expect-workers": "coordinator", "chaos-partitions": "coordinator",
	"worker-name": "connect",
	"sweep-rates": "sweep", "sweep-rtts": "sweep", "sweep-queues": "sweep", "sweep-ccas": "sweep", "sweep-out": "sweep",
}

// flagConflicts lists pairs where the first flag's mode never reads the
// second: a worker runs no cycles of its own, the daemon profiles nothing
// per cycle and is not a sweep.
var flagConflicts = [][2]string{
	{"serve", "pprof-dir"}, {"serve", "sweep"},
	{"connect", "serve"}, {"connect", "coordinator"}, {"connect", "sweep"}, {"connect", "checkpoint"},
}

// parseConfig turns an argument vector into a validated config with its
// watchdog configured. Every error names the flag at fault.
func parseConfig(args []string) (config, error) {
	w := core.NewWatchdog()
	c := config{watchdog: w}
	var setting, svcFilter, code, rates, rtts, queues, ccas string
	var chaosOn, adaptive bool
	var chaosDisk uint64
	fs := flag.NewFlagSet("prudentia", flag.ContinueOnError)
	var usage strings.Builder
	fs.SetOutput(&usage)

	fs.IntVar(&c.cycles, "cycles", 1, "number of full all-pairs cycles (0 = run forever)")
	fs.BoolVar(&w.Quick, "quick", true, "compressed trials (60s, of which 55 are simulated; 3-9 per pair) instead of the paper protocol")
	fs.StringVar(&c.submit, "submit", "", "submit a custom URL for testing (Appendix A)")
	fs.StringVar(&code, "code", "", "access code for -submit")
	fs.StringVar(&setting, "setting", "both", "highly | moderately | both")
	fs.BoolVar(&c.verbose, "v", false, "per-pair progress output, plus circuit-breaker status after every cycle")
	fs.StringVar(&w.CheckpointPath, "checkpoint", "", "checkpoint file: keep the in-progress cycle's header here and journal every attempt beside it (at <file>.wal unless -journal names a path), so a cycle interrupted or killed -9 resumes on the next run; both files are removed when the cycle completes")
	fs.BoolVar(&chaosOn, "chaos", false, "arm the deterministic fault-injection plan (all classes)")
	fs.IntVar(&w.Workers, "workers", runtime.GOMAXPROCS(0),
		"parallel trial workers for calibrations and the pair matrix (1 = serial; output is byte-identical for any value)")
	fs.Uint64Var(&w.Opts.BaseSeed, "seed", 0, "base seed for the deterministic trial-seed sequence (0 = default)")
	fs.StringVar(&svcFilter, "services", "", "comma-separated service names: restrict the catalog (exact match)")
	fs.StringVar(&c.metricsOut, "metrics-out", "", "write the metric snapshot here after every cycle (.json = JSON, else Prometheus text)")
	fs.StringVar(&c.timeline, "timeline", "", "append the JSONL cycle timeline (trial/pair/checkpoint events) to this file")
	fs.StringVar(&c.manifest, "manifest", "", "write the run manifest here after every cycle (default: manifest.json beside -timeline)")
	fs.StringVar(&c.pprofDir, "pprof-dir", "", "capture cycle<N>.cpu.pprof and cycle<N>.heap.pprof profiles into this directory")
	fs.StringVar(&c.faultsOut, "faults-out", "", "write the robustness fault ledger as JSONL here at exit")
	fs.StringVar(&w.JournalPath, "journal", "", "write-ahead trial journal path: every executed attempt is appended (fsynced), so a crashed cycle loses at most the in-flight trial and replays the rest; overrides the <checkpoint>.wal default, or journals a run without -checkpoint")
	fs.Float64Var(&w.Opts.WallBudget, "max-trial-wall", 0, "hung-trial reaper: wall-clock budget factor per trial (simulated seconds × factor; 0 = off)")
	fs.BoolVar(&adaptive, "adaptive", false, "adaptive trial budgets: coarse screening ranks pairs, the sequential stopper ends each pair's trials once its verdict is stable")

	// Sweep mode: a rate × RTT × queue × CCA parameter grid instead of
	// watchdog cycles (sweep.go, scripts/sweep.sh).
	fs.BoolVar(&c.sweep, "sweep", false, "sweep mode: run the pair matrix of -sweep-ccas at every rate × RTT × queue grid point and write <-sweep-out>.tsv/.json instead of running cycles")
	fs.StringVar(&rates, "sweep-rates", "8,50", "sweep: comma-separated bottleneck rates in Mbps")
	fs.StringVar(&rtts, "sweep-rtts", "25,50,100", "sweep: comma-separated round-trip times in ms")
	fs.StringVar(&queues, "sweep-queues", "64,256", "sweep: comma-separated drop-tail queue capacities in packets")
	fs.StringVar(&ccas, "sweep-ccas", "iPerf (Cubic),iPerf (BBR),iPerf (Reno)", "sweep: comma-separated catalog service names forming the pair matrix at each grid point")
	fs.StringVar(&c.sweepOut, "sweep-out", "sweep", "sweep: output path prefix (writes <prefix>.tsv and <prefix>.json)")

	// Serve mode: campaign scheduler plus a read-optimized HTTP API over
	// each completed cycle's artifacts (internal/serve).
	fs.BoolVar(&c.serve, "serve", false, "daemon mode: run continuous cycles and serve reports/heatmaps/metrics over HTTP (-serve-addr); -cycles bounds the campaign (0 = forever)")
	fs.StringVar(&c.serveAddr, "serve-addr", "127.0.0.1:9080", "serve: listen address (use :0 for an ephemeral port with -serve-addr-file)")
	fs.StringVar(&c.serveAddrFile, "serve-addr-file", "", "serve: write the bound address to this file once listening")
	fs.DurationVar(&c.cycleInterval, "cycle-interval", 10*time.Minute, "serve: pause between cycle starts (jittered per cycle; <0 = none)")
	fs.StringVar(&c.serveDir, "serve-dir", "", "serve: durable state directory (submission WAL, per-cycle artifacts, and — unless -checkpoint/-journal override — the cycle checkpoint and trial journal); a restarted daemon rehydrates its history, replays unapplied submissions, and resumes the interrupted cycle")
	fs.Uint64Var(&chaosDisk, "chaos-disk", 0, "chaos: arm the seed-deterministic disk-fault plan (injected ENOSPC, torn-tail fsyncs, fsync stalls) on the durable writers with this seed (0 = off)")

	// Fleet mode: one coordinator shards the pair matrix over worker
	// processes (prudentia.fleet/1 over TCP); the handshake fingerprint
	// rejects a worker whose resolved recipe differs.
	fs.BoolVar(&c.coordinator, "coordinator", false, "fleet: shard the pair matrix over TCP workers (-listen, -expect-workers)")
	fs.StringVar(&c.listen, "listen", "127.0.0.1:9070", "fleet coordinator listen address (use :0 for an ephemeral port with -listen-addr-file)")
	fs.StringVar(&c.listenAddrFile, "listen-addr-file", "", "fleet: write the coordinator's bound address to this file once listening")
	fs.IntVar(&c.expectWorkers, "expect-workers", 1, "fleet: wait for this many workers before the first cycle")
	fs.IntVar(&c.chaosPartitions, "chaos-partitions", 0, "fleet chaos: sever up to N worker assignments (coordinator-side; the report stays byte-identical)")
	fs.StringVar(&c.connect, "connect", "", "fleet worker: execute pairs for the coordinator at this address (host:port) instead of running cycles")
	fs.StringVar(&c.workerName, "worker-name", "", "fleet worker: stable name for lease accounting (default host-pid)")

	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return config{usage: usage.String()}, nil
	} else if err != nil {
		// flag has already rendered the message and the usage.
		return c, errors.New(strings.TrimRight(usage.String(), "\n"))
	}
	if fs.NArg() > 0 {
		return c, fmt.Errorf("unexpected argument %q (flags after it would be ignored)", fs.Arg(0))
	}

	// given reports whether a flag is in effect: a mode by its value (so
	// -serve=false is off), anything else by having been set at all.
	given := map[string]bool{}
	var set []string // in flag.Visit's sorted order, so errors are stable
	fs.Visit(func(f *flag.Flag) { given[f.Name] = true; set = append(set, f.Name) })
	given["serve"], given["coordinator"], given["sweep"] = c.serve, c.coordinator, c.sweep
	given["connect"], given["submit"] = c.connect != "", c.submit != ""
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
	switch {
	case setting != "" && strings.HasPrefix("highly", setting):
		w.Settings = []netem.Config{netem.HighlyConstrained()}
	case setting != "" && strings.HasPrefix("moderately", setting):
		w.Settings = []netem.Config{netem.ModeratelyConstrained()}
	case setting == "both": // NewWatchdog's two standing settings
	default:
		return c, fmt.Errorf("-setting: %q is not highly, moderately or both", setting)
	}
	if c.cycles < 0 {
		return c, fmt.Errorf("-cycles: %d is negative (0 runs forever)", c.cycles)
	}
	if wall := w.Opts.WallBudget; !(wall >= 0) || math.IsInf(wall, 0) {
		return c, fmt.Errorf("-max-trial-wall: %g is not a finite factor >= 0", wall)
	}
	if c.manifest == "" && c.timeline != "" {
		c.manifest = filepath.Join(filepath.Dir(c.timeline), "manifest.json")
	}
	if c.sweep {
		float := func(s string) (float64, error) { return strconv.ParseFloat(s, 64) }
		var e1, e2, e3 error
		c.sweepRates, e1 = parseSweepList("sweep-rates", rates, float)
		c.sweepRTTs, e2 = parseSweepList("sweep-rtts", rtts, float)
		c.sweepQueues, e3 = parseSweepList("sweep-queues", queues, strconv.Atoi)
		if err := errors.Join(e1, e2, e3); err != nil {
			return c, err
		}
		for _, name := range splitTrim(ccas) {
			svc := services.ByName(name)
			if svc == nil {
				return c, fmt.Errorf("-sweep-ccas: unknown service %q", name)
			}
			c.sweepCCAs = append(c.sweepCCAs, svc)
		}
		if len(c.sweepCCAs) == 0 {
			return c, errors.New("-sweep-ccas: names no service")
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

// fingerprint hashes the watchdog's resolved recipe — the same value the
// manifest embeds — for the fleet handshake: a worker is admitted for
// what it would compute, whatever flags it was started with.
func fingerprint(w *core.Watchdog) (uint64, error) {
	blob, err := json.Marshal(w.Recipe())
	if err != nil {
		return 0, fmt.Errorf("fleet fingerprint: %w", err)
	}
	return fleet.Fingerprint(fleet.Schema, string(blob)), nil
}
