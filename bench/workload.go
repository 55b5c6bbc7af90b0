package main

import (
	"fmt"
	"math"
	"time"

	"prudentia/internal/core"
	"prudentia/internal/netem"
	"prudentia/internal/services"
)

// workload is one operating point of the watchdog daemon. Every
// workload has the same shape, because the contract asks every
// end-to-end metric of every workload: the daemon boots (set-up), its
// campaign runs the cycles (wall and CPU per verdict), and the
// published result is then polled and submitted to over the loopback
// (read and submit latency). The workloads differ in which layers the
// cycles exercise and in how the time is split.
type workload struct {
	name, why string
	// services restricts the catalog (nil = the ten-service throughput
	// catalog), in matrix order.
	services []string
	setting  netem.Config
	// adaptive arms Opts.Adaptive; durable gives the daemon a StateDir
	// (submission WAL, persisted artifacts); journaled gives the engine
	// a trial journal and a checkpoint in it; instruments attaches
	// core.Instruments in the untraced pass too (the traced pass always
	// does, for its counts and trial spans).
	adaptive, durable, journaled, instruments bool
	parallel                                  bool // Workers = min(nproc, 4) instead of 1
	// trialsPerPair pins the fixed protocol's depth (MinTrials =
	// MaxTrials), so that the work in a cycle does not depend on how
	// many pairs escalate from 3 to 6 or 9 trials under a given seed:
	// over ten seeds that alone spread wall_s_per_verdict by 9% on the
	// full catalog and 31% on ten pairs. 0 keeps -quick's 3..9.
	trialsPerPair int
	// cycleSeconds is what one cycle takes on the 2-core sandbox the
	// benchmark was sized on; with cycleShare it turns -seconds into a
	// whole number of cycles, so the work is a fixed function of the
	// arguments and the counts repeat exactly.
	cycleSeconds float64
	cycleShare   float64
	// readShare and besideShare are the parts of -seconds the read
	// phase and the writes-beside-reads phase last.
	readShare, besideShare float64
	submits                int
}

var lossBased = []string{"iPerf (Cubic)", "iPerf (Reno)", "Netflix", "OneDrive"}

var workloads = []workload{
	{
		name:    "cycle8_fixed",
		why:     "full 10-service catalog at 8 Mbps, fixed protocol, one worker, in-memory daemon: the representative cycle, every service model and CCA",
		setting: netem.HighlyConstrained(), trialsPerPair: 3, cycleSeconds: 7.5, cycleShare: 0.6,
		readShare: 0.25, besideShare: 0.06, submits: 6000,
	},
	{
		name:     "matrix50_lossbased",
		why:      "Cubic, Reno, Netflix, OneDrive at 50 Mbps: six times the packets per trial and no BBR, so sim, netem and transport do all the work",
		services: lossBased,
		setting:  netem.ModeratelyConstrained(), trialsPerPair: 3, cycleSeconds: 6.4, cycleShare: 0.6,
		readShare: 0.25, besideShare: 0.06, submits: 6000,
	},
	{
		name:     "cycle8_adaptive_durable",
		why:      "the 8 Mbps catalog the way the daemon runs it: adaptive budgets, journal fsync per attempt, checkpoint per pair, instruments, worker pool, durable submissions",
		setting:  netem.HighlyConstrained(),
		adaptive: true, durable: true, journaled: true, instruments: true, parallel: true,
		cycleSeconds: 3.9, cycleShare: 0.6,
		readShare: 0.25, besideShare: 0.06, submits: 6000,
	},
	{
		name:     "serve_loopback",
		why:      "durable daemon on four services at 8 Mbps: short cycles, then most of the run is loopback reads and 6000 durable submissions; the sim layers are idle while it serves",
		services: lossBased,
		setting:  netem.HighlyConstrained(),
		durable:  true, instruments: true, parallel: true, trialsPerPair: 3,
		cycleSeconds: 0.45, cycleShare: 0.14,
		readShare: 0.40, besideShare: 0.12, submits: 6000,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// scale is how much of each kind of work one run does.
type scale struct {
	cycles             int
	readDur, besideDur time.Duration
	// readWindows and submitBlock cut the read phase (by time) and the
	// write phase (by count) into the windows the reported numbers
	// are taken across; see windowed in metrics.go.
	readWindows int
	submits     int
	submitBlock int
	setupReps   int
	// minSamples is the least number of samples a traffic phase must
	// finish with for its percentiles to be reported at all.
	minSamples int
	probes     probeSize
}

func (w workload) scaleFor(seconds int) scale {
	s := float64(seconds)
	return scale{
		cycles:      max(1, int(math.Round(w.cycleShare*s/w.cycleSeconds))),
		readDur:     time.Duration(w.readShare * s * float64(time.Second)),
		besideDur:   time.Duration(w.besideShare * s * float64(time.Second)),
		readWindows: max(1, int(w.readShare*s*4)), // 250 ms each
		submits:     w.submits,
		submitBlock: 1000,
		setupReps:   121,
		minSamples:  1000,
		probes:      1,
	}
}

func (w workload) workers() int {
	if w.parallel {
		return genConns() // min(nproc, 4), the same cap the CLI's daemon would hit here
	}
	return 1
}

// runConfig is what one run of one workload is given.
type runConfig struct {
	seed    uint64
	seconds int
	traced  bool
	// outDir is bench/out: spans, profiles, and tmp/ with every journal,
	// checkpoint and StateDir (a real filesystem, not /tmp).
	outDir string
	scale  scale
}

// result is what one run reports. The whole of it is written to
// bench/out/last-<workload>-trace<0|1>.json; the contract's last line of
// standard output carries correct, attempted, failed and metrics.
type result struct {
	Workload    string      `json:"workload"`
	Seed        uint64      `json:"seed"`
	Seconds     int         `json:"seconds"`
	Traced      bool        `json:"traced"`
	Environment environment `json:"environment"`
	Correct     bool        `json:"correct"`
	Attempted   int64       `json:"attempted"`
	Failed      int64       `json:"failed"`
	Metrics     metricSet   `json:"metrics"`
	// Digest is the SHA-256 of the last cycle's text report plus
	// netem.packets_arrived and core.trials_run. The simulator is
	// deterministic, so a speed-only change must leave it identical.
	Digest string `json:"digest"`
	// Counts are the exact counts behind the digest and the ledger.
	Counts counts `json:"counts"`
	// Cycles and CycleWall are how many cycles the campaign ran and
	// the wall seconds its RunCycle calls took together; a traced run
	// computes trace.overhead_pct against the untraced run's.
	Cycles    int     `json:"cycles"`
	CycleWall float64 `json:"cycle_wall_s"`
	// Samples states the sample count behind each percentile.
	Samples map[string]int `json:"samples"`
	// PerConn lists, per traffic phase, how many requests each
	// generator connection completed.
	PerConn  map[string][]int `json:"per_conn"`
	Notes    []string         `json:"notes,omitempty"`
	Problems []string         `json:"problems,omitempty"`
}

func (r *result) problemf(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// counts are read off the cycle results (sketch statistics keep the
// summed per-trial aggregate on every pair), so they exist with or
// without instruments and repeat exactly for fixed arguments.
type counts struct {
	Verdicts        int64   `json:"verdicts"`
	TrialsRun       int64   `json:"trials_run"`
	TrialsCounted   int64   `json:"trials_counted"`
	TrialsDiscarded int64   `json:"trials_discarded"`
	TrialsFailed    int64   `json:"trials_failed"`
	PairsFailed     int64   `json:"pairs_failed"`
	PairsUnstable   int64   `json:"pairs_unstable"`
	PacketsArrived  int64   `json:"packets_arrived"`
	PacketsDropped  int64   `json:"packets_dropped"`
	PacketsDeliv    int64   `json:"packets_delivered"`
	Retransmits     int64   `json:"retransmits"`
	Timeouts        int64   `json:"timeouts"`
	JournalRecords  int64   `json:"journal_records"`
	SimSeconds      float64 `json:"sim_seconds"`
}

// newWatchdog builds the engine the way cmd/prudentia does for
// `-quick -setting ... -services ... -seed`: quick timing, sketch
// statistics, the given base seed.
func newWatchdog(names []string, setting netem.Config, seed uint64) (*core.Watchdog, error) {
	wd := core.NewWatchdog()
	wd.Settings = []netem.Config{setting}
	wd.Opts = core.QuickOptions(setting)
	wd.Opts.BaseSeed = seed
	wd.Opts.SketchStats = true
	if names != nil {
		var keep []services.Service
		for _, name := range names {
			var found services.Service
			for _, svc := range wd.Services {
				if svc.Name() == name {
					found = svc
				}
			}
			if found == nil {
				return nil, fmt.Errorf("no service %q in the catalog", name)
			}
			keep = append(keep, found)
		}
		wd.Services = keep
	}
	return wd, nil
}
