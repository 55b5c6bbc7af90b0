package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"prudentia/internal/core"
	"prudentia/internal/netem"
	"prudentia/internal/obs"
	"prudentia/internal/report"
	"prudentia/internal/services"
	"prudentia/internal/sim"
	"prudentia/internal/trace"
)

// Pair mode: `prudentia pair` measures one service pair in one network
// setting and prints what a watchdog cycle would record for it. The pair
// runs through core.RunPair, the §3.4 protocol path prudentia.Run
// and every cycle take (hashed per-attempt seeds, discard re-runs, the
// validity gate, retries), with options resolved as prudentia.Run
// resolves them, so the same flags give the same medians on every
// surface.

// pairConfig is one validated `prudentia pair` invocation.
type pairConfig struct {
	incumbent, contender services.Service // contender nil = solo run
	net                  netem.Config
	opts                 core.SchedulerOptions
	outDir               string
	list                 bool
}

// parsePair parses the arguments after `pair`. Every error names the
// flag at fault.
func parsePair(args []string) (config, error) {
	var pc pairConfig
	var inc, cont, setting string
	var mbps float64
	var bdp, trials int
	var quick bool
	var seed uint64
	fs := flag.NewFlagSet("prudentia pair", flag.ContinueOnError)
	fs.StringVar(&inc, "incumbent", "iPerf (Reno)", "incumbent service name (Table 1; -list names them)")
	fs.StringVar(&cont, "contender", "", "contender service name (empty = solo run)")
	fs.StringVar(&setting, "setting", "moderately", "network setting: highly | moderately")
	fs.Float64Var(&mbps, "mbps", 0, "custom bottleneck bandwidth in Mbps (overrides -setting's rate; 0 = the setting's)")
	fs.IntVar(&bdp, "buffer-bdp", 4, "queue size as a BDP multiple (power-of-two rounded)")
	fs.IntVar(&trials, "trials", 1, "counted trials (0 = the protocol's escalation: 3-9 with -quick, 10-30 without)")
	fs.BoolVar(&quick, "quick", true, "compressed trials (60s, of which 55 are simulated) instead of the paper's 10 minutes")
	fs.Uint64Var(&seed, "seed", 1, "base seed for the deterministic trial-seed sequence")
	fs.StringVar(&pc.outDir, "out", "", "directory for the first counted trial's series (queue.csv, rate.csv), also printed as sparklines")
	fs.BoolVar(&pc.list, "list", false, "list catalog services and exit")

	if usage, err := parseFlags(fs, args); usage != "" || err != nil {
		return config{usage: usage}, err
	}
	var ok bool
	if pc.net, ok = standingSetting(setting); !ok {
		return config{}, fmt.Errorf("-setting: %q is not highly or moderately", setting)
	}
	if rate := int64(mbps * 1e6); !(mbps >= 0) || math.IsInf(mbps, 0) || (mbps > 0 && rate < 1) {
		return config{}, fmt.Errorf("-mbps: %g is not a positive rate (0 keeps the setting's)", mbps)
	} else if rate > 0 {
		pc.net.RateBps = rate
	}
	if bdp < 1 {
		return config{}, fmt.Errorf("-buffer-bdp: %d is not a positive BDP multiple", bdp)
	}
	pc.net.BufferBDP = bdp
	if trials < 0 {
		return config{}, fmt.Errorf("-trials: %d is negative (0 runs the protocol's escalation)", trials)
	}
	if pc.incumbent = services.ByName(inc); pc.incumbent == nil {
		return config{}, fmt.Errorf("-incumbent: unknown service %q (-list names them)", inc)
	}
	if cont != "" {
		if pc.contender = services.ByName(cont); pc.contender == nil {
			return config{}, fmt.Errorf("-contender: unknown service %q (-list names them)", cont)
		}
	}
	pc.opts = core.PaperOptions(pc.net)
	if quick {
		pc.opts = core.QuickOptions(pc.net)
	}
	if trials > 0 {
		pc.opts.MinTrials, pc.opts.MaxTrials, pc.opts.Step = trials, trials, trials
	}
	pc.opts.BaseSeed = seed
	return config{pair: &pc}, nil
}

// sampledTrial is one attempt observed for -out: its bottleneck, sampled
// for queue occupancy, and its throughput sampler.
type sampledTrial struct {
	seed  uint64
	bneck *netem.Bottleneck
	rate  *obs.RateSampler
}

// runPair measures the pair and prints its record: per-slot medians, IQR
// and share CI, the trial ledger, the verdict and every fault event.
func runPair(pc *pairConfig, stdout io.Writer) error {
	if pc.list {
		for _, s := range services.Catalog() {
			limit := "∞"
			if bps := s.MaxRateBps(); bps > 0 {
				limit = fmt.Sprintf("%.1fMbps", float64(bps)/1e6)
			}
			fmt.Fprintf(stdout, "%-18s %-14s flows=%d cap=%s\n", s.Name(), s.Category(), s.FlowCount(), limit)
		}
		return nil
	}
	opts := pc.opts
	// With -out, attempts are sampled through Spec.Observe until one is
	// counted. Attempts run in order on this goroutine and each one's
	// fault events arrive before the next is timed, so an attempt that
	// ends with none is the pair's first counted trial, and the attempts
	// after it run unobserved.
	var last *sampledTrial
	var lastFaulted bool
	if pc.outDir != "" {
		timing := opts.Timing
		if timing == nil {
			timing = core.Spec.DefaultTiming
		}
		opts.Timing = func(s core.Spec) core.Spec {
			s = timing(s)
			if last != nil && !lastFaulted {
				return s
			}
			st := &sampledTrial{seed: s.Seed}
			last, lastFaulted = st, false
			s.Observe = func(tb *netem.Testbed) {
				tb.Bneck.StartSampling(100 * sim.Millisecond)
				st.bneck, st.rate = tb.Bneck, obs.NewRateSampler(tb.Eng, tb.Bneck, 500*sim.Millisecond)
			}
			return s
		}
	}
	var faults []core.FaultEvent
	out := core.RunPair(pc.incumbent, pc.contender, pc.net, opts, func(ev core.FaultEvent) {
		faults = append(faults, ev)
		if last != nil && ev.Seed == last.seed {
			lastFaulted = true
		}
	})

	// A solo run has one slot to report and no fairness verdict.
	names := [2]string{pc.incumbent.Name(), "(solo)"}
	slots, verdict := 1, sweepVerdict(out)
	if pc.contender != nil {
		names[1], slots = pc.contender.Name(), 2
	} else if verdict == "fair" || verdict == "unfair" {
		verdict = "solo"
	}
	queue := netem.QueueSizePackets(pc.net.RateBps, pc.net.RTT, pc.net.BufferBDP)
	protocol := "paper"
	if pc.opts.Timing != nil { // only QuickOptions sets one
		protocol = "quick"
	}
	fmt.Fprintf(stdout, "%s vs %s @ %s (queue %d pkts), %s protocol, seed %d\n",
		names[0], names[1], report.SettingLabel(pc.net), queue, protocol, pc.opts.BaseSeed)
	t := report.Table{Header: []string{"slot", "service", "median Mbps", "median share", "share IQR", "share 95% CI"}}
	for slot, name := range names[:slots] {
		lo, hi := out.ShareCI(slot)
		t.Add(fmt.Sprint(slot), name, fmt.Sprintf("%.2f", out.MedianMbps(slot)),
			fmt.Sprintf("%.1f%%", out.MedianSharePct(slot)), fmt.Sprintf("%.1f", out.IQRSharePct(slot)),
			fmt.Sprintf("[%.1f%%, %.1f%%]", lo, hi))
	}
	fmt.Fprint(stdout, t.String())
	fmt.Fprintf(stdout, "trials: %d counted, %d discarded, %d corrupt, %d retried; verdict: %s\n",
		out.Counted(), out.Discards, out.Corrupt, out.Retries, verdict)
	for _, ev := range faults {
		fmt.Fprintf(stdout, "fault: %s attempt %d seed %d: %s\n", ev.Kind, ev.Attempt, ev.Seed, ev.Detail)
	}
	if pc.outDir == "" {
		return nil
	}
	if last == nil || lastFaulted {
		return errors.New("-out: the pair counted no trial, so there is no series to write")
	}
	var q, r bytes.Buffer
	if err := errors.Join(trace.WriteQueueCSV(&q, last.bneck.Samples()), trace.WriteRateCSV(&r, last.rate.Points)); err != nil {
		return err
	}
	if err := os.MkdirAll(pc.outDir, 0o755); err != nil {
		return err
	}
	if err := errors.Join(os.WriteFile(filepath.Join(pc.outDir, "queue.csv"), q.Bytes(), 0o644),
		os.WriteFile(filepath.Join(pc.outDir, "rate.csv"), r.Bytes(), 0o644)); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\nfirst counted trial (seed %d), written to %s:\n", last.seed, pc.outDir)
	fmt.Fprint(stdout, report.RateSeries("throughput (svc0 / svc1):", last.rate.Points, float64(pc.net.RateBps)/1e6, names))
	fmt.Fprint(stdout, report.QueueSeries("bottleneck queue occupancy:", last.bneck.Samples(), queue))
	return nil
}
