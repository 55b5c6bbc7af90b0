// Command experiment runs a single Prudentia pair experiment and prints
// its results, optionally exporting the first trial's bottleneck queue
// log and throughput series (queue.csv, rate.csv — the artifacts
// cmd/report renders).
//
// Usage:
//
//	experiment -incumbent YouTube -contender Mega -setting highly \
//	           -trials 3 -quick -out /tmp/artifacts
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"prudentia/internal/core"
	"prudentia/internal/netem"
	"prudentia/internal/report"
	"prudentia/internal/services"
	"prudentia/internal/sim"
	"prudentia/internal/stats"
	"prudentia/internal/trace"
)

func main() {
	var (
		incumbent = flag.String("incumbent", "iPerf (Reno)", "incumbent service name (Table 1)")
		contender = flag.String("contender", "", "contender service name (empty = solo run)")
		setting   = flag.String("setting", "moderately", "network setting: highly | moderately")
		bandwidth = flag.Float64("mbps", 0, "custom bottleneck bandwidth in Mbps (overrides -setting)")
		bufferBDP = flag.Int("buffer-bdp", 4, "queue size as a BDP multiple (power-of-two rounded)")
		trials    = flag.Int("trials", 1, "number of trials")
		quick     = flag.Bool("quick", true, "60s trials instead of the paper's 10 minutes")
		seed      = flag.Uint64("seed", 1, "base RNG seed")
		outDir    = flag.String("out", "", "directory for the first trial's CSV artifacts (queue.csv, rate.csv)")
		list      = flag.Bool("list", false, "list catalog services and exit")
	)
	flag.Parse()

	if *list {
		for _, s := range services.Catalog() {
			fmt.Printf("%-18s %-14s flows=%d cap=%s\n", s.Name(), s.Category(), s.FlowCount(), capStr(s.MaxRateBps()))
		}
		return
	}

	cfg := netem.ModeratelyConstrained()
	if strings.HasPrefix(*setting, "high") {
		cfg = netem.HighlyConstrained()
	}
	if *bandwidth > 0 {
		cfg.RateBps = int64(*bandwidth * 1e6)
	}
	cfg.BufferBDP = *bufferBDP

	inc := services.ByName(*incumbent)
	if inc == nil {
		fatalf("unknown incumbent %q (use -list)", *incumbent)
	}
	var cont services.Service
	if *contender != "" {
		if cont = services.ByName(*contender); cont == nil {
			fatalf("unknown contender %q (use -list)", *contender)
		}
	}

	timing := core.Spec.DefaultTiming
	if *quick {
		timing = core.Spec.QuickTiming
	}

	var shares0, shares1 []float64
	for i := 0; i < *trials; i++ {
		spec := timing(core.Spec{
			Incumbent: inc, Contender: cont, Net: cfg, Seed: *seed + uint64(i),
			SampleQueueEvery: 100 * sim.Millisecond,
			SampleRateEvery:  500 * sim.Millisecond,
		})
		res, err := core.RunTrial(spec)
		if err != nil {
			fatalf("trial %d: %v", i, err)
		}
		fmt.Printf("trial %2d: %7.2f / %7.2f Mbps  share %3.0f%% / %3.0f%%  util %3.0f%%  loss %.3f/%.3f  qdelay %s/%s%s\n",
			i+1, res.Mbps[0], res.Mbps[1], res.SharePct[0], res.SharePct[1],
			100*res.Utilization, res.Loss[0], res.Loss[1],
			report.Ms(res.QueueDelay[0]), report.Ms(res.QueueDelay[1]),
			discardNote(res))
		shares0 = append(shares0, res.SharePct[0])
		shares1 = append(shares1, res.SharePct[1])

		if *outDir != "" && i == 0 {
			if err := export(*outDir, res); err != nil {
				fatalf("export: %v", err)
			}
		}
	}
	fmt.Printf("\n%s vs %s @ %.0f Mbps (queue %d pkts): median share %.0f%% / %.0f%%\n",
		inc.Name(), nameOr(cont, "(solo)"), float64(cfg.RateBps)/1e6,
		netem.QueueSizePackets(cfg.RateBps, cfg.RTT, *bufferBDP),
		stats.Median(shares0), stats.Median(shares1))
}

func export(dir string, res core.TrialResult) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	qf, err := os.Create(filepath.Join(dir, "queue.csv"))
	if err != nil {
		return err
	}
	defer qf.Close()
	if err := trace.WriteQueueCSV(qf, res.QueueSeries); err != nil {
		return err
	}
	rf, err := os.Create(filepath.Join(dir, "rate.csv"))
	if err != nil {
		return err
	}
	defer rf.Close()
	if err := trace.WriteRateCSV(rf, res.RateSeries); err != nil {
		return err
	}
	fmt.Printf("artifacts written to %s\n", dir)
	return nil
}

func discardNote(res core.TrialResult) string {
	if res.Discarded {
		return "  [DISCARDED: external loss]"
	}
	return ""
}

func capStr(bps int64) string {
	if bps == 0 {
		return "∞"
	}
	return fmt.Sprintf("%.1fMbps", float64(bps)/1e6)
}

func nameOr(s services.Service, alt string) string {
	if s == nil {
		return alt
	}
	return s.Name()
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "experiment: "+format+"\n", args...)
	os.Exit(1)
}
