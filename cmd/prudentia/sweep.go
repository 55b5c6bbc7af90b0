package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"

	"prudentia/internal/core"
	"prudentia/internal/netem"
	"prudentia/internal/services"
	"prudentia/internal/sim"
	"prudentia/internal/stats"
)

// Sweep mode: instead of watchdog cycles over the standing settings,
// -sweep runs the full pair matrix of a small CCA catalog at every
// point of a rate × RTT × queue grid and writes two consolidated
// artifacts — a flat TSV (one row per pair slot per grid cell, ready
// for gnuplot/pandas) and a JSON document that additionally carries
// each cell's merged share-percentage sketch, so a downstream consumer
// can recover any quantile of the whole cell without the raw trials.
// The grid reuses the quick trial protocol and the deterministic seed
// schedule, so a sweep is reproducible bit for bit.

// sweepTSVHeader is the column schema of <prefix>.tsv, asserted by the
// CI smoke test — extend it only together with scripts/ci.sh.
const sweepTSVHeader = "rate_mbps\trtt_ms\tqueue_pkts\tincumbent\tcontender\tslot\tservice\tn\tmedian_share_pct\tiqr_share_pct\tci_lo_pct\tci_hi_pct\tverdict"

// sweepConfig collects the resolved -sweep-* flags.
type sweepConfig struct {
	RatesMbps []float64
	RTTsMs    []float64
	Queues    []int
	CCAs      []string
	Out       string
	Workers   int
	Seed      uint64
	Verbose   bool
}

// sweepCell is one grid point's consolidated result in <prefix>.json.
type sweepCell struct {
	RateMbps  float64     `json:"rate_mbps"`
	RTTMs     float64     `json:"rtt_ms"`
	QueuePkts int         `json:"queue_pkts"`
	Pairs     []sweepPair `json:"pairs"`
	// MergedShare is the union of every non-failed pair's two share
	// sketches — the cell's full share distribution in one mergeable,
	// O(1) object. Omitted when no pair counted a trial.
	MergedShare *stats.Sketch `json:"merged_share_sketch,omitempty"`
}

// sweepPair is one pair's two slots at one grid point.
type sweepPair struct {
	Incumbent string     `json:"incumbent"`
	Contender string     `json:"contender"`
	N         int        `json:"n"`
	Median    [2]float64 `json:"median_share_pct"`
	IQR       [2]float64 `json:"iqr_share_pct"`
	CILo      [2]float64 `json:"ci_lo_pct"`
	CIHi      [2]float64 `json:"ci_hi_pct"`
	Verdict   string     `json:"verdict"`
}

// splitTrim splits a comma-separated flag into trimmed entries.
func splitTrim(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

// parseSweepFloats parses a comma-separated float list flag.
func parseSweepFloats(flagName, s string) ([]float64, error) {
	var out []float64
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("-%s: bad value %q", flagName, f)
		}
		out = append(out, v)
	}
	return out, nil
}

// parseSweepInts parses a comma-separated int list flag.
func parseSweepInts(flagName, s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("-%s: bad value %q", flagName, f)
		}
		out = append(out, v)
	}
	return out, nil
}

// sweepVerdict classifies one pair: "fair" when both slots' median MmF
// shares clear the paper's 80% bar, "unfair" otherwise, with the
// protocol states passed through.
func sweepVerdict(p *core.PairOutcome) string {
	switch {
	case p == nil || p.Skipped:
		return "skipped"
	case p.Failed:
		return "failed"
	case p.Unstable:
		return "unstable"
	case p.MedianSharePct(0) >= stats.DefaultFairSharePct &&
		p.MedianSharePct(1) >= stats.DefaultFairSharePct:
		return "fair"
	default:
		return "unfair"
	}
}

// runSweep executes the grid and writes <Out>.tsv and <Out>.json.
// Cells run sequentially (each matrix already fans trials out to
// cfg.Workers); rows and cells appear in deterministic grid order
// (rate-major, then RTT, then queue).
func runSweep(cfg sweepConfig) error {
	var svcs []services.Service
	for _, name := range cfg.CCAs {
		svc := services.ByName(name)
		if svc == nil {
			return fmt.Errorf("-sweep-ccas: unknown service %q", name)
		}
		svcs = append(svcs, svc)
	}
	var tsv strings.Builder
	tsv.WriteString(sweepTSVHeader + "\n")
	var cells []sweepCell
	total := len(cfg.RatesMbps) * len(cfg.RTTsMs) * len(cfg.Queues)
	done := 0
	for _, rate := range cfg.RatesMbps {
		for _, rtt := range cfg.RTTsMs {
			for _, queue := range cfg.Queues {
				net := netem.Config{
					RateBps:       int64(rate * 1e6),
					RTT:           sim.Time(rtt * float64(sim.Millisecond)),
					QueueCapacity: queue,
				}
				opts := core.QuickOptions(net)
				if cfg.Seed != 0 {
					opts.BaseSeed = cfg.Seed
				}
				m := &core.Matrix{Services: svcs, Net: net, Opts: opts,
					Workers: cfg.Workers}
				res, err := m.Run()
				if err != nil {
					return fmt.Errorf("sweep cell rate=%g rtt=%g queue=%d: %w",
						rate, rtt, queue, err)
				}
				cell := sweepCell{RateMbps: rate, RTTMs: rtt, QueuePkts: queue,
					MergedShare: res.MergedShareSketch()}
				for i, a := range res.Names {
					for j := i; j < len(res.Names); j++ {
						b := res.Names[j]
						p, _, ok := res.Cell(a, b)
						if !ok || p == nil {
							continue
						}
						sp := sweepPair{Incumbent: a, Contender: b,
							N: p.Counted(), Verdict: sweepVerdict(p)}
						for slot := 0; slot < 2; slot++ {
							sp.Median[slot] = p.MedianSharePct(slot)
							sp.IQR[slot] = p.IQRSharePct(slot)
							sp.CILo[slot], sp.CIHi[slot] = p.ShareCI(slot)
							svcName := a
							if slot == 1 {
								svcName = b
							}
							fmt.Fprintf(&tsv, "%g\t%g\t%d\t%s\t%s\t%d\t%s\t%d\t%.3f\t%.3f\t%.3f\t%.3f\t%s\n",
								rate, rtt, queue, a, b, slot, svcName, sp.N,
								sp.Median[slot], sp.IQR[slot],
								sp.CILo[slot], sp.CIHi[slot], sp.Verdict)
						}
						cell.Pairs = append(cell.Pairs, sp)
					}
				}
				cells = append(cells, cell)
				done++
				if cfg.Verbose {
					fmt.Fprintf(os.Stderr,
						"prudentia: sweep cell %d/%d done (rate=%g Mbps rtt=%g ms queue=%d)\n",
						done, total, rate, rtt, queue)
				}
			}
		}
	}
	if err := os.WriteFile(cfg.Out+".tsv", []byte(tsv.String()), 0o644); err != nil {
		return err
	}
	doc := struct {
		Schema string      `json:"schema"`
		Seed   uint64      `json:"seed"`
		CCAs   []string    `json:"ccas"`
		Cells  []sweepCell `json:"cells"`
	}{Schema: "prudentia.sweep/1", Seed: cfg.Seed, CCAs: cfg.CCAs, Cells: cells}
	blob, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(cfg.Out+".json", append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("sweep: %d cells × %d services → %s.tsv, %s.json\n",
		total, len(svcs), cfg.Out, cfg.Out)
	return nil
}
