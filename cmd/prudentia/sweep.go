package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"prudentia/internal/core"
	"prudentia/internal/netem"
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
// Each cell is one more setting to the watchdog's option resolver, so
// -quick, -seed, -adaptive, -chaos and -max-trial-wall mean here what
// they mean for a cycle, and a sweep is reproducible bit for bit.

// sweepTSVHeader is the column schema of <prefix>.tsv, asserted by the
// CI smoke test — extend it only together with scripts/ci.sh.
const sweepTSVHeader = "rate_mbps\trtt_ms\tqueue_pkts\tincumbent\tcontender\tslot\tservice\tn\tmedian_share_pct\tiqr_share_pct\tci_lo_pct\tci_hi_pct\tverdict"

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

// runSweep executes the grid and writes <sweepOut>.tsv and
// <sweepOut>.json. Cells run sequentially (each matrix already fans
// trials out to the worker pool); rows and cells appear in deterministic
// grid order (rate-major, then RTT, then queue). The configured
// watchdog is used only to resolve each cell's options.
func runSweep(cfg config, stdout, stderr io.Writer) error {
	w, svcs := cfg.watchdog, cfg.sweepCCAs
	var ccas []string
	for _, svc := range svcs {
		ccas = append(ccas, svc.Name())
	}
	var tsv strings.Builder
	tsv.WriteString(sweepTSVHeader + "\n")
	var cells []sweepCell
	total := len(cfg.sweepRates) * len(cfg.sweepRTTs) * len(cfg.sweepQueues)
	done := 0
	for _, rate := range cfg.sweepRates {
		for _, rtt := range cfg.sweepRTTs {
			for _, queue := range cfg.sweepQueues {
				net := netem.Config{
					RateBps:       int64(rate * 1e6),
					RTT:           sim.Time(rtt * float64(sim.Millisecond)),
					QueueCapacity: queue,
				}
				w.Settings = []netem.Config{net}
				m := &core.Matrix{Services: svcs, Net: net, Opts: w.SettingOptions(0, 0),
					Workers: w.Workers}
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
				if cfg.verbose {
					fmt.Fprintf(stderr,
						"prudentia: sweep cell %d/%d done (rate=%g Mbps rtt=%g ms queue=%d)\n",
						done, total, rate, rtt, queue)
				}
			}
		}
	}
	if err := os.WriteFile(cfg.sweepOut+".tsv", []byte(tsv.String()), 0o644); err != nil {
		return err
	}
	doc := struct {
		Schema string      `json:"schema"`
		Seed   uint64      `json:"seed"`
		CCAs   []string    `json:"ccas"`
		Cells  []sweepCell `json:"cells"`
	}{Schema: "prudentia.sweep/1", Seed: w.Opts.BaseSeed, CCAs: ccas, Cells: cells}
	blob, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(cfg.sweepOut+".json", append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "sweep: %d cells × %d services → %s.tsv, %s.json\n",
		total, len(svcs), cfg.sweepOut, cfg.sweepOut)
	return nil
}
