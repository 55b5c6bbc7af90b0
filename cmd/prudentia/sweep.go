package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"prudentia/internal/core"
	"prudentia/internal/stats"
)

// Sweep mode: a rate × RTT × queue grid is one more list of network
// settings, so -sweep makes its grid the watchdog's Settings and runs one
// ordinary cycle over them — calibrations, journal, checkpoint,
// instruments and every cycle flag included. Only the rendering differs:
// instead of the report, the cycle becomes two consolidated artifacts — a
// flat TSV (one row per pair slot per grid cell, ready for gnuplot/pandas)
// and a JSON document that additionally carries each cell's merged
// share-percentage sketch, so a downstream consumer can recover any
// quantile of the whole cell without the raw trials. Cell i runs at the
// seeds of setting i, so a sweep is reproducible bit for bit.

// sweepServices is -services' default under -sweep: the three
// congestion-control baselines.
const sweepServices = "iPerf (Cubic),iPerf (BBR),iPerf (Reno)"

// gridPoint is one sweep cell as the flags gave it; cell i is the
// watchdog's setting i.
type gridPoint struct {
	rateMbps, rttMs float64
	queuePkts       int
}

// sweepTSVHeader is the column schema of sweep.tsv, asserted by the
// CI smoke test — extend it only together with scripts/ci.sh.
const sweepTSVHeader = "rate_mbps\trtt_ms\tqueue_pkts\tincumbent\tcontender\tslot\tservice\tn\tmedian_share_pct\tiqr_share_pct\tci_lo_pct\tci_hi_pct\tverdict"

// sweepCell is one grid point's consolidated result in sweep.json.
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

// writeSweep renders a completed sweep cycle as sweep.tsv and sweep.json
// in the run directory, cell i from the cycle's setting i, and prints the
// one summary line.
func writeSweep(cfg config, cr *core.CycleResult, stdout io.Writer) error {
	w := cfg.watchdog
	var names []string
	for _, svc := range w.Services {
		names = append(names, svc.Name())
	}
	var tsv strings.Builder
	tsv.WriteString(sweepTSVHeader + "\n")
	var cells []sweepCell
	for ci, g := range cfg.sweepGrid {
		res := cr.PerSetting[ci]
		cell := sweepCell{RateMbps: g.rateMbps, RTTMs: g.rttMs, QueuePkts: g.queuePkts,
			MergedShare: res.MergedShareSketch()}
		for i, a := range res.Names {
			for _, b := range res.Names[i:] {
				p, _, ok := res.Cell(a, b)
				if !ok || p == nil {
					continue
				}
				sp := sweepPair{Incumbent: a, Contender: b,
					N: p.Counted(), Verdict: sweepVerdict(p)}
				for slot, svcName := range [2]string{a, b} {
					sp.Median[slot] = p.MedianSharePct(slot)
					sp.IQR[slot] = p.IQRSharePct(slot)
					sp.CILo[slot], sp.CIHi[slot] = p.ShareCI(slot)
					fmt.Fprintf(&tsv, "%g\t%g\t%d\t%s\t%s\t%d\t%s\t%d\t%.3f\t%.3f\t%.3f\t%.3f\t%s\n",
						g.rateMbps, g.rttMs, g.queuePkts, a, b, slot, svcName, sp.N,
						sp.Median[slot], sp.IQR[slot],
						sp.CILo[slot], sp.CIHi[slot], sp.Verdict)
				}
				cell.Pairs = append(cell.Pairs, sp)
			}
		}
		cells = append(cells, cell)
	}
	tsvPath, jsonPath := filepath.Join(cfg.dir, "sweep.tsv"), filepath.Join(cfg.dir, "sweep.json")
	if err := os.WriteFile(tsvPath, []byte(tsv.String()), 0o644); err != nil {
		return err
	}
	doc := struct {
		Schema string      `json:"schema"`
		Seed   uint64      `json:"seed"`
		CCAs   []string    `json:"ccas"`
		Cells  []sweepCell `json:"cells"`
	}{Schema: "prudentia.sweep/1", Seed: w.Opts.BaseSeed, CCAs: names, Cells: cells}
	blob, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(jsonPath, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "sweep: %d cells × %d services → %s, %s\n",
		len(cfg.sweepGrid), len(names), tsvPath, jsonPath)
	return nil
}
