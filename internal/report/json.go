package report

import (
	"bytes"
	"encoding/json"
	"sort"

	"prudentia/internal/core"
	"prudentia/internal/netem"
	"prudentia/internal/services"
)

// ReportSchema stamps CycleJSON documents; consumers reject versions
// they do not understand, mirroring the checkpoint/journal convention.
const ReportSchema = "prudentia.report/1"

// ReportDoc is the machine-readable rendering of one completed cycle —
// the JSON the daemon serves at /api/v1/report. Every field is either
// ordered (slices, never maps) or scalar, and the document is produced
// by encoding/json over this fixed struct, so the bytes are a pure
// function of the cycle: two runs at the same seed serve identical
// documents, which is what lets CI diff daemon output against a batch
// run and lets strong ETags revalidate across daemon restarts.
type ReportDoc struct {
	// Schema is always ReportSchema.
	Schema string `json:"schema"`
	// Cycle is the 1-based cycle number this document renders.
	Cycle int `json:"cycle"`
	// Services is the catalog in matrix order.
	Services []string `json:"services"`
	// Settings holds one entry per network setting, index-aligned with
	// the cycle's PerSetting results.
	Settings []SettingDoc `json:"settings"`
}

// SettingDoc is one network setting's matrix rendering.
type SettingDoc struct {
	// RateMbps is the bottleneck bandwidth.
	RateMbps float64 `json:"rate_mbps"`
	// RTTMs is the round-trip propagation time in milliseconds.
	RTTMs float64 `json:"rtt_ms"`
	// QueuePkts is the configured drop-tail queue capacity (0 = the
	// paper's BDP-derived default).
	QueuePkts int `json:"queue_pkts"`
	// Calibration lists each service's solo throughput in service-name
	// order (services whose calibration was omitted this cycle are
	// absent).
	Calibration []CalibrationEntry `json:"calibration,omitempty"`
	// Cells lists every unordered pair in canonical catalog order.
	Cells []CellDoc `json:"cells"`
}

// CalibrationEntry is one service's solo-throughput measurement.
type CalibrationEntry struct {
	// Service names the calibrated service.
	Service string `json:"service"`
	// Mbps is its solo throughput.
	Mbps float64 `json:"mbps"`
}

// CellDoc is one pair's outcome. Incumbent is the lower-index catalog
// member (slot 0); SharePct/LossPct/QueueDelayMs are [incumbent,
// contender] ordered.
type CellDoc struct {
	// Incumbent and Contender name the pair (equal on self-pairs).
	Incumbent string `json:"incumbent"`
	Contender string `json:"contender"`
	// Status is "ok", "quarantined" (××), "skipped" (○○, breaker
	// open), or "empty" (no counted trials).
	Status string `json:"status"`
	// Trials is the counted-trial total entering the statistics.
	Trials int `json:"trials,omitempty"`
	// SharePct is each slot's median MmF-share percentage.
	SharePct []float64 `json:"share_pct,omitempty"`
	// UtilizationPct is the pair's median link utilization percentage.
	UtilizationPct float64 `json:"utilization_pct,omitempty"`
	// LossPct is each slot's median loss-rate percentage.
	LossPct []float64 `json:"loss_pct,omitempty"`
	// QueueDelayMs is each slot's median queueing delay.
	QueueDelayMs []float64 `json:"queue_delay_ms,omitempty"`
	// Unstable marks pairs that exhausted trials without a stable CI
	// (Obs 15).
	Unstable bool `json:"unstable,omitempty"`
	// StopReason is the adaptive stopper's verdict, when armed.
	StopReason string `json:"stop_reason,omitempty"`
	// Retries counts failed attempts that were retried.
	Retries int `json:"retries,omitempty"`
}

// round2 trims a float to 2 decimals so document bytes do not depend on
// the last ulp of a median computation.
func round2(v float64) float64 {
	if v < 0 {
		return float64(int64(v*100-0.5)) / 100
	}
	return float64(int64(v*100+0.5)) / 100
}

// CycleJSON renders one completed cycle as the canonical ReportDoc
// bytes (indented, trailing newline). settings must be index-aligned
// with cr.PerSetting. The output is byte-deterministic for a given
// cycle: field order is fixed by the struct, pair order by the catalog,
// and calibration entries are sorted by service name.
func CycleJSON(cr *core.CycleResult, settings []netem.Config, svcs []services.Service) ([]byte, error) {
	doc := ReportDoc{
		Schema: ReportSchema,
		Cycle:  cr.Cycle,
	}
	for _, s := range svcs {
		doc.Services = append(doc.Services, s.Name())
	}
	for si, res := range cr.PerSetting {
		if si >= len(settings) {
			break
		}
		cfg := settings[si]
		sd := SettingDoc{
			RateMbps:  float64(cfg.RateBps) / 1e6,
			RTTMs:     cfg.RTT.Seconds() * 1000,
			QueuePkts: cfg.QueueCapacity,
		}
		if si < len(cr.Calibration) {
			names := make([]string, 0, len(cr.Calibration[si]))
			for name := range cr.Calibration[si] {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				sd.Calibration = append(sd.Calibration, CalibrationEntry{
					Service: name, Mbps: round2(cr.Calibration[si][name]),
				})
			}
		}
		for i := range res.Names {
			for j := i; j < len(res.Names); j++ {
				p, _, ok := res.Cell(res.Names[i], res.Names[j])
				if !ok || p == nil {
					continue
				}
				cell := CellDoc{
					Incumbent: res.Names[i],
					Contender: res.Names[j],
					Retries:   p.Retries,
				}
				switch {
				case p.Skipped:
					cell.Status = "skipped"
				case p.Failed:
					cell.Status = "quarantined"
				case p.Counted() == 0:
					cell.Status = "empty"
				default:
					cell.Status = "ok"
					cell.Trials = p.Counted()
					cell.SharePct = []float64{round2(p.MedianSharePct(0)), round2(p.MedianSharePct(1))}
					cell.UtilizationPct = round2(100 * p.MedianUtilization())
					cell.LossPct = []float64{round2(100 * p.MedianLoss(0)), round2(100 * p.MedianLoss(1))}
					cell.QueueDelayMs = []float64{
						round2(p.MedianQueueDelay(0).Seconds() * 1000),
						round2(p.MedianQueueDelay(1).Seconds() * 1000),
					}
					cell.Unstable = p.Unstable
					cell.StopReason = p.StopReason
				}
				sd.Cells = append(sd.Cells, cell)
			}
		}
		doc.Settings = append(doc.Settings, sd)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
