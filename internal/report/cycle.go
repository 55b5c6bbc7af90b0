package report

import (
	"fmt"
	"strings"

	"prudentia/internal/core"
	"prudentia/internal/netem"
	"prudentia/internal/services"
	"prudentia/internal/stats"
)

// This file renders a completed cycle as the exact text cmd/prudentia
// prints in batch mode. It is the byte-stability contract the serving
// layer leans on: the daemon's /api/v1/report.txt serves ReportText
// output, and the CI serve gate byte-compares it against a batch run at
// the same seed — so the batch binary and the daemon MUST render
// through these functions, never through private copies.

// CycleBanner renders the per-cycle header line ("=== cycle N ... ===")
// exactly as the batch watchdog prints it before each cycle.
func CycleBanner(cycle, catalogSize int) string {
	return fmt.Sprintf("=== cycle %d (catalog: %d services) ===\n", cycle, catalogSize)
}

// SettingLabel names one network setting the way every heatmap title
// does: by its bottleneck rate.
func SettingLabel(cfg netem.Config) string {
	return fmt.Sprintf("%.0f Mbps", float64(cfg.RateBps)/1e6)
}

// CycleText renders one setting's full text block — the four heatmaps
// (share, utilization, loss, queueing delay), the summary line, and the
// throttle/instability/quarantine watches — byte-identically to the
// batch watchdog's per-setting output.
func CycleText(res *core.MatrixResult, cr *core.CycleResult, si int, cfg netem.Config, svcs []services.Service) string {
	label := SettingLabel(cfg)
	var b strings.Builder
	b.WriteString(Heatmap(
		fmt.Sprintf("MmF share %% (incumbent = column) — %s", label),
		res.Names,
		func(inc, cont string) (float64, bool) { return res.SharePct(inc, cont) },
		".0f"))
	b.WriteByte('\n')
	b.WriteString(Heatmap(
		fmt.Sprintf("link utilization %% — %s", label),
		res.Names,
		func(inc, cont string) (float64, bool) {
			v, ok := res.Utilization(inc, cont)
			return 100 * v, ok
		},
		".0f"))
	b.WriteByte('\n')
	b.WriteString(Heatmap(
		fmt.Sprintf("loss rate %% — %s", label),
		res.Names,
		func(inc, cont string) (float64, bool) {
			v, ok := res.LossRate(inc, cont)
			return 100 * v, ok
		},
		".1f"))
	b.WriteByte('\n')
	b.WriteString(Heatmap(
		fmt.Sprintf("mean queueing delay ms — %s", label),
		res.Names,
		func(inc, cont string) (float64, bool) { return res.QueueDelayMs(inc, cont) },
		".0f"))
	b.WriteByte('\n')

	losing := res.LosingShares()
	fmt.Fprintf(&b, "summary (%s): losing services median %.0f%% of MmF share; self-pairs mean %.0f%%\n",
		label, stats.Median(losing), stats.Mean(res.SelfShares()))
	if throttled := cr.ThrottledServices(si, cfg, svcs, 0.5); len(throttled) > 0 {
		fmt.Fprintf(&b, "throttle watch: %v achieved <50%% of the link solo\n", throttled)
	}
	var unstable []string
	for _, a := range res.Names {
		for _, c := range res.Names {
			if p, _, ok := res.Cell(a, c); ok && p.Unstable && a <= c {
				unstable = append(unstable, a+" vs "+c)
			}
		}
	}
	if len(unstable) > 0 {
		fmt.Fprintf(&b, "instability watch (Obs 15): %v\n", unstable)
	}
	if failed := res.FailedPairs(); len(failed) > 0 {
		fmt.Fprintf(&b, "quarantine watch: %v failed repeatedly and were excluded (××)\n", failed)
	}
	b.WriteByte('\n')
	return b.String()
}

// ReportText renders a whole completed cycle — banner, every setting's
// CycleText block, and the cycle's fault-ledger summary line when it is
// non-empty — as the exact bytes a batch run prints for the same cycle.
// settings must be index-aligned with cr.PerSetting; faultSummary is
// trace.Summary(cr.Faults) ("" elides the line, matching the batch
// binary).
func ReportText(cr *core.CycleResult, settings []netem.Config, svcs []services.Service, faultSummary string) string {
	var b strings.Builder
	b.WriteString(CycleBanner(cr.Cycle, len(svcs)))
	for si, res := range cr.PerSetting {
		if si >= len(settings) {
			break
		}
		b.WriteString(CycleText(res, cr, si, settings[si], svcs))
	}
	if faultSummary != "" {
		fmt.Fprintf(&b, "fault ledger: %s\n\n", faultSummary)
	}
	return b.String()
}
