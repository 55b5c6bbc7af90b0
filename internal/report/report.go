// Package report renders Prudentia results as the text analogues of the
// paper's figures: MmF-share heatmaps (Fig 2), utilization/loss/delay
// heatmaps (Figs 11–13), time-series sparklines (Figs 4, 8), and QoE
// tables (Figs 5, 6).
package report

import (
	"fmt"
	"math"
	"strings"

	"prudentia/internal/metrics"
	"prudentia/internal/netem"
)

// CellFunc supplies one heatmap value: the measurement for incumbent
// (column) against contender (row). ok=false renders a blank; NaN
// renders ×× (a quarantined pair — the watchdog gave up on it after
// repeated trial failures, rather than aborting the matrix); -Inf
// renders ○○ (a degraded pair — skipped without running a trial
// because a member service's circuit breaker was open).
type CellFunc func(incumbent, contender string) (float64, bool)

// Heatmap renders a contender-rows × incumbent-columns table, matching
// the paper's layout ("each row reflects the contentiousness of its
// service; each column its sensitivity").
func Heatmap(title string, names []string, cell CellFunc, format string) string {
	const corner = "cntdr\\incmb"
	colW := 8
	rowW := len(corner)
	for _, n := range names {
		if len(n) > rowW {
			rowW = len(n)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n%-*s", title, rowW+2, corner)
	for i := range names {
		fmt.Fprintf(&b, "%*s", colW, abbreviate(names[i], colW-1))
	}
	b.WriteByte('\n')
	for _, row := range names {
		fmt.Fprintf(&b, "%-*s", rowW+2, row)
		for _, col := range names {
			v, ok := cell(col, row)
			if !ok {
				fmt.Fprintf(&b, "%*s", colW, "-")
				continue
			}
			if math.IsNaN(v) {
				// Quarantined cell. "××" is two display columns but four
				// bytes, so pad by rune count rather than %*s.
				b.WriteString(strings.Repeat(" ", colW-2))
				b.WriteString("××")
				continue
			}
			if math.IsInf(v, -1) {
				// Breaker-skipped cell, same rune-count padding.
				b.WriteString(strings.Repeat(" ", colW-2))
				b.WriteString("○○")
				continue
			}
			fmt.Fprintf(&b, fmt.Sprintf("%%%d%s", colW, format), v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// abbreviate shortens a service name to fit a column.
func abbreviate(name string, w int) string {
	name = strings.NewReplacer(
		"iPerf (", "", ")", "",
		"Google ", "G", "Microsoft ", "MS",
		".google.com", "", ".org", "", ".com", "",
	).Replace(name)
	if len(name) > w {
		name = name[:w]
	}
	return name
}

// Sparkline renders a numeric series as a unicode block sparkline with
// the given value ceiling (values clamp to it).
func Sparkline(vals []float64, max float64) string {
	if max <= 0 {
		for _, v := range vals {
			if v > max {
				max = v
			}
		}
		if max == 0 {
			max = 1
		}
	}
	blocks := []rune("▁▂▃▄▅▆▇█")
	var b strings.Builder
	for _, v := range vals {
		idx := int(v / max * float64(len(blocks)-1))
		if idx < 0 {
			idx = 0
		}
		if idx >= len(blocks) {
			idx = len(blocks) - 1
		}
		b.WriteRune(blocks[idx])
	}
	return b.String()
}

// RateSeries renders a two-service throughput series (Fig 4) as paired
// sparklines plus a legend.
func RateSeries(title string, pts []metrics.RatePoint, linkMbps float64, names [2]string) string {
	a := make([]float64, len(pts))
	c := make([]float64, len(pts))
	for i, p := range pts {
		a[i], c[i] = p.Mbps[0], p.Mbps[1]
	}
	return fmt.Sprintf("%s\n  %-16s %s\n  %-16s %s\n",
		title, names[0], Sparkline(a, linkMbps), names[1], Sparkline(c, linkMbps))
}

// QueueSeries renders a queue occupancy series (Fig 8).
func QueueSeries(title string, samples []netem.OccupancySample, capacity int) string {
	vals := make([]float64, len(samples))
	for i, s := range samples {
		vals[i] = float64(s.Total)
	}
	return fmt.Sprintf("%s\n  queue/%d pkts  %s\n", title, capacity, Sparkline(vals, float64(capacity)))
}

// Table renders rows of label→formatted values with a header.
type Table struct {
	Header []string
	Rows   [][]string
}

// Add appends a row.
func (t *Table) Add(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	for i, h := range t.Header {
		fmt.Fprintf(&b, "%-*s  ", widths[i], h)
	}
	b.WriteByte('\n')
	for i := range t.Header {
		b.WriteString(strings.Repeat("-", widths[i]))
		b.WriteString("  ")
		_ = i
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) {
				fmt.Fprintf(&b, "%-*s  ", widths[i], c)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
