// Benchmark harness: one benchmark per table and figure in the paper's
// evaluation. Each one prints the rows its figure function
// (figures_test.go) computes, as the table or series the paper reports.
// Absolute numbers come from the simulated substrate, so the comparison
// is about shape: who wins, by roughly what factor, and where crossovers
// fall (see EXPERIMENTS.md).
//
// The figures run under the CLI's quick preset: a watchdog cycle, pairs
// and single trials of 60 s (55 simulated), 3-9 trials per pair. Set
// PRUDENTIA_FULL=1 for the paper preset (10-minute trials, 10-30 per
// pair): expect hours.
package prudentia

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"prudentia/internal/core"
	"prudentia/internal/netem"
	"prudentia/internal/report"
	"prudentia/internal/services"
	"prudentia/internal/sim"
)

// benchPreset is the preset the benchmarks print: paper when
// PRUDENTIA_FULL=1, else quick. Nothing else reads the variable.
func benchPreset() preset {
	if os.Getenv("PRUDENTIA_FULL") == "1" {
		return paper
	}
	return quick
}

// rowIndex holds figure rows by id.
type rowIndex map[string]row

// printed computes figures under the benchmark preset, printing the
// series Figs 4 and 8 plot as they run.
func printed(b *testing.B, figs ...figure) rowIndex {
	b.Helper()
	l := labFor(benchPreset())
	ix := rowIndex{}
	for _, f := range figs {
		for _, r := range l.rows(b, f, func(s string) { fmt.Printf("\n%s", s) }) {
			ix[r.ID] = r
		}
	}
	return ix
}

// text prints a row with format, or "–" when the figure has no such row.
func (ix rowIndex) text(id, format string) string {
	r, ok := ix[id]
	if !ok {
		return "–"
	}
	return fmt.Sprintf(format, r.Value)
}

// heatmap renders the cell rows prefix/<incumbent>/<contender> over the
// throughput catalog, the way the cycle report renders its heatmaps.
func (ix rowIndex) heatmap(title, prefix, format string) string {
	var names []string
	for _, s := range services.ThroughputCatalog() {
		names = append(names, s.Name())
	}
	return report.Heatmap(title, names, func(inc, cont string) (float64, bool) {
		r, ok := ix[prefix+"/"+slug(inc)+"/"+slug(cont)]
		return r.Value, ok
	}, format)
}

// column heads a contender's table column; the empty one is a solo run.
func column(cont string) string {
	if cont == "" {
		return "(solo)"
	}
	return cont
}

// standingLabels names the cycle's settings in titles, by row-id label.
var standingLabels = [][2]string{{"8mbps", "8 Mbps"}, {"50mbps", "50 Mbps"}}

// BenchmarkTable1SoloCalibration prints Table 1's "Max Xput" column:
// every service run solo on an uncontended fast link, exposing intrinsic
// bitrate caps (video, RTC) and external throttles (OneDrive).
func BenchmarkTable1SoloCalibration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ix := printed(b, table1)
		tab := &report.Table{Header: []string{"Service", "Category", "Flows", "Solo Mbps", "Table-1 cap"}}
		for _, svc := range table1Services() {
			cap := "∞"
			if svc.MaxRateBps() > 0 {
				cap = fmt.Sprintf("%.1f", float64(svc.MaxRateBps())/1e6)
			}
			tab.Add(svc.Name(), string(svc.Category()), fmt.Sprint(svc.FlowCount()),
				ix.text("table1/"+slug(svc.Name()), "%.1f"), cap)
		}
		fmt.Printf("\n[Table 1] solo calibration on 200 Mbps:\n%s\n", tab)
	}
}

// printFig2 prints one setting's Fig 2 heatmap plus the Obs 1 summary.
func printFig2(b *testing.B, fig, label, title string) {
	ix := printed(b, fig2, obs1)
	fmt.Printf("\n%s\n", ix.heatmap(
		fmt.Sprintf("[Fig 2 %s] median %% of MmF share obtained by incumbent (column) vs contender (row)", title),
		fig, ".0f"))
	id := "obs1/" + label + "/"
	fmt.Printf("[Obs 1 %s] losing services: median %s%% of MmF share; %s%% of losers <=90%%; %s%% <=50%%; self-pairs mean %s%%\n",
		title, ix.text(id+"median-loser", "%.0f"), ix.text(id+"losers-le90", "%.0f"),
		ix.text(id+"losers-le50", "%.0f"), ix.text(id+"self-mean", "%.0f"))
}

// BenchmarkFig2HeatmapHighly prints Fig 2a (8 Mbps all-pairs MmF
// heatmap) plus the Obs 1 summary statistics.
func BenchmarkFig2HeatmapHighly(b *testing.B) {
	for i := 0; i < b.N; i++ {
		printFig2(b, "fig2a", "8mbps", "highly-constrained 8 Mbps")
	}
}

// BenchmarkFig2HeatmapModerately prints Fig 2b (50 Mbps).
func BenchmarkFig2HeatmapModerately(b *testing.B) {
	for i := 0; i < b.N; i++ {
		printFig2(b, "fig2b", "50mbps", "moderately-constrained 50 Mbps")
	}
}

// BenchmarkFig3MultiFlow prints Fig 3: how the multi-flow services
// (Mega 5, Netflix 4, Vimeo 2) treat single-flow incumbents in both
// settings — contentious at 8 Mbps where they can fill the link,
// application-limited and benign at 50 Mbps (except Mega).
func BenchmarkFig3MultiFlow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ix := printed(b, fig3)
		for _, s := range standingLabels {
			tab := &report.Table{Header: append([]string{"incumbent vs ->"}, fig3Contenders...)}
			for _, inc := range fig3Incumbents {
				row := []string{inc}
				for _, cont := range fig3Contenders {
					row = append(row, ix.text("fig3/"+s[0]+"/"+slug(inc)+"/"+slug(cont), "%.0f%%"))
				}
				tab.Add(row...)
			}
			fmt.Printf("\n[Fig 3, %s] incumbent's %% of MmF share vs multi-flow contenders:\n%s\n", s[1], tab)
		}
	}
}

// BenchmarkFig4MegaBurstTimeseries prints Fig 4: per-500ms throughput of
// Dropbox vs Mega showing Dropbox ramping into the gaps between Mega's
// batch bursts, contrasted with NewReno which cannot.
func BenchmarkFig4MegaBurstTimeseries(b *testing.B) {
	for i := 0; i < b.N; i++ {
		printed(b, fig4)
	}
}

// BenchmarkObs4MegaVsFiveBBR prints the Obs 4 comparison: Mega's batch
// scheduling versus five plain iPerf BBR flows, against Dropbox,
// NewReno, and Cubic.
func BenchmarkObs4MegaVsFiveBBR(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ix := printed(b, obs4)
		tab := &report.Table{Header: []string{"incumbent", "vs 5x iPerf BBR", "vs Mega"}}
		for _, inc := range obs4Incumbents {
			id := "obs4/" + slug(inc) + "/"
			tab.Add(inc, ix.text(id+"vs-5xbbr", "%.0f%%"), ix.text(id+"vs-mega", "%.0f%%"))
		}
		fmt.Printf("\n[Obs 4] incumbent %% of MmF share @50 Mbps:\n%s\n", tab)
	}
}

// BenchmarkFig5RTCQoE prints Fig 5: Google Meet and Microsoft Teams QoE
// (resolution, FPS, freezes/min, high-delay packet fraction) against a
// set of contenders in both settings.
func BenchmarkFig5RTCQoE(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ix := printed(b, fig5)
		for _, s := range standingLabels {
			for _, rtc := range rtcServices {
				tab := &report.Table{Header: []string{"contender", "res", "fps", "freezes/min", "high-delay"}}
				for _, cont := range fig5Contenders {
					id := "fig5/" + s[0] + "/" + slug(rtc) + "/" + contenderSlug(cont) + "/"
					tab.Add(column(cont), ix.text(id+"resolution", "%.0fp"), ix.text(id+"fps", "%.1f"),
						ix.text(id+"freezes", "%.1f"), ix.text(id+"high-delay", "%.0f%%"))
				}
				fmt.Printf("\n[Fig 5, %s] %s under contention:\n%s\n", s[1], rtc, tab)
			}
		}
	}
}

// BenchmarkFig6PageLoadTimes prints Fig 6: page load times of the three
// web pages under contention in both settings.
func BenchmarkFig6PageLoadTimes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ix := printed(b, fig6)
		for _, s := range standingLabels {
			header := []string{"page \\ contender"}
			for _, cont := range fig6Contenders {
				header = append(header, column(cont))
			}
			tab := &report.Table{Header: header}
			for _, page := range fig6Pages {
				row := []string{page}
				for _, cont := range fig6Contenders {
					// A missing row is a load that did not complete within
					// the trial: worse than anything measurable here.
					v := ix.text("fig6/"+s[0]+"/"+slug(page)+"/"+contenderSlug(cont), "%.1fs")
					row = append(row, strings.Replace(v, "–", ">trial", 1))
				}
				tab.Add(row...)
			}
			fmt.Printf("\n[Fig 6, %s] median page load time under contention:\n%s\n", s[1], tab)
		}
	}
}

// BenchmarkFig7BandwidthSweep prints Fig 7: YouTube's MmF share against
// Dropbox as bottleneck bandwidth sweeps 8→100 Mbps, looking for the
// paper's non-monotonic dip and the return to fairness past the point
// where YouTube's cap fits comfortably.
func BenchmarkFig7BandwidthSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ix := printed(b, fig7)
		tab := &report.Table{Header: []string{"link Mbps", "YouTube Mbps", "YouTube %MmF", "Dropbox Mbps"}}
		for _, mbps := range fig7Rates {
			id := fmt.Sprintf("fig7/%dmbps/", mbps)
			tab.Add(fmt.Sprint(mbps), ix.text(id+"youtube-mbps", "%.1f"),
				ix.text(id+"youtube-share", "%.0f%%"), ix.text(id+"dropbox-mbps", "%.1f"))
		}
		fmt.Printf("\n[Fig 7] YouTube vs Dropbox across bandwidths:\n%s\n", tab)
	}
}

// BenchmarkFig8BufferSizing prints Fig 8: the bottleneck queue occupancy
// of NewReno-vs-Mega at 4xBDP (1024 pkts) and 8xBDP (2048), showing the
// under-utilization cured by the deeper buffer.
func BenchmarkFig8BufferSizing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		printed(b, fig8)
	}
}

// BenchmarkObs11BufferEffects prints Obs 11's numbers: Reno and Cubic vs
// Mega at 4xBDP vs 8xBDP (under-utilization cured, shares jump) and
// Reno-vs-Cubic at 8 Mbps where deeper buffers help Cubic.
func BenchmarkObs11BufferEffects(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ix := printed(b, obs11)
		tab := &report.Table{Header: []string{"pair", "setting", "4xBDP share/util", "8xBDP share/util"}}
		for _, p := range obs11Pairs {
			row := []string{p.inc + " vs " + p.cont, fmt.Sprintf("%d Mbps", p.net.RateBps/1_000_000)}
			for _, mult := range []string{"4xbdp", "8xbdp"} {
				id := "obs11/" + slug(p.inc) + "-vs-" + slug(p.cont) + "/" + mult + "/"
				row = append(row, ix.text(id+"share", "%.0f%%")+" / "+ix.text(id+"util", "%.0f%%"))
			}
			tab.Add(row...)
		}
		fmt.Printf("\n[Obs 11] buffer sizing effects:\n%s\n", tab)
	}
}

// BenchmarkFig9aDeploymentChanges prints Fig 9a: YouTube and Google
// Drive throughput against iPerf BBR (Linux 4.15) in their 2022 vs 2023
// deployments (BBRv3 rollout to Drive, QUIC tuning for YouTube).
func BenchmarkFig9aDeploymentChanges(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ix := printed(b, fig9a)
		tab := &report.Table{Header: []string{"service", "2022 Mbps", "2023 Mbps", "change"}}
		for _, svc := range fig9Deployments {
			id := "fig9a/" + slug(svc) + "/"
			tab.Add(svc, ix.text(id+"2022-mbps", "%.1f"), ix.text(id+"2023-mbps", "%.1f"), ix.text(id+"change", "%+.0f%%"))
		}
		fmt.Printf("\n[Fig 9a] 2022 vs 2023 deployments vs iPerf BBR (4.15) @50 Mbps:\n%s\n", tab)
	}
}

// BenchmarkFig9bKernelVariants prints Fig 9b: BBRv1 as shipped in Linux
// 4.15 vs 5.15 against Dropbox, Google Drive, and YouTube.
func BenchmarkFig9bKernelVariants(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ix := printed(b, fig9b)
		tab := &report.Table{Header: []string{"incumbent", "vs BBR 4.15", "vs BBR 5.15"}}
		for _, inc := range fig9Incumbents {
			id := "fig9b/" + slug(inc) + "/"
			tab.Add(inc, ix.text(id+"vs-iperf-bbr-4-15", "%.1f Mbps"), ix.text(id+"vs-iperf-bbr", "%.1f Mbps"))
		}
		fmt.Printf("\n[Fig 9b] incumbent throughput vs BBR kernel variants @50 Mbps:\n%s\n", tab)
	}
}

// BenchmarkTable3Transitivity prints Table 3: fairness is not
// transitive — α unfair to β and β unfair to γ does not imply α unfair
// to γ.
func BenchmarkTable3Transitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ix := printed(b, table3)
		tab := &report.Table{Header: []string{"alpha", "beta", "gamma", "BW", "beta vs alpha", "gamma vs beta", "gamma vs alpha"}}
		for k, r := range table3Rows {
			id := fmt.Sprintf("table3/row%d/", k+1)
			tab.Add(r.alpha, r.beta, r.gamma, fmt.Sprint(r.net.RateBps/1_000_000),
				ix.text(id+"beta-vs-alpha", "%.0f%%"), ix.text(id+"gamma-vs-beta", "%.0f%%"), ix.text(id+"gamma-vs-alpha", "%.0f%%"))
		}
		fmt.Printf("\n[Table 3] non-transitivity of (un)fairness:\n%s\n", tab)
	}
}

// BenchmarkFig10Instability prints Fig 10: per-trial throughput scatter
// showing OneDrive's trial-to-trial instability against a stable pair.
func BenchmarkFig10Instability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ix := printed(b, fig10)
		tab := &report.Table{Header: []string{"pair (bold = measured)", "trial Mbps (sorted)", "IQR"}}
		for _, p := range fig10Pairs {
			id := "fig10/" + slug(p[0]) + "/"
			var series string
			for k := 1; ix[fmt.Sprintf("%strial%d", id, k)].ID != ""; k++ {
				series += ix.text(fmt.Sprintf("%strial%d", id, k), "%.0f ")
			}
			tab.Add(p[0]+" vs "+p[1], series, ix.text(id+"iqr", "%.1f Mbps"))
		}
		fmt.Printf("\n[Fig 10] per-trial throughput of the bold service:\n%s\n", tab)
	}
}

// printHeatmaps prints one appendix heatmap (Figs 11, 12, 13) per
// setting from the cycle's cells.
func printHeatmaps(b *testing.B, f figure, prefix, title, format string) {
	ix := printed(b, f)
	for _, s := range standingLabels {
		fmt.Printf("\n%s\n", ix.heatmap(fmt.Sprintf("%s (%s)", title, s[1]), prefix+"/"+s[0], format))
	}
}

// BenchmarkFig11Utilization prints the Appendix B.1 link-utilization
// heatmap: ≥95% almost everywhere except Mega and video-video pairs.
func BenchmarkFig11Utilization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		printHeatmaps(b, fig11, "fig11", "[Fig 11] median link utilization %", ".0f")
	}
}

// BenchmarkFig12LossRates prints the Appendix B.2 loss-rate heatmap:
// Mega induces the most loss; BBR-vs-BBR sees none.
func BenchmarkFig12LossRates(b *testing.B) {
	for i := 0; i < b.N; i++ {
		printHeatmaps(b, fig12, "fig12", "[Fig 12] median loss rate %", ".1f")
	}
}

// BenchmarkFig13QueueingDelay prints the Appendix B.3 queueing-delay
// heatmap (ms).
func BenchmarkFig13QueueingDelay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		printHeatmaps(b, fig13, "fig13", "[Fig 13] median mean queueing delay (ms)", ".0f")
	}
}

// BenchmarkEngineThroughput measures the raw simulator event rate — the
// ablation baseline for everything above (how much virtual traffic one
// wall-clock second buys). It is an engine microbenchmark, not a
// figure, so it keeps its own trial spec.
func BenchmarkEngineThroughput(b *testing.B) {
	var packets int64
	var virtual float64
	for i := 0; i < b.N; i++ {
		spec := core.Spec{
			Incumbent: services.ByName("iPerf (Reno)"),
			Contender: services.ByName("iPerf (Cubic)"),
			Net:       netem.ModeratelyConstrained(),
			Seed:      uint64(i),
			Duration:  20 * sim.Second, Warmup: 2 * sim.Second, Cooldown: 2 * sim.Second,
		}
		res, err := core.RunTrial(spec)
		if err != nil {
			b.Fatal(err)
		}
		packets += int64((res.Mbps[0] + res.Mbps[1]) * 16 / 8 * 1e6 / 1500)
		virtual += res.Obs.SimSeconds // 18: the engine stops where the window closes
	}
	b.ReportMetric(float64(packets)/b.Elapsed().Seconds(), "pkts/s")
	b.ReportMetric(virtual/b.Elapsed().Seconds(), "virtual-s/s")
}
