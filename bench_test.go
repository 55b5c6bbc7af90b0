// Benchmark harness: one benchmark per table and figure in the paper's
// evaluation. Each benchmark regenerates the corresponding result —
// workload, parameter sweep, baselines — and prints the same rows or
// series the paper reports. Absolute numbers come from the simulated
// substrate, so the comparison is about shape: who wins, by roughly what
// factor, and where crossovers fall (see EXPERIMENTS.md).
//
// By default the harness runs compressed trials (60–120 virtual seconds,
// 1–3 trials per pair) so a full sweep finishes on a laptop. Set
// PRUDENTIA_FULL=1 to run the paper's actual protocol (10-minute trials,
// 10–30 per pair) — expect hours. A trial stops where its measurement
// window closes (Duration − Cooldown), so QoE accumulators and the
// queue/rate series end there too.
package prudentia

import (
	"fmt"
	"os"
	"testing"

	"prudentia/internal/core"
	"prudentia/internal/metrics"
	"prudentia/internal/netem"
	"prudentia/internal/report"
	"prudentia/internal/services"
	"prudentia/internal/sim"
	"prudentia/internal/stats"
)

// fullRun reports whether the paper-faithful protocol was requested.
func fullRun() bool { return os.Getenv("PRUDENTIA_FULL") == "1" }

// benchTiming is the compressed per-trial timing used by default: a
// 90-second trial whose window closes, and whose engine stops, at 80 s.
func benchTiming(s core.Spec) core.Spec {
	if fullRun() {
		return s.DefaultTiming()
	}
	s.Duration, s.Warmup, s.Cooldown = 90*sim.Second, 20*sim.Second, 10*sim.Second
	return s
}

// benchOpts is the compressed scheduler protocol used by default.
func benchOpts(net netem.Config) core.SchedulerOptions {
	o := core.PaperOptions(net)
	if !fullRun() {
		o.MinTrials, o.MaxTrials, o.Step = 1, 1, 1
		o.Timing = benchTiming
	}
	return o
}

func multiTrialOpts(net netem.Config, n int) core.SchedulerOptions {
	o := benchOpts(net)
	if !fullRun() {
		o.MinTrials, o.MaxTrials, o.Step = n, n, n
	}
	return o
}

func runPair(b *testing.B, inc, cont string, net netem.Config, opts core.SchedulerOptions) *core.PairOutcome {
	b.Helper()
	out, err := core.RunPair(services.ByName(inc), services.ByName(cont), net, opts)
	if err != nil {
		b.Fatal(err)
	}
	return out
}

// BenchmarkTable1SoloCalibration regenerates Table 1's "Max Xput" column:
// every service run solo on an uncontended fast link, exposing intrinsic
// bitrate caps (video, RTC) and external throttles (OneDrive).
func BenchmarkTable1SoloCalibration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := netem.Config{RateBps: 200_000_000, RTT: 50 * sim.Millisecond}
		tab := &report.Table{Header: []string{"Service", "Category", "Flows", "Solo Mbps", "Table-1 cap"}}
		for _, svc := range services.Catalog() {
			if svc.Category() == services.CategoryWeb {
				continue // web pages are load-time, not rate, workloads
			}
			tr, err := core.RunSolo(svc, cfg, 77, benchTiming)
			if err != nil {
				b.Fatal(err)
			}
			cap := "∞"
			if svc.MaxRateBps() > 0 {
				cap = fmt.Sprintf("%.1f", float64(svc.MaxRateBps())/1e6)
			}
			tab.Add(svc.Name(), string(svc.Category()), fmt.Sprint(svc.FlowCount()),
				fmt.Sprintf("%.1f", tr.Mbps[0]), cap)
		}
		fmt.Printf("\n[Table 1] solo calibration on 200 Mbps:\n%s\n", tab)
	}
}

// fig2Matrix runs the all-pairs MmF heatmap for one setting.
func fig2Matrix(b *testing.B, net netem.Config, label string) *core.MatrixResult {
	b.Helper()
	m := &core.Matrix{
		Services: services.ThroughputCatalog(),
		Net:      net,
		Opts:     benchOpts(net),
	}
	res, err := m.Run()
	if err != nil {
		b.Fatal(err)
	}
	heat := report.Heatmap(
		fmt.Sprintf("[Fig 2 %s] median %% of MmF share obtained by incumbent (column) vs contender (row)", label),
		res.Names,
		func(inc, cont string) (float64, bool) { return res.SharePct(inc, cont) },
		".0f")
	fmt.Printf("\n%s\n", heat)

	losing := res.LosingShares()
	selfs := res.SelfShares()
	fmt.Printf("[Obs 1 %s] losing services: median %.0f%% of MmF share; %.0f%% of losers <=90%%; %.0f%% <=50%%; self-pairs mean %.0f%%\n",
		label, stats.Median(losing),
		100*fraction(losing, func(v float64) bool { return v <= 90 }),
		100*fraction(losing, func(v float64) bool { return v <= 50 }),
		stats.Mean(selfs))
	return res
}

func fraction(xs []float64, pred func(float64) bool) float64 {
	if len(xs) == 0 {
		return 0
	}
	n := 0
	for _, x := range xs {
		if pred(x) {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}

// BenchmarkFig2HeatmapHighly regenerates Fig 2a (8 Mbps all-pairs MmF
// heatmap) plus the Obs 1 summary statistics.
func BenchmarkFig2HeatmapHighly(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig2Matrix(b, netem.HighlyConstrained(), "highly-constrained 8 Mbps")
	}
}

// BenchmarkFig2HeatmapModerately regenerates Fig 2b (50 Mbps).
func BenchmarkFig2HeatmapModerately(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig2Matrix(b, netem.ModeratelyConstrained(), "moderately-constrained 50 Mbps")
	}
}

// BenchmarkFig3MultiFlow regenerates Fig 3: how the multi-flow services
// (Mega 5, Netflix 4, Vimeo 2) treat single-flow incumbents in both
// settings — contentious at 8 Mbps where they can fill the link,
// application-limited and benign at 50 Mbps (except Mega).
func BenchmarkFig3MultiFlow(b *testing.B) {
	contenders := []string{"Mega", "Netflix", "Vimeo"}
	incumbents := []string{"iPerf (Reno)", "iPerf (Cubic)", "Dropbox", "YouTube"}
	for i := 0; i < b.N; i++ {
		for _, net := range []struct {
			cfg   netem.Config
			label string
		}{{netem.HighlyConstrained(), "8 Mbps"}, {netem.ModeratelyConstrained(), "50 Mbps"}} {
			tab := &report.Table{Header: append([]string{"incumbent vs ->"}, contenders...)}
			for _, inc := range incumbents {
				row := []string{inc}
				for _, cont := range contenders {
					out := runPair(b, inc, cont, net.cfg, benchOpts(net.cfg))
					row = append(row, fmt.Sprintf("%.0f%%", out.MedianSharePct(0)))
				}
				tab.Add(row...)
			}
			fmt.Printf("\n[Fig 3, %s] incumbent's %% of MmF share vs multi-flow contenders:\n%s\n", net.label, tab)
		}
	}
}

// BenchmarkFig4MegaBurstTimeseries regenerates Fig 4: per-500ms
// throughput of Dropbox vs Mega showing Dropbox ramping into the gaps
// between Mega's batch bursts, contrasted with NewReno which cannot.
func BenchmarkFig4MegaBurstTimeseries(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, inc := range []string{"Dropbox", "iPerf (Reno)"} {
			spec := benchTiming(core.Spec{
				Incumbent: services.ByName(inc),
				Contender: services.ByName("Mega"),
				Net:       netem.ModeratelyConstrained(),
				Seed:      42,
			})
			spec.SampleRateEvery = 500 * sim.Millisecond
			res, err := core.RunTrial(spec)
			if err != nil {
				b.Fatal(err)
			}
			fmt.Printf("\n%s", report.RateSeries(
				fmt.Sprintf("[Fig 4] %s vs Mega @50 Mbps (%.1f vs %.1f Mbps):", inc, res.Mbps[0], res.Mbps[1]),
				res.RateSeries, 50, [2]string{inc, "Mega"}))
		}
	}
}

// BenchmarkObs4MegaVsFiveBBR regenerates the Obs 4 comparison: Mega's
// batch scheduling versus five plain iPerf BBR flows, against Dropbox,
// NewReno, and Cubic.
func BenchmarkObs4MegaVsFiveBBR(b *testing.B) {
	net := netem.ModeratelyConstrained()
	for i := 0; i < b.N; i++ {
		tab := &report.Table{Header: []string{"incumbent", "vs 5x iPerf BBR", "vs Mega"}}
		for _, inc := range []string{"Dropbox", "iPerf (Reno)", "iPerf (Cubic)"} {
			vs5 := runPair(b, inc, "iPerf (5xBBR)", net, benchOpts(net))
			vsMega := runPair(b, inc, "Mega", net, benchOpts(net))
			tab.Add(inc,
				fmt.Sprintf("%.0f%%", vs5.MedianSharePct(0)),
				fmt.Sprintf("%.0f%%", vsMega.MedianSharePct(0)))
		}
		fmt.Printf("\n[Obs 4] incumbent %% of MmF share @50 Mbps:\n%s\n", tab)
	}
}

// BenchmarkFig5RTCQoE regenerates Fig 5: Google Meet and Microsoft Teams
// QoE (resolution, FPS, freezes/min, high-delay packet fraction) against
// a set of contenders in both settings.
func BenchmarkFig5RTCQoE(b *testing.B) {
	contenders := []string{"", "YouTube", "Netflix", "Dropbox", "Mega", "iPerf (Cubic)", "iPerf (Reno)"}
	for i := 0; i < b.N; i++ {
		for _, net := range []struct {
			cfg   netem.Config
			label string
		}{{netem.HighlyConstrained(), "8 Mbps"}, {netem.ModeratelyConstrained(), "50 Mbps"}} {
			for _, rtc := range []string{"Google Meet", "Microsoft Teams"} {
				tab := &report.Table{Header: []string{"contender", "res", "fps", "freezes/min", "high-delay"}}
				for _, cont := range contenders {
					var contSvc services.Service
					if cont != "" {
						contSvc = services.ByName(cont)
					}
					spec := benchTiming(core.Spec{
						Incumbent: services.ByName(rtc),
						Contender: contSvc,
						Net:       net.cfg,
						Seed:      17,
					})
					res, err := core.RunTrial(spec)
					if err != nil {
						b.Fatal(err)
					}
					st := res.ServiceStats[0].RTC
					name := cont
					if name == "" {
						name = "(solo)"
					}
					tab.Add(name, fmt.Sprintf("%dp", st.Resolution),
						fmt.Sprintf("%.1f", st.AvgFPS),
						fmt.Sprintf("%.1f", st.FreezesPerMinute),
						fmt.Sprintf("%.0f%%", 100*st.HighDelayFrac))
				}
				fmt.Printf("\n[Fig 5, %s] %s under contention:\n%s\n", net.label, rtc, tab)
			}
		}
	}
}

// BenchmarkFig6PageLoadTimes regenerates Fig 6: page load times of the
// three web pages under contention in both settings.
func BenchmarkFig6PageLoadTimes(b *testing.B) {
	pages := []string{"wikipedia.org", "news.google.com", "youtube.com"}
	contenders := []string{"", "YouTube", "Netflix", "Mega", "Dropbox", "iPerf (Reno)"}
	for i := 0; i < b.N; i++ {
		for _, net := range []struct {
			cfg   netem.Config
			label string
		}{{netem.HighlyConstrained(), "8 Mbps"}, {netem.ModeratelyConstrained(), "50 Mbps"}} {
			tab := &report.Table{Header: append([]string{"page \\ contender"}, func() []string {
				out := make([]string, len(contenders))
				for j, c := range contenders {
					if c == "" {
						out[j] = "(solo)"
					} else {
						out[j] = c
					}
				}
				return out
			}()...)}
			for _, page := range pages {
				row := []string{page}
				for _, cont := range contenders {
					var contSvc services.Service
					if cont != "" {
						contSvc = services.ByName(cont)
					}
					spec := core.Spec{
						Incumbent: services.ByName(page),
						Contender: contSvc,
						Net:       net.cfg,
						Seed:      23,
						// Page loads need wall time: keep trials longer
						// even in compressed mode (loads start at 30s). The
						// engine stops at Duration − Cooldown = 195 s, which
						// is where the load count ends.
						Duration: 200 * sim.Second, Warmup: 5 * sim.Second, Cooldown: 5 * sim.Second,
					}
					if fullRun() {
						spec = spec.DefaultTiming()
					}
					res, err := core.RunTrial(spec)
					if err != nil {
						b.Fatal(err)
					}
					plts := res.ServiceStats[0].Web.PLTs
					if len(plts) == 0 {
						// No load completed within the trial: worse than
						// anything measurable here.
						row = append(row, ">trial")
						continue
					}
					vals := make([]float64, len(plts))
					for k, p := range plts {
						vals[k] = p.Seconds()
					}
					row = append(row, fmt.Sprintf("%.1fs", stats.Median(vals)))
				}
				tab.Add(row...)
			}
			fmt.Printf("\n[Fig 6, %s] median page load time under contention:\n%s\n", net.label, tab)
		}
	}
}

// BenchmarkFig7BandwidthSweep regenerates Fig 7: YouTube's MmF share
// against Dropbox as bottleneck bandwidth sweeps 8→100 Mbps, looking for
// the paper's non-monotonic dip and the return to fairness past the
// point where YouTube's cap fits comfortably.
func BenchmarkFig7BandwidthSweep(b *testing.B) {
	rates := []int64{8, 20, 30, 50, 70, 90, 100}
	for i := 0; i < b.N; i++ {
		tab := &report.Table{Header: []string{"link Mbps", "YouTube Mbps", "YouTube %MmF", "Dropbox Mbps"}}
		for _, mbps := range rates {
			cfg := netem.Config{RateBps: mbps * 1_000_000, RTT: 50 * sim.Millisecond}
			out := runPair(b, "YouTube", "Dropbox", cfg, benchOpts(cfg))
			tab.Add(fmt.Sprint(mbps),
				fmt.Sprintf("%.1f", out.MedianMbps(0)),
				fmt.Sprintf("%.0f%%", out.MedianSharePct(0)),
				fmt.Sprintf("%.1f", out.MedianMbps(1)))
		}
		fmt.Printf("\n[Fig 7] YouTube vs Dropbox across bandwidths:\n%s\n", tab)
	}
}

// BenchmarkFig8BufferSizing regenerates Fig 8: the bottleneck queue
// occupancy of NewReno-vs-Mega at 4xBDP (1024 pkts) and 8xBDP (2048),
// showing the under-utilization cured by the deeper buffer.
func BenchmarkFig8BufferSizing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, mult := range []int{4, 8} {
			cfg := netem.ModeratelyConstrained()
			cfg.BufferBDP = mult
			spec := benchTiming(core.Spec{
				Incumbent: services.ByName("iPerf (Reno)"),
				Contender: services.ByName("Mega"),
				Net:       cfg,
				Seed:      42,
			})
			spec.SampleQueueEvery = 250 * sim.Millisecond
			res, err := core.RunTrial(spec)
			if err != nil {
				b.Fatal(err)
			}
			capPkts := netem.QueueSizePackets(cfg.RateBps, cfg.RTT, mult)
			fmt.Printf("\n%s  reno=%.1f mega=%.1f Mbps util=%.0f%%\n",
				report.QueueSeries(
					fmt.Sprintf("[Fig 8] NewReno vs Mega @50 Mbps, %dxBDP (%d pkt) buffer:", mult, capPkts),
					res.QueueSeries, capPkts),
				res.Mbps[0], res.Mbps[1], 100*res.Utilization)
		}
	}
}

// BenchmarkObs11BufferEffects regenerates Obs 11's numbers: Reno and
// Cubic vs Mega at 4xBDP vs 8xBDP (under-utilization cured, shares jump)
// and Reno-vs-Cubic at 8 Mbps where deeper buffers help Cubic.
func BenchmarkObs11BufferEffects(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := &report.Table{Header: []string{"pair", "setting", "4xBDP share/util", "8xBDP share/util"}}
		for _, inc := range []string{"iPerf (Reno)", "iPerf (Cubic)"} {
			row := []string{inc + " vs Mega", "50 Mbps"}
			for _, mult := range []int{4, 8} {
				cfg := netem.ModeratelyConstrained()
				cfg.BufferBDP = mult
				out := runPair(b, inc, "Mega", cfg, benchOpts(cfg))
				row = append(row, fmt.Sprintf("%.0f%% / %.0f%%",
					out.MedianSharePct(0), 100*out.MedianUtilization()))
			}
			tab.Add(row...)
		}
		row := []string{"NewReno vs Cubic", "8 Mbps"}
		for _, mult := range []int{4, 8} {
			cfg := netem.HighlyConstrained()
			cfg.BufferBDP = mult
			out := runPair(b, "iPerf (Reno)", "iPerf (Cubic)", cfg, benchOpts(cfg))
			row = append(row, fmt.Sprintf("%.0f%% / %.0f%%",
				out.MedianSharePct(0), 100*out.MedianUtilization()))
		}
		tab.Add(row...)
		fmt.Printf("\n[Obs 11] buffer sizing effects:\n%s\n", tab)
	}
}

// BenchmarkFig9aDeploymentChanges regenerates Fig 9a: YouTube and Google
// Drive throughput against iPerf BBR (Linux 4.15) in their 2022 vs 2023
// deployments (BBRv3 rollout to Drive, QUIC tuning for YouTube).
func BenchmarkFig9aDeploymentChanges(b *testing.B) {
	net := netem.ModeratelyConstrained()
	for i := 0; i < b.N; i++ {
		tab := &report.Table{Header: []string{"service", "2022 Mbps", "2023 Mbps", "change"}}
		for _, svc := range []struct {
			name string
			y22  services.Service
			y23  services.Service
		}{
			{"YouTube", services.YouTube(services.Year2022), services.YouTube(services.Year2023)},
			{"Google Drive", services.GoogleDrive(services.Year2022), services.GoogleDrive(services.Year2023)},
		} {
			var got [2]float64
			for j, s := range []services.Service{svc.y22, svc.y23} {
				out, err := core.RunPair(s, services.ByName("iPerf (BBR 4.15)"), net, multiTrialOpts(net, 2))
				if err != nil {
					b.Fatal(err)
				}
				got[j] = out.MedianMbps(0)
			}
			change := 0.0
			if got[0] > 0 {
				change = 100 * (got[1] - got[0]) / got[0]
			}
			tab.Add(svc.name, fmt.Sprintf("%.1f", got[0]), fmt.Sprintf("%.1f", got[1]),
				fmt.Sprintf("%+.0f%%", change))
		}
		fmt.Printf("\n[Fig 9a] 2022 vs 2023 deployments vs iPerf BBR (4.15) @50 Mbps:\n%s\n", tab)
	}
}

// BenchmarkFig9bKernelVariants regenerates Fig 9b: BBRv1 as shipped in
// Linux 4.15 vs 5.15 against Dropbox, Google Drive, and YouTube.
func BenchmarkFig9bKernelVariants(b *testing.B) {
	net := netem.ModeratelyConstrained()
	for i := 0; i < b.N; i++ {
		tab := &report.Table{Header: []string{"incumbent", "vs BBR 4.15", "vs BBR 5.15"}}
		for _, inc := range []string{"Dropbox", "Google Drive", "YouTube"} {
			v415 := runPair(b, inc, "iPerf (BBR 4.15)", net, multiTrialOpts(net, 2))
			v515 := runPair(b, inc, "iPerf (BBR)", net, multiTrialOpts(net, 2))
			tab.Add(inc,
				fmt.Sprintf("%.1f Mbps", v415.MedianMbps(0)),
				fmt.Sprintf("%.1f Mbps", v515.MedianMbps(0)))
		}
		fmt.Printf("\n[Fig 9b] incumbent throughput vs BBR kernel variants @50 Mbps:\n%s\n", tab)
	}
}

// BenchmarkTable3Transitivity regenerates Table 3: fairness is not
// transitive — α unfair to β and β unfair to γ does not imply α unfair
// to γ.
func BenchmarkTable3Transitivity(b *testing.B) {
	rows := []struct {
		alpha, beta, gamma string
		net                netem.Config
	}{
		{"Mega", "iPerf (Reno)", "Vimeo", netem.ModeratelyConstrained()},
		{"iPerf (Cubic)", "Dropbox", "iPerf (Reno)", netem.HighlyConstrained()},
		{"iPerf (BBR)", "OneDrive", "YouTube", netem.ModeratelyConstrained()},
	}
	for i := 0; i < b.N; i++ {
		tab := &report.Table{Header: []string{"alpha", "beta", "gamma", "BW", "beta vs alpha", "gamma vs beta", "gamma vs alpha"}}
		for _, r := range rows {
			ba := runPair(b, r.beta, r.alpha, r.net, benchOpts(r.net))
			gb := runPair(b, r.gamma, r.beta, r.net, benchOpts(r.net))
			ga := runPair(b, r.gamma, r.alpha, r.net, benchOpts(r.net))
			tab.Add(r.alpha, r.beta, r.gamma,
				fmt.Sprintf("%.0f", float64(r.net.RateBps)/1e6),
				fmt.Sprintf("%.0f%%", ba.MedianSharePct(0)),
				fmt.Sprintf("%.0f%%", gb.MedianSharePct(0)),
				fmt.Sprintf("%.0f%%", ga.MedianSharePct(0)))
		}
		fmt.Printf("\n[Table 3] non-transitivity of (un)fairness:\n%s\n", tab)
	}
}

// BenchmarkFig10Instability regenerates Fig 10: per-trial throughput
// scatter showing OneDrive's trial-to-trial instability against a stable
// pair.
func BenchmarkFig10Instability(b *testing.B) {
	net := netem.ModeratelyConstrained()
	trials := 8
	if fullRun() {
		trials = 30
	}
	for i := 0; i < b.N; i++ {
		tab := &report.Table{Header: []string{"pair (bold = measured)", "trial Mbps (sorted)", "IQR"}}
		for _, p := range []struct{ inc, cont string }{
			{"OneDrive", "iPerf (BBR)"},
			{"Dropbox", "iPerf (BBR)"},
		} {
			out := runPair(b, p.inc, p.cont, net, multiTrialOpts(net, trials))
			var series string
			mbps, _ := out.Sketches.Mbps[0].Values() // sorted
			for _, v := range mbps {
				series += fmt.Sprintf("%.0f ", v)
			}
			tab.Add(p.inc+" vs "+p.cont, series, fmt.Sprintf("%.1f Mbps", out.IQRSharePct(0)/100*25))
		}
		fmt.Printf("\n[Fig 10] per-trial throughput of the bold service:\n%s\n", tab)
	}
}

// auxHeatmap reruns a reduced matrix and prints one of the appendix
// heatmaps (Figs 11, 12, 13).
func auxHeatmap(b *testing.B, title, format string, cell func(*core.MatrixResult, string, string) (float64, bool)) {
	b.Helper()
	// The appendix heatmaps derive from the same experiments as Fig 2;
	// a reduced service set keeps the default bench affordable.
	names := []string{"YouTube", "Netflix", "Dropbox", "Mega", "iPerf (Cubic)", "iPerf (Reno)"}
	if fullRun() {
		names = nil
		for _, s := range services.ThroughputCatalog() {
			names = append(names, s.Name())
		}
	}
	var svcs []services.Service
	for _, n := range names {
		svcs = append(svcs, services.ByName(n))
	}
	for _, net := range []struct {
		cfg   netem.Config
		label string
	}{{netem.HighlyConstrained(), "8 Mbps"}, {netem.ModeratelyConstrained(), "50 Mbps"}} {
		m := &core.Matrix{Services: svcs, Net: net.cfg, Opts: benchOpts(net.cfg)}
		res, err := m.Run()
		if err != nil {
			b.Fatal(err)
		}
		fmt.Printf("\n%s\n", report.Heatmap(
			fmt.Sprintf("%s (%s)", title, net.label), res.Names,
			func(inc, cont string) (float64, bool) { return cell(res, inc, cont) },
			format))
	}
}

// BenchmarkFig11Utilization regenerates the Appendix B.1 link-utilization
// heatmap: ≥95% almost everywhere except Mega and video-video pairs.
func BenchmarkFig11Utilization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		auxHeatmap(b, "[Fig 11] median link utilization %", ".0f",
			func(r *core.MatrixResult, inc, cont string) (float64, bool) {
				v, ok := r.Utilization(inc, cont)
				return 100 * v, ok
			})
	}
}

// BenchmarkFig12LossRates regenerates the Appendix B.2 loss-rate heatmap:
// Mega induces the most loss; BBR-vs-BBR sees none.
func BenchmarkFig12LossRates(b *testing.B) {
	for i := 0; i < b.N; i++ {
		auxHeatmap(b, "[Fig 12] median loss rate %", ".1f",
			func(r *core.MatrixResult, inc, cont string) (float64, bool) {
				v, ok := r.LossRate(inc, cont)
				return 100 * v, ok
			})
	}
}

// BenchmarkFig13QueueingDelay regenerates the Appendix B.3 queueing-delay
// heatmap (ms).
func BenchmarkFig13QueueingDelay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		auxHeatmap(b, "[Fig 13] median mean queueing delay (ms)", ".0f",
			func(r *core.MatrixResult, inc, cont string) (float64, bool) {
				return r.QueueDelayMs(inc, cont)
			})
	}
}

// BenchmarkEngineThroughput measures the raw simulator event rate — the
// ablation baseline for everything above (how much virtual traffic one
// wall-clock second buys).
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

var _ = metrics.MmFShares // linked for documentation cross-reference
