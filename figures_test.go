// Figure functions: every table, figure and ablation of the paper's
// evaluation as rows computed under one of the CLI's two presets
// (quick = core.QuickOptions and Spec.QuickTiming, paper =
// core.PaperOptions and Spec.DefaultTiming). Each row comes from one of
// three sources and from no protocol of its own:
//
//   - cycle: one core.Watchdog cycle over the throughput catalog in both
//     standing settings, the cycle `prudentia -setting both -cycles 1
//     -seed 1` prints (add -quick=false for the paper preset);
//   - pair: one core.RunPair under the preset's options at BaseSeed 1,
//     what `prudentia pair ... -trials 0 -seed 1` runs;
//   - trial: one trial at the figure's own seed, timed by the preset.
//
// `go test -run TestFigures -update .` writes every quick row to
// testdata/figures.json. Without -update, TestFigures recomputes the
// 8 Mbps cycle rows and one trial row and requires them byte-equal to
// the committed ones, and checks that every number EXPERIMENTS.md cites
// as `<row id> = <value>` is the committed row's. bench_test.go prints
// the same rows as the paper's tables.
package prudentia

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"prudentia/internal/cca"
	"prudentia/internal/core"
	"prudentia/internal/netem"
	"prudentia/internal/obs"
	"prudentia/internal/report"
	"prudentia/internal/services"
	"prudentia/internal/sim"
	"prudentia/internal/stats"
	"prudentia/internal/transport"
)

var update = flag.Bool("update", false, "rewrite testdata/figures.json from every figure under the quick preset")

const (
	figuresPath   = "testdata/figures.json"
	figuresSchema = "prudentia.figures/1"
	// figureSeed is the BaseSeed of the cycle and of every pair.
	figureSeed = 1
)

// A preset names one of the CLI's two protocols.
type preset string

const (
	quick preset = "quick"
	paper preset = "paper"
)

// options is the preset's scheduler protocol for a setting at figureSeed.
func (p preset) options(net netem.Config) core.SchedulerOptions {
	o := core.QuickOptions(net)
	if p == paper {
		o = core.PaperOptions(net)
	}
	o.BaseSeed = figureSeed
	return o
}

// timing times a single trial the way the preset times every trial.
func (p preset) timing(s core.Spec) core.Spec {
	if p == paper {
		return s.DefaultTiming()
	}
	return s.QuickTiming()
}

// row is one measured number of a figure. Value is printed with Digits
// decimals; Paper quotes the paper's number where DESIGN.md §4 or
// EXPERIMENTS.md does.
type row struct {
	ID       string  `json:"id"`
	Figure   string  `json:"figure"`
	Value    float64 `json:"value"`
	Digits   int     `json:"digits"`
	Unit     string  `json:"unit"`
	Protocol string  `json:"protocol"`
	Seed     uint64  `json:"seed"`
	Paper    string  `json:"paper,omitempty"`
}

// text is the value at its printed precision.
func (r row) text() string { return strconv.FormatFloat(r.Value, 'f', r.Digits, 64) }

// source stamps rows with where they came from.
type source struct {
	protocol string
	seed     uint64
}

func (p preset) cycle() source            { return source{string(p) + "/cycle", figureSeed} }
func (p preset) pair() source             { return source{string(p) + "/pair", figureSeed} }
func (p preset) trial(seed uint64) source { return source{string(p) + "/trial", seed} }
func (s source) row(figure, id string, v float64, digits int, unit string) row {
	return row{ID: id, Figure: figure, Value: v, Digits: digits, Unit: unit, Protocol: s.protocol, Seed: s.seed, Paper: paperValues[id]}
}

// paperValues are the paper's numbers that DESIGN.md §4 and
// EXPERIMENTS.md quote, by the row they compare with.
var paperValues = map[string]string{
	"table1/youtube":                              "13",
	"table1/netflix":                              "8",
	"table1/vimeo":                                "14",
	"table1/onedrive":                             "45",
	"table1/google-meet":                          "1.5",
	"table1/microsoft-teams":                      "2.6",
	"fig2a/iperf-reno/iperf-cubic":                "60",
	"fig2b/iperf-reno/iperf-cubic":                "21",
	"obs1/8mbps/median-loser":                     "69",
	"obs1/8mbps/losers-le90":                      "73",
	"obs1/8mbps/losers-le50":                      "22",
	"obs1/50mbps/median-loser":                    "86",
	"obs1/8mbps/self-mean":                        "88",
	"obs1/50mbps/self-mean":                       "88",
	"obs4/dropbox/vs-5xbbr":                       "33",
	"obs4/iperf-reno/vs-5xbbr":                    "80-90",
	"obs4/iperf-cubic/vs-5xbbr":                   "80-90",
	"obs4/dropbox/vs-mega":                        "90",
	"obs4/iperf-reno/vs-mega":                     "22",
	"obs4/iperf-cubic/vs-mega":                    "27",
	"fig6/8mbps/youtube-com/solo":                 "8",
	"fig6/8mbps/youtube-com/mega":                 "21",
	"fig8/4xbdp/util":                             "<85",
	"fig8/8xbdp/util":                             ">95",
	"obs11/iperf-reno-vs-mega/4xbdp/share":        "22",
	"obs11/iperf-reno-vs-mega/8xbdp/share":        ">=92",
	"obs11/iperf-cubic-vs-mega/4xbdp/share":       "27",
	"obs11/iperf-cubic-vs-mega/8xbdp/share":       ">=97",
	"obs11/iperf-reno-vs-iperf-cubic/4xbdp/share": "60",
	"obs11/iperf-reno-vs-iperf-cubic/8xbdp/share": "28",
	"fig9a/youtube/change":                        "+172",
	"table3/row1/beta-vs-alpha":                   "22",
	"table3/row1/gamma-vs-beta":                   "58",
	"table3/row1/gamma-vs-alpha":                  "104",
	"table3/row2/beta-vs-alpha":                   "99",
	"table3/row2/gamma-vs-beta":                   "106",
	"table3/row2/gamma-vs-alpha":                  "60",
}

// slug turns a service or page name into a row-id segment:
// "iPerf (BBR 4.15)" is iperf-bbr-4-15.
func slug(name string) string {
	var b strings.Builder
	gap := false
	for _, r := range strings.ToLower(name) {
		if r < '0' || r > '9' && r < 'a' || r > 'z' {
			gap = true
			continue
		}
		if gap && b.Len() > 0 {
			b.WriteByte('-')
		}
		gap = false
		b.WriteRune(r)
	}
	return b.String()
}

// setting is one standing setting of the figure cycle.
type setting struct {
	res *core.MatrixResult
	net netem.Config
	src source
}

// label names the setting in row ids: 8mbps, 50mbps.
func (s setting) label() string { return fmt.Sprintf("%dmbps", s.net.RateBps/1_000_000) }

func (s setting) is(net netem.Config) bool { return s.net.RateBps == net.RateBps }

// figure is one table, figure or ablation: the rows it reads from each
// setting of the watchdog cycle, and the rows it runs itself. show, when
// not nil, receives the time series Figs 4 and 8 plot, which are printed
// and carry no rows.
type figure struct {
	cells func(s setting) []row
	runs  func(tb testing.TB, l *lab, show func(string)) []row
}

// lab is one preset's shared measurements: the watchdog cycle every
// cells function reads, and the pairs more than one figure runs. Each
// runs once per test binary.
type lab struct {
	preset
	standing []setting // the cycle, once run
	pairs    map[string]*core.PairOutcome
}

var labs = map[preset]*lab{}

func labFor(p preset) *lab {
	if labs[p] == nil {
		labs[p] = &lab{preset: p, pairs: map[string]*core.PairOutcome{}}
	}
	return labs[p]
}

// standing are the settings the figure cycle runs, in watchdog order.
var standing = []netem.Config{netem.HighlyConstrained(), netem.ModeratelyConstrained()}

// watchdogCycle runs cycle 1 of a watchdog over the throughput catalog
// in the given settings under preset p, as the CLI's -cycles 1 -seed 1
// does. A one-setting watchdog gives its setting the seeds a
// two-setting one gives its first.
func watchdogCycle(tb testing.TB, p preset, settings []netem.Config) []setting {
	tb.Helper()
	w := core.NewWatchdog()
	w.Settings = settings
	w.Quick = p == quick
	w.Opts.BaseSeed = figureSeed
	w.Workers = runtime.GOMAXPROCS(0)
	cr, err := w.RunCycle()
	if err != nil {
		tb.Fatal(err)
	}
	out := make([]setting, len(cr.PerSetting))
	for si, res := range cr.PerSetting {
		out[si] = setting{res: res, net: settings[si], src: p.cycle()}
	}
	return out
}

// rows computes a figure under the lab's preset.
func (l *lab) rows(tb testing.TB, f figure, show func(string)) []row {
	tb.Helper()
	var out []row
	if f.cells != nil {
		if l.standing == nil {
			l.standing = watchdogCycle(tb, l.preset, standing)
		}
		for _, s := range l.standing {
			out = append(out, f.cells(s)...)
		}
	}
	if f.runs != nil {
		out = append(out, f.runs(tb, l, show)...)
	}
	return out
}

// service resolves a catalog name, or a 2022 deployment named
// "<name> 2022" (Fig 9a).
func service(name string) services.Service {
	switch name {
	case "YouTube 2022":
		return services.YouTube(services.Year2022)
	case "Google Drive 2022":
		return services.GoogleDrive(services.Year2022)
	}
	return services.ByName(name)
}

// runPair runs inc vs cont under the preset's options at figureSeed, once
// per lab.
func (l *lab) runPair(tb testing.TB, inc, cont string, net netem.Config) *core.PairOutcome {
	tb.Helper()
	key := fmt.Sprintf("%s|%s|%+v", inc, cont, net)
	if out := l.pairs[key]; out != nil {
		return out
	}
	out := core.RunPair([]services.Service{service(inc), service(cont)}, net, l.options(net), core.PairTask{A: 0, B: 1}, nil)
	l.pairs[key] = out
	return out
}

// runTrial runs one trial timed by the preset.
func (l *lab) runTrial(tb testing.TB, spec core.Spec) core.TrialResult {
	tb.Helper()
	res, err := core.RunTrial(l.timing(spec))
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// withRate is the 50 Mbps setting at another bottleneck rate, as
// `prudentia pair -setting moderately -mbps N` builds it.
func withRate(mbps int64) netem.Config {
	n := netem.ModeratelyConstrained()
	n.RateBps = mbps * 1_000_000
	return n
}

func withBuffer(n netem.Config, bdp int) netem.Config {
	n.BufferBDP = bdp
	return n
}

// table1Row is one service's Table 1 solo throughput on a 200 Mbps link.
func table1Row(tb testing.TB, l *lab, svc services.Service) row {
	tb.Helper()
	const seed = 77
	res, err := core.RunSolo(svc, netem.Config{RateBps: 200_000_000, RTT: 50 * sim.Millisecond}, seed, l.timing)
	if err != nil {
		tb.Fatal(err)
	}
	return l.trial(seed).row("Table 1", "table1/"+slug(svc.Name()), res.Mbps[0], 1, "Mbps")
}

// table1Services are Table 1's rate workloads: web pages are load-time
// workloads instead.
func table1Services() []services.Service {
	var out []services.Service
	for _, svc := range services.Catalog() {
		if svc.Category() != services.CategoryWeb {
			out = append(out, svc)
		}
	}
	return out
}

// cellRows lists a heatmap's cells as rows prefix/<incumbent>/<contender>,
// skipping the cells the heatmap leaves blank.
func cellRows(s setting, figure, prefix string, digits int, unit string, cell func(inc, cont string) (float64, bool)) []row {
	var out []row
	names := s.res.Names
	for _, cont := range names {
		for _, inc := range names {
			if v, ok := cell(inc, cont); ok {
				out = append(out, s.src.row(figure, prefix+"/"+slug(inc)+"/"+slug(cont), v, digits, unit))
			}
		}
	}
	return out
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

var (
	fig3Incumbents  = []string{"iPerf (Reno)", "iPerf (Cubic)", "Dropbox", "YouTube"}
	fig3Contenders  = []string{"Mega", "Netflix", "Vimeo"}
	obs4Incumbents  = []string{"Dropbox", "iPerf (Reno)", "iPerf (Cubic)"}
	rtcServices     = []string{"Google Meet", "Microsoft Teams"}
	fig5Contenders  = []string{"", "YouTube", "Netflix", "Dropbox", "Mega", "iPerf (Cubic)", "iPerf (Reno)"}
	fig6Pages       = []string{"wikipedia.org", "news.google.com", "youtube.com"}
	fig6Contenders  = []string{"", "YouTube", "Netflix", "Mega", "Dropbox", "iPerf (Reno)"}
	fig7Rates       = []int64{8, 20, 30, 50, 70, 90, 100}
	fig9Deployments = []string{"YouTube", "Google Drive"}
	fig9Incumbents  = []string{"Dropbox", "Google Drive", "YouTube"}
	fig10Pairs      = [][2]string{{"OneDrive", "iPerf (BBR)"}, {"Dropbox", "iPerf (BBR)"}}
	obs11Pairs      = []struct {
		inc, cont string
		net       netem.Config
	}{
		{"iPerf (Reno)", "Mega", netem.ModeratelyConstrained()},
		{"iPerf (Cubic)", "Mega", netem.ModeratelyConstrained()},
		{"iPerf (Reno)", "iPerf (Cubic)", netem.HighlyConstrained()},
	}
	table3Rows = []struct {
		alpha, beta, gamma string
		net                netem.Config
	}{
		{"Mega", "iPerf (Reno)", "Vimeo", netem.ModeratelyConstrained()},
		{"iPerf (Cubic)", "Dropbox", "iPerf (Reno)", netem.HighlyConstrained()},
		{"iPerf (BBR)", "OneDrive", "YouTube", netem.ModeratelyConstrained()},
	}
)

// contenderSlug is a contender's row-id segment; the empty contender is
// a solo run.
func contenderSlug(cont string) string {
	if cont == "" {
		return "solo"
	}
	return slug(cont)
}

// The figures, in the order testdata/figures.json holds their rows.
var (
	table1 = figure{runs: func(tb testing.TB, l *lab, _ func(string)) []row {
		var out []row
		for _, svc := range table1Services() {
			out = append(out, table1Row(tb, l, svc))
		}
		return out
	}}

	fig2 = figure{cells: func(s setting) []row {
		prefix, figure := "fig2a", "Fig 2a"
		if s.is(netem.ModeratelyConstrained()) {
			prefix, figure = "fig2b", "Fig 2b"
		}
		return cellRows(s, figure, prefix, 0, "%", s.res.SharePct)
	}}

	obs1 = figure{cells: func(s setting) []row {
		losing := s.res.LosingShares()
		id := "obs1/" + s.label() + "/"
		return []row{
			s.src.row("Obs 1", id+"median-loser", stats.Median(losing), 0, "%"),
			s.src.row("Obs 1", id+"losers-le90", 100*fraction(losing, func(v float64) bool { return v <= 90 }), 0, "%"),
			s.src.row("Obs 1", id+"losers-le50", 100*fraction(losing, func(v float64) bool { return v <= 50 }), 0, "%"),
			s.src.row("Obs 1", id+"self-mean", stats.Mean(s.res.SelfShares()), 0, "%"),
		}
	}}

	fig3 = figure{cells: func(s setting) []row {
		var out []row
		for _, inc := range fig3Incumbents {
			for _, cont := range fig3Contenders {
				if v, ok := s.res.SharePct(inc, cont); ok {
					out = append(out, s.src.row("Fig 3", "fig3/"+s.label()+"/"+slug(inc)+"/"+slug(cont), v, 0, "%"))
				}
			}
		}
		return out
	}}

	fig4 = figure{runs: func(tb testing.TB, l *lab, show func(string)) []row {
		const seed = 42
		var out []row
		for _, inc := range []string{"Dropbox", "iPerf (Reno)"} {
			spec := core.Spec{Incumbent: service(inc), Contender: service("Mega"), Net: netem.ModeratelyConstrained(), Seed: seed}
			var rate *obs.RateSampler
			spec.Observe = func(tb *netem.Testbed) { rate = obs.NewRateSampler(tb.Eng, tb.Bneck, 500*sim.Millisecond) }
			res := l.runTrial(tb, spec)
			id := "fig4/" + slug(inc) + "/"
			out = append(out, l.trial(seed).row("Fig 4", id+"mbps", res.Mbps[0], 1, "Mbps"),
				l.trial(seed).row("Fig 4", id+"mega-mbps", res.Mbps[1], 1, "Mbps"))
			if show != nil {
				show(report.RateSeries(fmt.Sprintf("[Fig 4] %s vs Mega @50 Mbps (%.1f vs %.1f Mbps):", inc, res.Mbps[0], res.Mbps[1]),
					rate.Points, 50, [2]string{inc, "Mega"}))
			}
		}
		return out
	}}

	obs4 = figure{
		cells: func(s setting) []row {
			if !s.is(netem.ModeratelyConstrained()) {
				return nil
			}
			var out []row
			for _, inc := range obs4Incumbents {
				if v, ok := s.res.SharePct(inc, "Mega"); ok {
					out = append(out, s.src.row("Obs 4", "obs4/"+slug(inc)+"/vs-mega", v, 0, "%"))
				}
			}
			return out
		},
		runs: func(tb testing.TB, l *lab, _ func(string)) []row {
			var out []row
			for _, inc := range obs4Incumbents {
				p := l.runPair(tb, inc, "iPerf (5xBBR)", netem.ModeratelyConstrained())
				out = append(out, l.pair().row("Obs 4", "obs4/"+slug(inc)+"/vs-5xbbr", p.MedianSharePct(0), 0, "%"))
			}
			return out
		},
	}

	fig5 = figure{runs: func(tb testing.TB, l *lab, _ func(string)) []row {
		const seed = 17
		var out []row
		for _, net := range standing {
			for _, rtc := range rtcServices {
				for _, cont := range fig5Contenders {
					res := l.runTrial(tb, core.Spec{Incumbent: service(rtc), Contender: service(cont), Net: net, Seed: seed})
					st := res.ServiceStats[0].RTC
					id := fmt.Sprintf("fig5/%dmbps/%s/%s/", net.RateBps/1_000_000, slug(rtc), contenderSlug(cont))
					src := l.trial(seed)
					out = append(out,
						src.row("Fig 5", id+"resolution", float64(st.Resolution), 0, "p"),
						src.row("Fig 5", id+"fps", st.AvgFPS, 1, "fps"),
						src.row("Fig 5", id+"freezes", st.FreezesPerMinute, 1, "/min"),
						src.row("Fig 5", id+"high-delay", 100*st.HighDelayFrac, 0, "%"))
				}
			}
		}
		return out
	}}

	// Page loads start at 30 s (WebPage.StartDelay), and a quick trial's
	// window closes at 55 s, where a contended load cannot finish: Fig 6
	// runs under the paper timing under both presets.
	fig6 = figure{runs: func(tb testing.TB, l *lab, _ func(string)) []row {
		const seed = 23
		var out []row
		for _, net := range standing {
			for _, page := range fig6Pages {
				for _, cont := range fig6Contenders {
					res, err := core.RunTrial(core.Spec{Incumbent: service(page), Contender: service(cont), Net: net, Seed: seed}.DefaultTiming())
					if err != nil {
						tb.Fatal(err)
					}
					plts := res.ServiceStats[0].Web.PLTs
					if len(plts) == 0 {
						continue // no load completed: printed as >trial
					}
					secs := make([]float64, len(plts))
					for k, p := range plts {
						secs[k] = p.Seconds()
					}
					id := fmt.Sprintf("fig6/%dmbps/%s/%s", net.RateBps/1_000_000, slug(page), contenderSlug(cont))
					out = append(out, paper.trial(seed).row("Fig 6", id, stats.Median(secs), 1, "s"))
				}
			}
		}
		return out
	}}

	fig7 = figure{runs: func(tb testing.TB, l *lab, _ func(string)) []row {
		var out []row
		for _, mbps := range fig7Rates {
			p := l.runPair(tb, "YouTube", "Dropbox", withRate(mbps))
			id := fmt.Sprintf("fig7/%dmbps/", mbps)
			out = append(out,
				l.pair().row("Fig 7", id+"youtube-mbps", p.MedianMbps(0), 1, "Mbps"),
				l.pair().row("Fig 7", id+"youtube-share", p.MedianSharePct(0), 0, "%"),
				l.pair().row("Fig 7", id+"dropbox-mbps", p.MedianMbps(1), 1, "Mbps"))
		}
		return out
	}}

	fig8 = figure{runs: func(tb testing.TB, l *lab, show func(string)) []row {
		const seed = 42
		var out []row
		for _, mult := range []int{4, 8} {
			net := withBuffer(netem.ModeratelyConstrained(), mult)
			spec := core.Spec{Incumbent: service("iPerf (Reno)"), Contender: service("Mega"), Net: net, Seed: seed}
			var bneck *netem.Bottleneck
			spec.Observe = func(tb *netem.Testbed) {
				tb.Bneck.StartSampling(250 * sim.Millisecond)
				bneck = tb.Bneck
			}
			res := l.runTrial(tb, spec)
			id := fmt.Sprintf("fig8/%dxbdp/", mult)
			out = append(out,
				l.trial(seed).row("Fig 8", id+"reno-mbps", res.Mbps[0], 1, "Mbps"),
				l.trial(seed).row("Fig 8", id+"mega-mbps", res.Mbps[1], 1, "Mbps"),
				l.trial(seed).row("Fig 8", id+"util", 100*res.Utilization, 0, "%"))
			if show != nil {
				capPkts := netem.QueueSizePackets(net.RateBps, net.RTT, mult)
				show(report.QueueSeries(fmt.Sprintf("[Fig 8] NewReno vs Mega @50 Mbps, %dxBDP (%d pkt) buffer:", mult, capPkts),
					bneck.Samples(), capPkts) + fmt.Sprintf("  reno=%.1f mega=%.1f Mbps util=%.0f%%\n", res.Mbps[0], res.Mbps[1], 100*res.Utilization))
			}
		}
		return out
	}}

	// Obs 11 reads the standing 4xBDP buffer from the cycle and runs the
	// 8xBDP one as a pair.
	obs11 = figure{
		cells: func(s setting) []row {
			var out []row
			for _, p := range obs11Pairs {
				if !s.is(p.net) {
					continue
				}
				id := "obs11/" + slug(p.inc) + "-vs-" + slug(p.cont) + "/4xbdp/"
				share, ok1 := s.res.SharePct(p.inc, p.cont)
				util, ok2 := s.res.Utilization(p.inc, p.cont)
				if ok1 && ok2 {
					out = append(out, s.src.row("Obs 11", id+"share", share, 0, "%"), s.src.row("Obs 11", id+"util", 100*util, 0, "%"))
				}
			}
			return out
		},
		runs: func(tb testing.TB, l *lab, _ func(string)) []row {
			var out []row
			for _, p := range obs11Pairs {
				o := l.runPair(tb, p.inc, p.cont, withBuffer(p.net, 8))
				id := "obs11/" + slug(p.inc) + "-vs-" + slug(p.cont) + "/8xbdp/"
				out = append(out, l.pair().row("Obs 11", id+"share", o.MedianSharePct(0), 0, "%"),
					l.pair().row("Obs 11", id+"util", 100*o.MedianUtilization(), 0, "%"))
			}
			return out
		},
	}

	fig9a = figure{runs: func(tb testing.TB, l *lab, _ func(string)) []row {
		var out []row
		for _, svc := range fig9Deployments {
			y22 := l.runPair(tb, svc+" 2022", "iPerf (BBR 4.15)", netem.ModeratelyConstrained()).MedianMbps(0)
			y23 := l.runPair(tb, svc, "iPerf (BBR 4.15)", netem.ModeratelyConstrained()).MedianMbps(0)
			change := 0.0
			if y22 > 0 {
				change = 100 * (y23 - y22) / y22
			}
			id := "fig9a/" + slug(svc) + "/"
			out = append(out, l.pair().row("Fig 9a", id+"2022-mbps", y22, 1, "Mbps"),
				l.pair().row("Fig 9a", id+"2023-mbps", y23, 1, "Mbps"),
				l.pair().row("Fig 9a", id+"change", change, 0, "%"))
		}
		return out
	}}

	fig9b = figure{runs: func(tb testing.TB, l *lab, _ func(string)) []row {
		var out []row
		for _, inc := range fig9Incumbents {
			for _, cont := range []string{"iPerf (BBR 4.15)", "iPerf (BBR)"} {
				p := l.runPair(tb, inc, cont, netem.ModeratelyConstrained())
				out = append(out, l.pair().row("Fig 9b", "fig9b/"+slug(inc)+"/vs-"+slug(cont), p.MedianMbps(0), 1, "Mbps"))
			}
		}
		return out
	}}

	table3 = figure{cells: func(s setting) []row {
		var out []row
		for k, r := range table3Rows {
			if !s.is(r.net) {
				continue
			}
			id := fmt.Sprintf("table3/row%d/", k+1)
			for _, c := range []struct{ name, inc, cont string }{
				{"beta-vs-alpha", r.beta, r.alpha}, {"gamma-vs-beta", r.gamma, r.beta}, {"gamma-vs-alpha", r.gamma, r.alpha},
			} {
				if v, ok := s.res.SharePct(c.inc, c.cont); ok {
					out = append(out, s.src.row("Table 3", id+c.name, v, 0, "%"))
				}
			}
		}
		return out
	}}

	// Fig 10 lists each counted trial's throughput of the bold service in
	// ascending order, as Sketch.Each visits it.
	fig10 = figure{cells: func(s setting) []row {
		if !s.is(netem.ModeratelyConstrained()) {
			return nil
		}
		var out []row
		for _, pr := range fig10Pairs {
			p, slot, ok := s.res.Cell(pr[0], pr[1])
			if !ok || p.Counted() == 0 {
				continue
			}
			id := "fig10/" + slug(pr[0]) + "/"
			k := 0
			p.Sketches.Mbps[slot].Each(func(v float64, count int64) {
				for ; count > 0; count-- {
					k++
					out = append(out, s.src.row("Fig 10", fmt.Sprintf("%strial%d", id, k), v, 0, "Mbps"))
				}
			})
			out = append(out, s.src.row("Fig 10", id+"iqr", p.Sketches.Mbps[slot].IQR(), 1, "Mbps"))
		}
		return out
	}}

	fig11 = figure{cells: func(s setting) []row {
		return cellRows(s, "Fig 11", "fig11/"+s.label(), 0, "%", func(inc, cont string) (float64, bool) {
			v, ok := s.res.Utilization(inc, cont)
			return 100 * v, ok
		})
	}}

	fig12 = figure{cells: func(s setting) []row {
		return cellRows(s, "Fig 12", "fig12/"+s.label(), 1, "%", func(inc, cont string) (float64, bool) {
			v, ok := s.res.LossRate(inc, cont)
			return 100 * v, ok
		})
	}}

	fig13 = figure{cells: func(s setting) []row {
		return cellRows(s, "Fig 13", "fig13/"+s.label(), 0, "ms", s.res.QueueDelayMs)
	}}

	ablationJitter = figure{runs: func(tb testing.TB, l *lab, _ func(string)) []row {
		var out []row
		for _, jitter := range []bool{true, false} {
			net, id := netem.ModeratelyConstrained(), "ablation/jitter/on/"
			if !jitter {
				net.NoJitter, id = true, "ablation/jitter/off/"
			}
			p := l.runPair(tb, "iPerf (Reno)", "iPerf (Cubic)", net)
			out = append(out, l.pair().row("Ablation jitter", id+"reno-mbps", p.MedianMbps(0), 1, "Mbps"),
				l.pair().row("Ablation jitter", id+"cubic-mbps", p.MedianMbps(1), 1, "Mbps"),
				l.pair().row("Ablation jitter", id+"reno-share", p.MedianSharePct(0), 0, "%"))
		}
		return out
	}}

	// The fragile-recovery ablation builds its own testbed, so it runs to
	// the horizon where the preset's trial window closes.
	ablationFragile = figure{runs: func(tb testing.TB, l *lab, _ func(string)) []row {
		const seed = 9
		t := l.timing(core.Spec{})
		horizon := t.Duration - t.Cooldown
		var out []row
		for _, fragile := range []bool{true, false} {
			eng := sim.NewEngine()
			// The 8 Mbps setting: Mega's bursts span a large fraction of
			// the 128-packet queue, so burst-loss episodes regularly take
			// out big chunks of a loss-based window.
			tbed := netem.NewTestbed(eng, netem.HighlyConstrained(), sim.NewRNG(seed))
			reno := transport.NewFlow(tbed, 0, cca.NewNewReno(cca.Config{}), transport.Options{FragileRecovery: fragile})
			reno.SetBulk()
			mega := service("Mega").Start(&services.Env{Eng: eng, TB: tbed, Slot: 1, RNG: sim.NewRNG(seed + 1)})
			eng.RunUntil(horizon)
			mega.Stop()
			mbps := func(slot int) float64 {
				return float64(tbed.Bneck.Stats(slot).DeliveredBytes) * 8 / horizon.Seconds() / 1e6
			}
			id := fmt.Sprintf("ablation/fragile/%v/", fragile)
			out = append(out, l.trial(seed).row("Ablation fragile", id+"reno-mbps", mbps(0), 2, "Mbps"),
				l.trial(seed).row("Ablation fragile", id+"mega-mbps", mbps(1), 2, "Mbps"),
				l.trial(seed).row("Ablation fragile", id+"collapses", float64(reno.Timeouts), 0, ""))
		}
		return out
	}}

	// Mega's batching against plain five-flow BBR: the cycle's Reno vs
	// Mega cell and Obs 4's Reno vs 5xBBR pair.
	ablationBatching = figure{
		cells: func(s setting) []row {
			if !s.is(netem.ModeratelyConstrained()) {
				return nil
			}
			if v, ok := s.res.SharePct("iPerf (Reno)", "Mega"); ok {
				return []row{s.src.row("Ablation batching", "ablation/batching/vs-mega", v, 0, "%")}
			}
			return nil
		},
		runs: func(tb testing.TB, l *lab, _ func(string)) []row {
			p := l.runPair(tb, "iPerf (Reno)", "iPerf (5xBBR)", netem.ModeratelyConstrained())
			return []row{l.pair().row("Ablation batching", "ablation/batching/vs-5xbbr", p.MedianSharePct(0), 0, "%")}
		},
	}

	ablationPipelining = figure{runs: func(tb testing.TB, l *lab, _ func(string)) []row {
		const seed = 6
		var out []row
		for _, depth := range []int{1, 2} {
			yt := services.YouTube(services.Year2023)
			yt.PipelineDepth = depth
			// The starving case is a saturated link with a queue-filling
			// competitor: every duty-cycle gap costs estimator samples.
			res := l.runTrial(tb, core.Spec{Incumbent: yt, Contender: service("iPerf (Reno)"), Net: netem.HighlyConstrained(), Seed: seed})
			id := fmt.Sprintf("ablation/pipeline/depth%d/", depth)
			out = append(out, l.trial(seed).row("Ablation pipelining", id+"mbps", res.Mbps[0], 2, "Mbps"),
				l.trial(seed).row("Ablation pipelining", id+"resolution", float64(res.ServiceStats[0].Video.DominantResolution), 0, "p"))
		}
		return out
	}}

	allFigures = []figure{table1, fig2, obs1, fig3, fig4, obs4, fig5, fig6, fig7, fig8, obs11, fig9a, fig9b,
		table3, fig10, fig11, fig12, fig13, ablationJitter, ablationFragile, ablationBatching, ablationPipelining}
)

// figuresFile is testdata/figures.json. Rows stay raw so that a
// recomputed row is compared byte for byte.
type figuresFile struct {
	Schema string            `json:"schema"`
	Preset preset            `json:"preset"`
	Rows   []json.RawMessage `json:"rows"`
}

// writeFigures writes rows one per line, so a diff names the row.
func writeFigures(path string, rows []row) error {
	var b bytes.Buffer
	fmt.Fprintf(&b, "{\n  \"schema\": %q,\n  \"preset\": %q,\n  \"rows\": [\n", figuresSchema, quick)
	for i, r := range rows {
		line, err := json.Marshal(r)
		if err != nil {
			return fmt.Errorf("%s: %v", r.ID, err)
		}
		b.WriteString("    ")
		b.Write(line)
		if i < len(rows)-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString("  ]\n}\n")
	return os.WriteFile(path, b.Bytes(), 0o644)
}

// committedFigures reads the artifact: the rows by id, and each row's
// committed bytes.
func committedFigures(tb testing.TB) (rows map[string]row, raw map[string][]byte) {
	tb.Helper()
	data, err := os.ReadFile(figuresPath)
	if err != nil {
		tb.Fatalf("%v (regenerate with go test -run TestFigures -update .)", err)
	}
	var f figuresFile
	if err := json.Unmarshal(data, &f); err != nil {
		tb.Fatalf("%s: %v", figuresPath, err)
	}
	if f.Schema != figuresSchema || f.Preset != quick {
		tb.Fatalf("%s: schema %q preset %q, want %q %q", figuresPath, f.Schema, f.Preset, figuresSchema, quick)
	}
	rows, raw = map[string]row{}, map[string][]byte{}
	for _, line := range f.Rows {
		var r row
		if err := json.Unmarshal(line, &r); err != nil {
			tb.Fatalf("%s: %s: %v", figuresPath, line, err)
		}
		if r.ID == "" || r.Figure == "" || r.Protocol == "" {
			tb.Fatalf("%s: row %s lacks an id, figure or protocol", figuresPath, line)
		}
		if _, dup := rows[r.ID]; dup {
			tb.Fatalf("%s: row %s appears twice", figuresPath, r.ID)
		}
		rows[r.ID], raw[r.ID] = r, line
	}
	for id := range paperValues {
		if _, ok := rows[id]; !ok {
			tb.Errorf("paperValues quotes row %s, which %s does not hold", id, figuresPath)
		}
	}
	return rows, raw
}

var (
	// spanRE matches an inline citation `<row id> = <value>`.
	spanRE = regexp.MustCompile("`([a-z0-9][a-z0-9./-]*) = ([^`]+)`")
	// figureHeadingRE matches the headings of the sections that must
	// cite a row.
	figureHeadingRE = regexp.MustCompile(`^(Table|Figs?|Obs|Ablations)\b`)
)

// checkCitations checks every `<row id> = <value>` span in a markdown
// document against the rows, and that every figure section (a "## "
// heading naming a table, figure, observation or the ablations) cites at
// least one.
func checkCitations(doc string, rows map[string]row) []string {
	var problems []string
	for _, sec := range strings.Split("\n"+doc, "\n## ")[1:] {
		heading, body, _ := strings.Cut(sec, "\n")
		cited := 0
		for _, m := range spanRE.FindAllStringSubmatch(strings.ReplaceAll(body, "\n", " "), -1) {
			cited++
			r, ok := rows[m[1]]
			switch {
			case !ok:
				problems = append(problems, fmt.Sprintf("%s: cites %s, which the artifact does not hold", heading, m[1]))
			case r.text() != m[2]:
				problems = append(problems, fmt.Sprintf("%s: committed %s, cited %s", m[1], r.text(), m[2]))
			}
		}
		if cited == 0 && figureHeadingRE.MatchString(heading) {
			problems = append(problems, fmt.Sprintf("figure section %q cites no row", heading))
		}
	}
	return problems
}

// pinnedRows recomputes the rows tier 1 checks: every cycle row of the
// 8 Mbps setting, from a one-setting watchdog, and Table 1's Netflix row.
func pinnedRows(tb testing.TB) []row {
	tb.Helper()
	var out []row
	s := watchdogCycle(tb, quick, standing[:1])[0]
	for _, f := range allFigures {
		if f.cells != nil {
			out = append(out, f.cells(s)...)
		}
	}
	return append(out, table1Row(tb, labFor(quick), service("Netflix")))
}

// TestFigures keeps testdata/figures.json reproducible and EXPERIMENTS.md
// true to it. With -update it rewrites the artifact from every figure
// under the quick preset. Otherwise it recomputes the pinned rows and
// requires each byte-equal to its committed row; under -short it checks
// only the artifact and the citations.
func TestFigures(t *testing.T) {
	if *update {
		l := labFor(quick)
		var all []row
		for _, f := range allFigures {
			all = append(all, l.rows(t, f, nil)...)
		}
		if err := writeFigures(figuresPath, all); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d rows to %s", len(all), figuresPath)
	}
	rows, raw := committedFigures(t)
	doc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range checkCitations(string(doc), rows) {
		t.Errorf("EXPERIMENTS.md: %s", p)
	}
	if testing.Short() || *update {
		return
	}
	for _, r := range pinnedRows(t) {
		got, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		committed, ok := raw[r.ID]
		switch {
		case !ok:
			t.Errorf("%s: not committed, recomputed %s", r.ID, r.text())
		case !bytes.Equal(committed, got) && rows[r.ID].text() != r.text():
			t.Errorf("%s: committed %s, recomputed %s", r.ID, rows[r.ID].text(), r.text())
		case !bytes.Equal(committed, got):
			t.Errorf("%s: committed %s, recomputed %s", r.ID, committed, got)
		}
	}
}
