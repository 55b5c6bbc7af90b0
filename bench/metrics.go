package main

import (
	"fmt"
	"math"
	"sort"
)

// metric is one reported number. Every value is printed as measured,
// with all its digits.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef names one metric of the contract in BENCHMARK.json.
type metricDef struct {
	name, unit string
}

// endToEnd lists the metrics a user of the watchdog sees, in the order
// they print. Every workload reports every one of them (the untraced
// pass); bench_test.go checks this list against BENCHMARK.json.
var endToEnd = []metricDef{
	{"wall_s_per_verdict", "s"},
	{"cpu_s_per_verdict", "s"},
	{"read_rps", "1/s"},
	{"read_p50_us", "us"},
	{"read_p90_us", "us"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer lists the ledger of the traced pass, grouped by the package
// ("layer") each number is measured at. README.md says which end-to-end
// metric each one should move, and on which workload.
var perLayer = []metricDef{
	{"sim.cpu_s", "s"},
	{"sim.cpu_share", "ratio"},
	{"sim.probe_dispatch_ns", "ns"},
	{"sim.probe_deep_heap_ns", "ns"},
	{"sim.probe_timer_churn_ns", "ns"},

	{"netem.cpu_s", "s"},
	{"netem.packets_arrived", "count"},
	{"netem.packets_dropped", "count"},
	{"netem.drop_ratio", "ratio"},
	{"netem.probe_ns_per_packet", "ns"},

	{"transport.cpu_s", "s"},
	{"transport.retransmits", "count"},
	{"transport.timeouts", "count"},
	{"transport.retx_ratio", "ratio"},

	{"cca.cpu_s", "s"},
	{"cca.bbr_cpu_s", "s"},
	{"cca.solo_ms_per_simsec.bbr", "ms"},
	{"cca.solo_ms_per_simsec.cubic", "ms"},
	{"cca.solo_ms_per_simsec.reno", "ms"},

	{"services.cpu_s", "s"},
	{"services.solo_ms_per_simsec.youtube", "ms"},
	{"services.solo_ms_per_simsec.netflix", "ms"},
	{"services.solo_ms_per_simsec.vimeo", "ms"},
	{"services.solo_ms_per_simsec.dropbox", "ms"},
	{"services.solo_ms_per_simsec.gdrive", "ms"},
	{"services.solo_ms_per_simsec.onedrive", "ms"},
	{"services.solo_ms_per_simsec.mega", "ms"},

	{"core.cpu_s", "s"},
	{"core.trials_run", "count"},
	{"core.trials_counted", "count"},
	{"core.trials_discarded", "count"},
	{"core.trials_per_verdict", "ratio"},
	{"core.pairs_unstable", "count"},
	{"core.screen_trials", "count"},
	{"core.adaptive_trials_saved", "count"},
	{"core.simsec_per_wallsec", "ratio"},
	{"core.trial_wall_ms_p50", "ms"},
	{"core.trial_wall_ms_p95", "ms"},
	{"core.pool_busy_fraction", "ratio"},
	{"core.parallel_efficiency", "ratio"},
	{"core.checkpoint_saves", "count"},
	{"core.probe_checkpoint_save_ms", "ms"},

	{"stats.cpu_s", "s"},
	{"stats.probe_sketch_add_ns", "ns"},
	{"stats.probe_sequential_eval_ns", "ns"},
	{"stats.probe_median_ci_ns", "ns"},

	{"journal.records", "count"},
	{"journal.bytes", "count"},
	{"journal.probe_append_fsync_us_p50", "us"},
	{"journal.probe_append_fsync_us_p99", "us"},
	{"journal.probe_fsync_share", "ratio"},
	{"journal.probe_recover_mb_per_s", "MB/s"},

	{"report.render_text_ms", "ms"},
	{"report.render_json_ms", "ms"},
	{"report.render_html_ms", "ms"},
	{"report.bytes", "count"},

	{"serve.handler_ns", "ns"},
	{"serve.read_304_ratio", "ratio"},
	{"serve.metrics_p50_us", "us"},
	{"serve.publish_ms", "ms"},
	{"serve.read_p99_us", "us"},
	{"serve.submit_p50_us", "us"},
	{"serve.submit_p99_us", "us"},
	{"serve.read_beside_submit_p50_us", "us"},
	{"serve.read_beside_submit_p99_us", "us"},
	{"serve.submit_beside_read_p50_us", "us"},
	{"serve.read_under_cycle_p99_us", "us"},
	{"serve.wal_bytes", "count"},
	{"serve.cpu_s", "s"},
	{"serve.nethttp_cpu_s", "s"},
	{"serve.syscall_cpu_s", "s"},
	{"serve.runtime_cpu_s", "s"},
	{"serve.gen_cpu_share", "ratio"},
	{"serve.sim_cpu_share", "ratio"},

	{"obs.cpu_s", "s"},
	{"metrics.cpu_s", "s"},

	{"runtime.cpu_s", "s"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.mallocs_per_trial", "count"},
	{"runtime.gc_cycles", "count"},

	{"profile.cycle_total_cpu_s", "s"},
	{"profile.cycle_attributed_share", "ratio"},
	{"trace.cycle_wall_s", "s"},
	{"trace.overhead_pct", "%"},
}

// metricSet collects values against one of the lists above.
type metricSet map[string]metric

func (m metricSet) set(name string, v float64) { m[name] = metric{Value: v} }

// finish stamps units from defs and reports any name that is missing,
// unknown, or not a finite number, so a workload cannot silently drop a
// metric of the contract.
func (m metricSet) finish(defs []metricDef) error {
	known := make(map[string]bool, len(defs))
	for _, d := range defs {
		known[d.name] = true
		v, ok := m[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v.Value)
		}
		m[d.name] = metric{Value: v.Value, Unit: d.unit}
	}
	for name := range m {
		if !known[name] {
			return fmt.Errorf("metric %s is not in the contract", name)
		}
	}
	return nil
}

// percentile returns the q-quantile (0..1) of sorted by the
// nearest-rank rule, and how many samples lie strictly beyond that
// rank. An empty slice yields 0, 0.
func percentile(sorted []int64, q float64) (value int64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(q * float64(n)))
	rank = min(max(rank, 1), n)
	return sorted[rank-1], n - rank
}

// summary is the percentiles of one latency sample set, in
// microseconds, with its sample count.
type summary struct {
	n                          int
	p50us, p90us, p95us, p99us float64
	requestsPerSecond          float64
}

func summarize(ns []int64, elapsedSeconds float64) summary {
	sorted := append([]int64(nil), ns...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	us := func(q float64) float64 {
		v, _ := percentile(sorted, q)
		return float64(v) / 1e3
	}
	s := summary{n: len(sorted), p50us: us(0.50), p90us: us(0.90), p95us: us(0.95), p99us: us(0.99)}
	if elapsedSeconds > 0 {
		s.requestsPerSecond = float64(len(sorted)) / elapsedSeconds
	}
	return s
}

func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// windowed is one traffic phase cut into windows, each summarized by
// itself. The reported numbers are taken across the windows, not over
// the pooled samples: on a shared host, stretches of a run are slowed
// from outside, and a pooled number moves with how much of the run they
// covered. Interference only ever slows a unit of work down, so the
// least disturbed unit is the best estimate of what the program does,
// and every end-to-end timing is that of the best unit: the best read
// window, the best cycle, the quickest set-up. Measured over ten seeds
// on the 2-core sandbox while it was disturbed, the pooled read numbers
// spread (interquartile, as a share of the median) by 17-25%, the
// medians of twelve windows by 17-25% too, and the best window by
// 11-14%; the median of eight short cycles by 29%, the best by 19%.
// Submission blocks are few and bimodal (see README.md) and their
// medians were the steadier number, so the write phase, which is in the
// ledger only, reports the median block. Set-up is repeated 121 times
// because its quick repetitions are rare: between a disturbed and a
// quiet half-hour of the host the median of the 121 moved by 24-52%,
// their first decile by 12% and the quickest by 2-3%.
type windowed struct {
	n      int       // samples in all windows
	perWin int       // samples in the smallest window
	p50us  []float64 // per window
	p90us  []float64
	p99us  []float64
	rps    []float64
}

// cutByTime cuts connections' samples into n windows of equal length by
// send time.
func cutByTime(conns []connResult, n int) windowed {
	var t0, t1 int64
	for _, c := range conns {
		if len(c.sent) == 0 {
			continue
		}
		if t0 == 0 || c.sent[0] < t0 {
			t0 = c.sent[0]
		}
		t1 = max(t1, c.sent[len(c.sent)-1])
	}
	window := (t1-t0)/int64(n) + 1
	bins := make([][]int64, n)
	var w windowed
	for _, c := range conns {
		w.n += len(c.lat)
		for i, at := range c.sent {
			b := (at - t0) / window
			bins[b] = append(bins[b], c.lat[i])
		}
	}
	for _, b := range bins {
		w.add(b, float64(window)/1e9)
	}
	return w
}

// cutByCount cuts one connection's samples into consecutive blocks of
// the given size; a block's rate is its size over the time from its
// first send to its last reply.
func cutByCount(c connResult, block int) windowed {
	w := windowed{n: len(c.lat)}
	for lo := 0; lo+block <= len(c.lat); lo += block {
		hi := lo + block
		elapsed := float64(c.sent[hi-1]+c.lat[hi-1]-c.sent[lo]) / 1e9
		w.add(c.lat[lo:hi], elapsed)
	}
	return w
}

func (w *windowed) add(lat []int64, seconds float64) {
	s := summarize(lat, seconds)
	w.p50us = append(w.p50us, s.p50us)
	w.p90us = append(w.p90us, s.p90us)
	w.p99us = append(w.p99us, s.p99us)
	w.rps = append(w.rps, s.requestsPerSecond)
	if w.perWin == 0 || s.n < w.perWin {
		w.perWin = s.n
	}
}
