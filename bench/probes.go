package main

import (
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"prudentia/internal/core"
	"prudentia/internal/journal"
	"prudentia/internal/netem"
	"prudentia/internal/report"
	"prudentia/internal/services"
	"prudentia/internal/sim"
	"prudentia/internal/stats"
)

// Layer probes drive one layer alone through its public functions, the
// way the repo's micro-benchmarks do, so that a per-layer number exists
// even where the workload profile cannot separate the layer. They run
// in the traced pass only and take a few seconds together.

// probeSize scales a probe's iteration count; the smoke tests shrink
// it, a benchmark run uses 1.
type probeSize float64

func (k probeSize) of(n int) int { return max(50, int(float64(k)*float64(n))) }

// nsPerOp times n calls of op three times and returns the median.
func nsPerOp(n int, op func()) float64 {
	runs := make([]float64, 3)
	for r := range runs {
		start := time.Now()
		for i := 0; i < n; i++ {
			op()
		}
		runs[r] = float64(time.Since(start).Nanoseconds()) / float64(n)
	}
	return medianFloat(runs)
}

// probeSim mirrors internal/sim's BenchmarkEngine* on the public Engine:
// bare dispatch, dispatch with 4096 events pending, and the arm/cancel
// cycle flows perform on every ACK.
func probeSim(m metricSet, k probeSize) {
	{
		e := sim.NewEngine()
		var tick sim.Event
		tick = func(sim.Time) { e.After(sim.Microsecond, tick) }
		e.After(sim.Microsecond, tick)
		m.set("sim.probe_dispatch_ns", nsPerOp(k.of(2_000_000), func() { e.Step() }))
	}
	{
		e := sim.NewEngine()
		var tick sim.Event
		tick = func(sim.Time) { e.After(sim.Millisecond, tick) }
		for i := 0; i < 4096; i++ {
			e.After(sim.Time(i)*sim.Microsecond, tick)
		}
		m.set("sim.probe_deep_heap_ns", nsPerOp(k.of(1_000_000), func() { e.Step() }))
	}
	{
		e := sim.NewEngine()
		fn := func(sim.Time) {}
		t := e.NewTimer()
		var tick sim.Event
		tick = func(sim.Time) { e.After(sim.Microsecond, tick) }
		e.After(sim.Microsecond, tick)
		m.set("sim.probe_timer_churn_ns", nsPerOp(k.of(1_000_000), func() {
			t.Reset(sim.Millisecond, fn)
			t.Stop()
			e.Step()
		}))
	}
}

// probeNetem measures the saturated forwarding path: a fixed population
// of packets cycles through the drop-tail queue, the serializer and the
// downstream hop. The number is wall ns per packet delivered.
func probeNetem(m metricSet, k probeSize) {
	eng := sim.NewEngine()
	bn := netem.NewBottleneck(eng, 96_000_000, 64, sim.Millisecond)
	delivered := 0
	bn.Output = func(now sim.Time, p *netem.Packet) {
		delivered++
		bn.Enqueue(now, p)
	}
	pkts := make([]netem.Packet, 32)
	for i := range pkts {
		pkts[i] = netem.Packet{Size: 1500, Service: i % 2, Seq: int64(i)}
		bn.Enqueue(0, &pkts[i])
	}
	runs := make([]float64, 3)
	for r := range runs {
		before := delivered
		start := time.Now()
		for i := k.of(1_000_000); i > 0; i-- {
			eng.Step()
		}
		runs[r] = float64(time.Since(start).Nanoseconds()) / float64(delivered-before)
	}
	m.set("netem.probe_ns_per_packet", medianFloat(runs))
}

// probeStats times the three statistics calls a counted trial costs:
// a sketch Add, the sequential stopper on a nine-trial pair, and the
// median CI of nine samples.
func probeStats(m metricSet, k probeSize) {
	rng := sim.NewRNG(7)
	vals := make([]float64, 4096)
	for i := range vals {
		vals[i] = 100 * rng.Float64()
	}
	sk := stats.NewSketch()
	i := 0
	m.set("stats.probe_sketch_add_ns", nsPerOp(k.of(2_000_000), func() {
		sk.Add(vals[i&4095])
		i++
	}))

	s0, s1 := stats.NewSketch(), stats.NewSketch()
	for j := 0; j < 9; j++ {
		s0.Add(vals[j])
		s1.Add(vals[j+9])
	}
	policy := stats.SequentialPolicy{MinTrials: 2, MaxTrials: 9, MaxCIWidth: 10, StableK: 3, FairSharePct: stats.DefaultFairSharePct}
	prior := []bool{true, false}
	var sinkStop bool
	m.set("stats.probe_sequential_eval_ns", nsPerOp(k.of(200_000), func() {
		sinkStop = policy.EvaluateSketch(s0, s1, prior).Stop
	}))
	var sinkLo float64
	m.set("stats.probe_median_ci_ns", nsPerOp(k.of(200_000), func() {
		sinkLo, _ = s0.MedianCI()
	}))
	_, _ = sinkStop, sinkLo
}

// timedFile wraps the journal's file to time each fsync, so the fsync
// share of an append is separate from framing and the write.
type timedFile struct {
	journal.File
	syncNs int64
}

func (f *timedFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	f.syncNs += time.Since(start).Nanoseconds()
	return err
}

// probeJournal appends 2000 fsynced records through the public
// Create/Append path, then recovers the file with Open.
func probeJournal(m metricSet, dir string, k probeSize) error {
	path := filepath.Join(dir, "probe.wal")
	var tf *timedFile
	w, err := journal.CreateWrapped(path, func(f *os.File) journal.File {
		tf = &timedFile{File: f}
		return tf
	})
	if err != nil {
		return err
	}
	records := k.of(2000)
	result := []byte(`{"mbps":[3.91,3.87],"share_pct":[97.8,96.9],"utilization":0.97}`)
	lat := make([]int64, 0, records)
	tf.syncNs = 0
	var total int64
	for i := 0; i < records; i++ {
		start := time.Now()
		err := w.Append(journal.Entry{Seed: uint64(i) + 1, Pair: "iPerf (Cubic) vs iPerf (Reno)", Attempt: i, Kind: "ok", Result: result, SimSeconds: 60})
		d := time.Since(start).Nanoseconds()
		if err != nil {
			w.Close()
			return err
		}
		lat = append(lat, d)
		total += d
	}
	_, bytes := w.Stats()
	if err := w.Close(); err != nil {
		return err
	}
	s := summarize(lat, 0)
	m.set("journal.probe_append_fsync_us_p50", s.p50us)
	m.set("journal.probe_append_fsync_us_p99", s.p99us)
	m.set("journal.probe_fsync_share", float64(tf.syncNs)/float64(total))

	start := time.Now()
	w2, rec, err := journal.Open(path)
	elapsed := time.Since(start).Seconds()
	if err != nil {
		return err
	}
	w2.Close()
	if len(rec.Entries) != records {
		return fmt.Errorf("journal probe: recovered %d of %d records", len(rec.Entries), records)
	}
	m.set("journal.probe_recover_mb_per_s", float64(bytes)/1e6/elapsed)
	return os.Remove(path)
}

// probeCheckpoint interrupts a small cycle through the public Interrupt
// hook, loads the checkpoint it flushed, and times saving it again.
func probeCheckpoint(m metricSet, dir string, seed uint64) error {
	wd, err := newWatchdog([]string{"iPerf (Cubic)", "iPerf (Reno)", "Netflix", "OneDrive"}, netem.HighlyConstrained(), seed)
	if err != nil {
		return err
	}
	wd.CheckpointPath = filepath.Join(dir, "probe-checkpoint.json")
	var polls atomic.Int64
	// The hook is polled before each calibration and each trial: 24
	// polls is past the four calibrations and about six pairs into the
	// matrix of ten, so the checkpoint holds real pair outcomes.
	wd.Interrupt = func() bool { return polls.Add(1) > 24 }
	if _, err := wd.RunCycle(); !errors.Is(err, core.ErrInterrupted) {
		return fmt.Errorf("checkpoint probe: cycle was not interrupted: %v", err)
	}
	cp, err := core.LoadCheckpoint(wd.CheckpointPath)
	if err != nil {
		return err
	}
	runs := make([]float64, 15)
	for r := range runs {
		start := time.Now()
		if err := core.SaveCheckpoint(wd.CheckpointPath, cp); err != nil {
			return err
		}
		runs[r] = time.Since(start).Seconds() * 1e3
	}
	m.set("core.probe_checkpoint_save_ms", medianFloat(runs))
	return os.Remove(wd.CheckpointPath)
}

// soloProbes names the catalog services run alone, one quick trial each
// at the 8 Mbps setting: the three iPerf baselines isolate a CCA, the
// rest a service model on top of one.
var soloProbes = []struct{ metric, service string }{
	{"cca.solo_ms_per_simsec.bbr", "iPerf (BBR)"},
	{"cca.solo_ms_per_simsec.cubic", "iPerf (Cubic)"},
	{"cca.solo_ms_per_simsec.reno", "iPerf (Reno)"},
	{"services.solo_ms_per_simsec.youtube", "YouTube"},
	{"services.solo_ms_per_simsec.netflix", "Netflix"},
	{"services.solo_ms_per_simsec.vimeo", "Vimeo"},
	{"services.solo_ms_per_simsec.dropbox", "Dropbox"},
	{"services.solo_ms_per_simsec.gdrive", "Google Drive"},
	{"services.solo_ms_per_simsec.onedrive", "OneDrive"},
	{"services.solo_ms_per_simsec.mega", "Mega"},
}

func probeSolo(m metricSet, seed uint64) error {
	for _, p := range soloProbes {
		svc := services.ByName(p.service)
		if svc == nil {
			return fmt.Errorf("solo probe: no service %q in the catalog", p.service)
		}
		start := time.Now()
		res, err := core.RunSolo(svc, netem.HighlyConstrained(), seed, core.Spec.QuickTiming)
		wall := time.Since(start)
		if err != nil {
			return fmt.Errorf("solo probe %s: %w", p.service, err)
		}
		m.set(p.metric, wall.Seconds()*1e3/res.Obs.SimSeconds)
	}
	return nil
}

// discardWriter is the recording writer of the handler probe: it keeps
// the status and the body length and nothing else.
type discardWriter struct {
	h      http.Header
	status int
	n      int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(status int)      { w.status = status }
func (w *discardWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

// probeHandler calls the daemon's handler directly, no socket: what the
// cached read path costs by itself.
func probeHandler(m metricSet, h http.Handler, k probeSize) error {
	req, err := http.NewRequest(http.MethodGet, "/api/v1/report", nil)
	if err != nil {
		return err
	}
	w := &discardWriter{h: http.Header{}}
	m.set("serve.handler_ns", nsPerOp(k.of(300_000), func() { h.ServeHTTP(w, req) }))
	if w.status != http.StatusOK || w.n == 0 {
		return fmt.Errorf("handler probe: status %d, %d body bytes", w.status, w.n)
	}
	return nil
}

// probeReport times the three renders publish performs, on a real
// cycle result, and returns the text report for the digest.
func probeReport(m metricSet, cr *core.CycleResult, settings []netem.Config, svcs []services.Service, faultSummary string) error {
	const reps = 5
	var text string
	var jsonBody, html []byte
	ms := func(f func() error) (float64, error) {
		runs := make([]float64, reps)
		for r := range runs {
			start := time.Now()
			if err := f(); err != nil {
				return 0, err
			}
			runs[r] = time.Since(start).Seconds() * 1e3
		}
		sort.Float64s(runs)
		return runs[reps/2], nil
	}
	v, _ := ms(func() error { text = report.ReportText(cr, settings, svcs, faultSummary); return nil })
	m.set("report.render_text_ms", v)
	v, err := ms(func() (err error) { jsonBody, err = report.CycleJSON(cr, settings, svcs); return err })
	if err != nil {
		return err
	}
	m.set("report.render_json_ms", v)
	v, _ = ms(func() error { html = report.HeatmapHTML(cr, settings, svcs); return nil })
	m.set("report.render_html_ms", v)
	m.set("report.bytes", float64(len(text)+len(jsonBody)+len(html)))
	return nil
}
