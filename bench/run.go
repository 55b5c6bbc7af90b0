package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"prudentia/internal/core"
	"prudentia/internal/obs"
	"prudentia/internal/report"
)

// run is the state of one run of one workload, handed from step to
// step of runWorkload.
type run struct {
	w     workload
	cfg   runConfig
	res   *result
	spans *spanLog // nil in the untraced pass
	root  int      // the workload span

	in     *instance
	setups []float64 // seconds per set-up repetition

	runs       []*cycleRun
	cnt        counts
	wall, cpu  float64 // summed over the RunCycle calls
	underCycle connResult
	memBefore  runtime.MemStats
	memAfter   runtime.MemStats
	traffic    *trafficResult

	cycleProfile, serveProfile string // paths, traced pass only
}

// runWorkload runs one workload once and reports it. An error means
// the run could not be carried out; output-check failures come back in
// result.Problems with Correct false.
func runWorkload(w workload, cfg runConfig) (*result, error) {
	if err := os.MkdirAll(filepath.Join(cfg.outDir, "tmp"), 0o755); err != nil {
		return nil, err
	}
	r := &run{w: w, cfg: cfg, res: &result{
		Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds, Traced: cfg.traced,
		Environment: readEnvironment(filepath.Join(cfg.outDir, "tmp")),
		Metrics:     metricSet{},
		Samples:     map[string]int{},
		PerConn:     map[string][]int{},
	}}
	if cfg.traced {
		r.spans = newSpanLog(fmt.Sprintf("%s-seed%d", w.name, cfg.seed))
		r.cycleProfile = filepath.Join(cfg.outDir, "profile-"+w.name+"-cycles.pprof")
		r.serveProfile = filepath.Join(cfg.outDir, "profile-"+w.name+"-serve.pprof")
	}
	r.root = r.spans.start("workload:"+w.name, 0)
	if err := r.setUp(); err != nil {
		return nil, err
	}
	defer os.RemoveAll(r.in.dir)
	if err := r.serve(); err != nil {
		return nil, err
	}
	r.spans.end(r.root)
	r.check()
	if err := r.endToEnd(); err != nil {
		return nil, err
	}
	if cfg.traced {
		if err := r.ledger(); err != nil {
			return nil, err
		}
	}
	r.res.Correct = len(r.res.Problems) == 0
	return r.res, r.writeLast()
}

// setUp boots the daemon several times over; the quickest is setup_s
// and the last instance is the one that runs.
func (r *run) setUp() error {
	r.setups = make([]float64, r.cfg.scale.setupReps)
	for rep := range r.setups {
		if r.in != nil {
			if err := r.in.shutdown(); err != nil {
				return fmt.Errorf("set-up repetition %d: %w", rep, err)
			}
		}
		id := r.spans.start("setup", r.root)
		start := time.Now()
		var err error
		if r.in, err = boot(r.w, r.cfg, rep, r.spans, r.root); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		r.setups[rep] = time.Since(start).Seconds()
		r.spans.end(id)
	}
	runtime.GC()
	return nil
}

// profiled runs f under a CPU profile written to path; with no path
// (the untraced pass) it just runs f.
func profiled(path string, f func() error) error {
	if path == "" {
		return f()
	}
	p, err := startCPUProfile(path)
	if err != nil {
		return err
	}
	err = f()
	if serr := p.stop(); err == nil {
		err = serr
	}
	return err
}

// serve is the timed region: the daemon runs its campaign of cycles,
// then the traffic phases poll and submit to what it published, and the
// daemon is stopped.
func (r *run) serve() error {
	in := r.in
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runErr := make(chan error, 1)

	err := profiled(r.cycleProfile, func() error {
		runtime.ReadMemStats(&r.memBefore)
		go func() { runErr <- in.srv.Run(ctx, in.ln) }()
		probeStop := make(chan struct{})
		var probe sync.WaitGroup
		if r.cfg.traced {
			probe.Add(1)
			go func() {
				defer probe.Done()
				r.underCycle = probeUnderCycle(in.ln.Addr().String(), 5*time.Millisecond, probeStop)
			}()
		}
		select {
		case <-in.campaignDone:
		case err := <-runErr:
			return fmt.Errorf("daemon stopped before its campaign finished: %v", err)
		}
		close(probeStop)
		probe.Wait()
		runtime.ReadMemStats(&r.memAfter)
		return nil
	})
	if err != nil {
		return err
	}
	r.runs = in.src.snapshot()
	for _, c := range r.runs {
		r.wall += c.wall
		r.cpu += c.cpu
	}
	r.cnt = tally(r.runs)
	r.cnt.JournalRecords = in.reg.Counter("prudentia_journal_records_total").Value()
	r.res.Counts = r.cnt
	r.res.Cycles, r.res.CycleWall = len(r.runs), r.wall

	err = profiled(r.serveProfile, func() (err error) {
		r.traffic, err = runTraffic(r)
		return err
	})
	if err != nil {
		return err
	}
	cancel()
	if err := <-runErr; err != nil {
		return fmt.Errorf("daemon: %w", err)
	}
	return nil
}

// check is the output check on what the cycles delivered and what the
// daemon served of them (runTraffic has made the serving checks that
// need the socket). It also fixes the digest.
func (r *run) check() {
	res, wd := r.res, r.in.wd
	checkCycles(r.w, wd, r.runs, res)
	last := r.runs[len(r.runs)-1]
	lastText := report.ReportText(last.res, wd.Settings, wd.Services, last.faultSummary)
	if !bytes.Equal(r.traffic.reportText, []byte(lastText)) {
		res.problemf("/api/v1/report.txt (%d bytes) differs from report.ReportText of the last cycle (%d bytes)",
			len(r.traffic.reportText), len(lastText))
	}
	sum := sha256.Sum256([]byte(fmt.Sprintf("%s\n%d\n%d\n", lastText, r.cnt.PacketsArrived, r.cnt.TrialsRun)))
	res.Digest = fmt.Sprintf("%x", sum)
	if wd.Obs != nil {
		if started := r.in.reg.Counter("prudentia_trials_started_total").Value(); started != r.cnt.TrialsRun {
			res.problemf("registry counted %d trials started, the cycle results %d", started, r.cnt.TrialsRun)
		}
	}
	res.Attempted = r.cnt.TrialsRun + r.traffic.sent + int64(len(r.underCycle.lat)+r.underCycle.failed)
	res.Failed = r.cnt.TrialsFailed + r.cnt.PairsFailed + r.traffic.failed + int64(r.underCycle.failed)
	if res.Failed != 0 {
		res.problemf("%d of %d operations failed", res.Failed, res.Attempted)
	}
	if res.Environment.fsyncIsNotDisk() {
		res.Notes = append(res.Notes, fmt.Sprintf("WARNING: state directory is on %s, where fsync is not a disk write: serve.submit_* and journal.probe_* are optimistic", res.Environment.StateFS))
	}
}

// endToEnd computes the metrics of the untraced pass. The traced pass
// computes them too, for its sample counts, and then replaces them with
// the ledger.
func (r *run) endToEnd() error {
	var wallPerVerdict, cpuPerVerdict []float64
	for _, c := range r.runs {
		n := float64(verdicts(c.res))
		wallPerVerdict = append(wallPerVerdict, c.wall/n)
		cpuPerVerdict = append(cpuPerVerdict, c.cpu/n)
	}
	reads := r.traffic.reads
	m := r.res.Metrics
	// Every timing is that of the least disturbed unit (cycle, read
	// window, set-up repetition): see the comment on windowed.
	m.set("wall_s_per_verdict", slices.Min(wallPerVerdict))
	m.set("cpu_s_per_verdict", slices.Min(cpuPerVerdict))
	m.set("read_rps", slices.Max(reads.rps))
	m.set("read_p50_us", slices.Min(reads.p50us))
	m.set("read_p90_us", slices.Min(reads.p90us))
	m.set("setup_s", slices.Min(r.setups))
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	m.set("peak_rss_mb", rss)
	r.res.Samples["read"] = reads.n
	r.res.Samples["read_windows"] = len(reads.rps)
	r.res.Samples["read_per_window"] = reads.perWin
	r.res.Samples["submit"] = r.traffic.submits.n
	r.res.Samples["submit_blocks"] = len(r.traffic.submits.rps)
	if r.cfg.traced {
		return nil
	}
	return m.finish(endToEnd)
}

// ledger computes the per-layer metrics of the traced pass: counts off
// the cycle results and the registry, the two CPU profiles by package,
// the trial spans off the program's timeline, and the layer probes.
func (r *run) ledger() error {
	in, cnt, res := r.in, r.cnt, r.res
	m := metricSet{}
	res.Metrics = m
	counter := func(name string) float64 { return float64(in.reg.Counter(name).Value()) }
	m.set("netem.packets_arrived", float64(cnt.PacketsArrived))
	m.set("netem.packets_dropped", float64(cnt.PacketsDropped))
	m.set("netem.drop_ratio", ratio(float64(cnt.PacketsDropped), float64(cnt.PacketsArrived)))
	m.set("transport.retransmits", float64(cnt.Retransmits))
	m.set("transport.timeouts", float64(cnt.Timeouts))
	m.set("transport.retx_ratio", ratio(float64(cnt.Retransmits), float64(cnt.PacketsDeliv)))
	m.set("core.trials_run", float64(cnt.TrialsRun))
	m.set("core.trials_counted", float64(cnt.TrialsCounted))
	m.set("core.trials_discarded", float64(cnt.TrialsDiscarded))
	m.set("core.trials_per_verdict", float64(cnt.TrialsRun)/float64(cnt.Verdicts))
	m.set("core.pairs_unstable", float64(cnt.PairsUnstable))
	m.set("core.screen_trials", counter("prudentia_adaptive_screen_trials_total"))
	m.set("core.adaptive_trials_saved", counter("prudentia_adaptive_trials_saved_total"))
	m.set("core.simsec_per_wallsec", cnt.SimSeconds/r.wall)
	m.set("core.pool_busy_fraction", in.reg.Gauge("prudentia_pool_busy_wall_fraction").Value())
	m.set("core.parallel_efficiency", r.cpu/(r.wall*float64(r.w.workers())))
	m.set("core.checkpoint_saves", counter("prudentia_checkpoint_saves_total"))
	m.set("journal.records", float64(cnt.JournalRecords))
	m.set("journal.bytes", counter("prudentia_journal_bytes_total"))
	m.set("runtime.alloc_mb", float64(r.memAfter.TotalAlloc-r.memBefore.TotalAlloc)/1e6)
	m.set("runtime.mallocs_per_trial", float64(r.memAfter.Mallocs-r.memBefore.Mallocs)/float64(cnt.TrialsRun))
	m.set("runtime.gc_cycles", float64(r.memAfter.NumGC-r.memBefore.NumGC))
	m.set("trace.cycle_wall_s", r.wall)
	m.set("trace.overhead_pct", r.overheadPct())

	trialWalls, err := trialSpans(in.timeline, r.runs, r.spans)
	if err != nil {
		return err
	}
	tw := summarize(trialWalls, 0)
	res.Samples["trial_wall"] = tw.n
	m.set("core.trial_wall_ms_p50", tw.p50us/1e3)
	m.set("core.trial_wall_ms_p95", tw.p95us/1e3)

	var publish []float64
	for _, c := range r.runs {
		publish = append(publish, c.publishMs)
	}
	m.set("serve.publish_ms", medianFloat(publish))
	uc := summarize(r.underCycle.lat, 0)
	m.set("serve.read_under_cycle_p99_us", uc.p99us)
	res.Samples["read_under_cycle"] = uc.n
	r.traffic.ledger(m)

	if err := profileLedger(m, r.cycleProfile, r.serveProfile, r.w, res); err != nil {
		return err
	}

	id := r.spans.start("probes", 0)
	k := r.cfg.scale.probes
	probeSim(m, k)
	probeNetem(m, k)
	probeStats(m, k)
	if err := probeJournal(m, in.dir, k); err != nil {
		return err
	}
	if err := probeCheckpoint(m, in.dir, r.cfg.seed); err != nil {
		return err
	}
	if err := probeSolo(m, r.cfg.seed); err != nil {
		return err
	}
	if err := probeHandler(m, in.srv.Handler(), k); err != nil {
		return err
	}
	last := r.runs[len(r.runs)-1]
	rid := r.spans.start("report.render", id)
	err = probeReport(m, last.res, in.wd.Settings, in.wd.Services, last.faultSummary)
	r.spans.end(rid)
	if err != nil {
		return err
	}
	r.spans.end(id)

	if err := m.finish(perLayer); err != nil {
		return err
	}
	return r.spans.write(filepath.Join(r.cfg.outDir, "trace-"+r.w.name+".jsonl"))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// verdicts is the number of pair verdicts one cycle delivered.
func verdicts(cr *core.CycleResult) int {
	n := 0
	for _, m := range cr.PerSetting {
		n += len(m.Pairs)
	}
	return n
}

// tally reads the exact counts off the cycle results.
func tally(runs []*cycleRun) counts {
	var c counts
	for _, r := range runs {
		c.Verdicts += int64(verdicts(r.res))
		for _, m := range r.res.PerSetting {
			for _, p := range m.Pairs {
				c.TrialsRun += int64(p.Counted() + p.Discards + p.Corrupt + len(p.Failures))
				c.TrialsCounted += int64(p.Counted())
				c.TrialsDiscarded += int64(p.Discards)
				c.TrialsFailed += int64(p.Corrupt + len(p.Failures))
				if p.Failed {
					c.PairsFailed++
				}
				if p.Unstable {
					c.PairsUnstable++
				}
				if sk := p.Sketches; sk != nil {
					c.PacketsArrived += sk.Obs.ArrivedPackets
					c.PacketsDropped += sk.Obs.DroppedPackets
					c.PacketsDeliv += sk.Obs.DeliveredPackets
					c.Retransmits += sk.Obs.Retransmits
					c.Timeouts += sk.Obs.Timeouts
					c.SimSeconds += sk.Obs.SimSeconds
				}
			}
		}
	}
	return c
}

// checkCycles is the output check on what the cycles delivered: every
// pair of every cycle has a verdict, none Failed or Skipped, counted
// trials within the protocol's bounds, shares and utilization in range.
func checkCycles(w workload, wd *core.Watchdog, runs []*cycleRun, res *result) {
	n := len(wd.Services)
	wantPairs := n * (n + 1) / 2
	opts := wd.SettingOptions(1, 0)
	minTrials, maxTrials := opts.MinTrials, opts.MaxTrials
	if w.adaptive {
		minTrials = 2 // AdaptiveOptions' default floor
	}
	for _, r := range runs {
		for si, m := range r.res.PerSetting {
			if len(m.Pairs) != wantPairs {
				res.problemf("cycle %d setting %d: %d pairs, want %d", r.res.Cycle, si, len(m.Pairs), wantPairs)
			}
			for key, p := range m.Pairs {
				label := fmt.Sprintf("cycle %d pair %s (%s vs %s)", r.res.Cycle, key, p.Incumbent, p.Contender)
				if p.Failed || p.Skipped {
					res.problemf("%s: failed=%v skipped=%v", label, p.Failed, p.Skipped)
					continue
				}
				if c := p.Counted(); c < minTrials || c > maxTrials {
					res.problemf("%s: %d counted trials outside [%d, %d]", label, c, minTrials, maxTrials)
				}
				for slot := 0; slot < 2; slot++ {
					if s := p.MedianSharePct(slot); math.IsNaN(s) || s < 0 || s > 250 {
						res.problemf("%s: slot %d median share %v%% out of range", label, slot, s)
					}
				}
				if u := p.MedianUtilization(); math.IsNaN(u) || u < 0 || u > 1.05 {
					res.problemf("%s: median utilization %v out of range", label, u)
				}
			}
		}
	}
}

// trialSpans turns the program's own timeline events into trial spans
// under the RunCycle that ran them, and returns the trial wall times.
func trialSpans(timeline *bytes.Buffer, runs []*cycleRun, spans *spanLog) ([]int64, error) {
	events, err := obs.ReadTimeline(bytes.NewReader(timeline.Bytes()))
	if err != nil {
		return nil, fmt.Errorf("timeline: %w", err)
	}
	var walls []int64
	for _, ev := range events {
		if ev.Kind != "trial_ok" {
			continue
		}
		end := time.UnixMilli(ev.WallMs)
		wall := time.Duration(ev.WallSeconds * float64(time.Second))
		walls = append(walls, wall.Nanoseconds())
		parent := 0
		for _, r := range runs {
			// Timeline stamps are whole milliseconds.
			if !end.Before(r.start.Truncate(time.Millisecond)) && !end.After(r.end) {
				parent = r.span
			}
		}
		spans.add("core.trial:"+ev.Pair, parent, end.Add(-wall), end)
	}
	return walls, nil
}

// profileLedger reduces the two CPU profiles of a traced run to the
// per-layer cpu_s values and applies the generator-honesty limit.
func profileLedger(m metricSet, cyclePath, servePath string, w workload, res *result) error {
	cyc, err := pprofTop(cyclePath)
	if err != nil {
		return err
	}
	var named float64
	for _, l := range []string{"sim", "netem", "transport", "cca", "services", "core", "stats", "obs", "metrics", "runtime"} {
		m.set(l+".cpu_s", cyc.byLayer[l])
		named += cyc.byLayer[l]
	}
	m.set("sim.cpu_share", cyc.share("sim"))
	m.set("cca.bbr_cpu_s", cyc.bbr)
	if w.services != nil && cyc.bbr != 0 {
		// Only the loss-based catalog is ever restricted; it has no BBR
		// service, which is what separates it from the full catalog.
		res.problemf("%.2f s of profile samples in BBR functions on a catalog without a BBR service", cyc.bbr)
	}
	m.set("profile.cycle_total_cpu_s", cyc.total)
	m.set("profile.cycle_attributed_share", ratio(named, cyc.total))

	srv, err := pprofTop(servePath)
	if err != nil {
		return err
	}
	gen, err := pprofTop(servePath, "-tagfocus=role=gen")
	if err != nil {
		return err
	}
	m.set("serve.cpu_s", srv.byLayer["serve"])
	m.set("serve.nethttp_cpu_s", srv.byLayer["nethttp"])
	m.set("serve.syscall_cpu_s", srv.byLayer["syscall"])
	m.set("serve.runtime_cpu_s", srv.byLayer["runtime"])
	simShare := srv.share("sim", "netem", "cca", "transport", "services")
	m.set("serve.sim_cpu_share", simShare)
	if simShare > 0.01 {
		res.problemf("the simulator layers used %.1f%% of CPU in the traffic phases, when the campaign had finished", 100*simShare)
	}
	genShare := ratio(gen.attributed(), srv.total)
	m.set("serve.gen_cpu_share", genShare)
	if genShare > 0.5 {
		res.problemf("the load generator used %.0f%% of process CPU in the traffic phases: the numbers measure the generator", 100*genShare)
	}
	return nil
}

// lastPath is where a run's whole result is left in bench/out.
func lastPath(outDir, workload string, traced bool) string {
	trace := 0
	if traced {
		trace = 1
	}
	return filepath.Join(outDir, fmt.Sprintf("last-%s-trace%d.json", workload, trace))
}

func (r *run) writeLast() error {
	data, err := json.MarshalIndent(r.res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(lastPath(r.cfg.outDir, r.w.name, r.cfg.traced), append(data, '\n'), 0o644)
}

// overheadPct is traced cycle wall over untraced cycle wall, minus one,
// in percent. It needs the untraced run of the same seed and cycle
// count to have gone before (as `go run ./bench` without -workload
// does); without one it is 0 and a note says so.
func (r *run) overheadPct() float64 {
	var prev result
	data, err := os.ReadFile(lastPath(r.cfg.outDir, r.w.name, false))
	if err == nil {
		err = json.Unmarshal(data, &prev)
	}
	if err != nil || prev.Seed != r.cfg.seed || prev.Cycles != r.res.Cycles || prev.CycleWall == 0 {
		r.res.Notes = append(r.res.Notes, "trace.overhead_pct is 0: no untraced run of this seed and size has been made in bench/out to compare with")
		return 0
	}
	return 100 * (r.wall/prev.CycleWall - 1)
}
