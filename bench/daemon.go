package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"prudentia/internal/core"
	"prudentia/internal/obs"
	"prudentia/internal/serve"
	"prudentia/internal/sim"
	"prudentia/internal/trace"
)

// cycleRun is one RunCycle call as the benchmark saw it from outside.
type cycleRun struct {
	res          *core.CycleResult
	start, end   time.Time
	wall, cpu    float64
	publishMs    float64
	faultSummary string // the ledger summary the published text report carries
	span         int
}

// timedSource is the CycleSource the daemon drives: the real watchdog,
// with RunCycle stamped on the way in and out.
type timedSource struct {
	*core.Watchdog
	spans  *spanLog
	parent int

	mu   sync.Mutex
	runs []*cycleRun
}

func (t *timedSource) RunCycle() (*core.CycleResult, error) {
	run := &cycleRun{span: t.spans.start("core.RunCycle", t.parent), start: time.Now()}
	cpu0 := cpuSeconds()
	cr, err := t.Watchdog.RunCycle()
	run.end = time.Now()
	run.cpu = cpuSeconds() - cpu0
	run.wall = run.end.Sub(run.start).Seconds()
	run.res = cr
	t.spans.end(run.span)
	if err == nil {
		t.mu.Lock()
		t.runs = append(t.runs, run)
		t.mu.Unlock()
	}
	return cr, err
}

func (t *timedSource) snapshot() []*cycleRun {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*cycleRun(nil), t.runs...)
}

// instance is one booted daemon: everything set-up builds.
type instance struct {
	dir      string
	wd       *core.Watchdog
	src      *timedSource
	reg      *obs.Registry
	ledger   *trace.FaultLedger
	timeline *bytes.Buffer // the program's JSONL timeline, traced pass only
	srv      *serve.Server
	ln       net.Listener
	// The traffic a run makes from its seed: the submissions (those of
	// the write phase, then the pool the writes-beside-reads phase
	// cycles through) and a read schedule per connection and phase.
	posts     [][]byte
	schedules [][]pick
	// campaignDone closes when the last cycle is published.
	campaignDone chan struct{}
}

// besidePool is how many submissions the writes-beside-reads phase
// cycles through.
const besidePool = 1024

// boot is the set-up a run pays before its timed region: catalog and
// engine construction, the state directory, the daemon (which opens and
// fsyncs its submission WAL when durable), the loopback listener, and
// the traffic made from the seed.
func boot(w workload, cfg runConfig, rep int, spans *spanLog, root int) (*instance, error) {
	in := &instance{
		dir:          filepath.Join(cfg.outDir, "tmp", fmt.Sprintf("%s-%d-%d", w.name, os.Getpid(), rep)),
		reg:          obs.NewRegistry(),
		ledger:       &trace.FaultLedger{},
		campaignDone: make(chan struct{}),
	}
	if err := os.MkdirAll(in.dir, 0o755); err != nil {
		return nil, err
	}
	wd, err := newWatchdog(w.services, w.setting, cfg.seed)
	if err != nil {
		return nil, err
	}
	wd.Workers = w.workers()
	wd.OnFault = in.ledger.Record
	if w.adaptive {
		wd.Opts.Adaptive = &core.AdaptiveOptions{}
	}
	if w.trialsPerPair > 0 {
		wd.Opts.MinTrials, wd.Opts.MaxTrials = w.trialsPerPair, w.trialsPerPair
	}
	stateDir := ""
	if w.durable {
		stateDir = filepath.Join(in.dir, "state")
	}
	if w.journaled {
		wd.CheckpointPath = filepath.Join(stateDir, "checkpoint.json")
		wd.JournalPath = filepath.Join(stateDir, "trials.wal")
	}
	if w.instruments || cfg.traced {
		var tl *obs.Timeline
		if cfg.traced {
			in.timeline = &bytes.Buffer{}
			tl = obs.NewTimeline(in.timeline)
		}
		wd.Obs = core.NewInstruments(in.reg, tl)
	}
	in.wd = wd
	in.src = &timedSource{Watchdog: wd, spans: spans, parent: root}

	cycles := cfg.scale.cycles
	in.srv, err = serve.New(serve.Config{
		Source:        in.src,
		Ledger:        in.ledger,
		Registry:      in.reg,
		CycleInterval: -1,
		History:       8,
		MaxCycles:     cycles,
		// Raised so that no submission is refused by budget.
		SubmissionsMax: 1 << 30,
		TenantBurst:    1 << 30,
		DrainGrace:     -1,
		StateDir:       stateDir,
		OnCycle: func(cr *core.CycleResult) {
			published := time.Now()
			in.src.mu.Lock()
			run := in.src.runs[len(in.src.runs)-1]
			run.publishMs = published.Sub(run.end).Seconds() * 1e3
			run.faultSummary = in.ledger.Summary()
			in.src.mu.Unlock()
			spans.add("serve.publish", root, run.end, published)
			if cr.Cycle == cycles {
				close(in.campaignDone)
			}
		},
	})
	if err != nil {
		return nil, err
	}
	in.ln, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	in.posts = make([][]byte, cfg.scale.submits+besidePool)
	for i := range in.posts {
		in.posts[i] = postRequest(i)
	}
	in.schedules = make([][]pick, 2*genConns())
	for i := range in.schedules {
		in.schedules[i] = readSchedule(sim.NewRNG(cfg.seed*1_000_003 + uint64(i) + 1))
	}
	return in, nil
}

// shutdown stops a daemon that never ran its campaign (the discarded
// set-up repetitions): Run with a cancelled context closes the WAL and
// the listener.
func (in *instance) shutdown() error {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := in.srv.Run(ctx, in.ln)
	if rerr := os.RemoveAll(in.dir); err == nil {
		err = rerr
	}
	return err
}
