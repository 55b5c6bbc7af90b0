// Package serve turns the watchdog engine into a long-running service:
// a campaign scheduler drives measurement cycles through a
// core.CycleSource, and a read-optimized HTTP API serves each completed
// cycle's artifacts — canonical JSON report, batch-identical text
// report, HTML heatmap, fault ledger — from an immutable per-cycle
// cache swapped atomically at cycle boundaries. /metrics is the one
// read route outside that cache: it encodes the live registry per
// request (obs.Registry.AppendPrometheus) and shares only the
// artifacts' write path.
//
// The design splits the world in two:
//
//   - The write side is one goroutine (the scheduler). It owns the
//     CycleSource exclusively — RunCycle, Submit, catalog reads all
//     happen here — so the engine keeps its single-threaded determinism
//     guarantees without any locking.
//   - The read side is lock-free. Every response body, ETag, and header
//     value is precomputed into an immutable cycleCache published with
//     one atomic pointer store; request handlers load the pointer,
//     assign precomputed header slices, and write precomputed bytes —
//     zero allocations on the hot path, byte-identical responses for a
//     given cycle no matter how many daemons, restarts, or requests.
//
// Third-party submissions (POST /api/v1/submissions) cross from the
// read side to the write side through a mutex-guarded queue with
// per-tenant token buckets; the handler refuses a wrong access code
// (403) before the queue sees it, and the scheduler drains the queue at
// cycle boundaries, so the catalog only ever changes between cycles.
package serve

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"

	"prudentia/internal/chaos"
	"prudentia/internal/core"
	"prudentia/internal/obs"
	"prudentia/internal/trace"
)

// Config assembles a Server. Source is required; everything else
// defaults sanely.
type Config struct {
	// Source is the measurement engine (usually *core.Watchdog). The
	// server drives it from a single goroutine; the caller must not use
	// it concurrently while the server runs.
	Source core.CycleSource
	// Deprecated: Ledger is read by nothing (/api/v1/faults and the text
	// report render each cycle's CycleResult.Faults); it remains until
	// bench/ drops its assignment.
	Ledger *trace.FaultLedger
	// Registry, if non-nil, backs /metrics and the per-route HTTP
	// instruments. Nil disables telemetry (handles degrade to no-ops).
	Registry *obs.Registry
	// CycleInterval is the pause between consecutive cycle starts,
	// lengthened by up to 20% per cycle (a deterministic function of the
	// cycle number, so a fleet of daemons started together
	// de-synchronizes without any wall-clock state leaking into
	// artifacts). Default 10m; negative means no pause.
	CycleInterval time.Duration
	// History is how many completed cycles stay addressable via
	// ?cycle=N (a ring; older cycles evict). Default 8, minimum 1.
	History int
	// MaxCycles stops measuring once this cycle number completes
	// (0 = forever). The HTTP API keeps serving the retained history
	// afterwards. The bound is on the global cycle number, not
	// cycles-per-process, so a restarted daemon finishes the same
	// campaign instead of starting a new one.
	MaxCycles int
	// SubmissionsMax caps the pending submission queue across all
	// tenants. Default 64.
	SubmissionsMax int
	// TenantBurst is each tenant's per-cycle submission budget.
	// Default 4.
	TenantBurst int
	// DrainTimeout bounds graceful shutdown (in-flight requests get
	// this long to finish). Default 5s.
	DrainTimeout time.Duration
	// DrainGrace is the pause between failing /readyz and closing the
	// listener on shutdown, giving load balancers one probe interval to
	// stop routing here before connections start being refused. Default
	// 500ms; negative disables.
	DrainGrace time.Duration
	// StateDir, when non-empty, makes the daemon crash-safe: every
	// accepted submission is logged to <StateDir>/subs.wal before its
	// 202 is sent, published cycle artifacts persist under
	// <StateDir>/cycles/, and on restart the history ring, tenant
	// budgets and unapplied submissions all rehydrate from disk. Empty
	// disables persistence (in-memory daemon).
	StateDir string
	// DiskChaos, when enabled, runs the daemon's durable writers — the
	// submission WAL, its compaction and the per-cycle artifact files —
	// through a seed-deterministic disk-fault plan. Test
	// instrumentation; nil in production.
	DiskChaos *chaos.DiskPlan
	// Log, if non-nil, receives human-readable daemon progress lines.
	Log func(format string, args ...any)
	// OnCycle, if non-nil, observes each completed cycle after its
	// artifacts are published (the CLI uses it to mirror the batch
	// report to stdout and export per-cycle telemetry).
	OnCycle func(cr *core.CycleResult)
}

// Server is the watchdog daemon: scheduler plus HTTP API.
type Server struct {
	cfg     Config
	cache   atomic.Pointer[cycleCache]
	tenants *tenantTable
	mux     *http.ServeMux

	// Resolved-once instrument handles (all nil-safe).
	mReport, mHeatmap, mFaults, mCycles obs.RouteInstruments
	mReportText                         obs.RouteInstruments
	cyclesPublished                     *obs.Counter
	subsAccepted, subsDenied            *obs.Counter
	readyGauge                          *obs.Gauge
	cycleFailures                       *obs.Counter
	degradedGauge, staleGauge           *obs.Gauge

	// retryAfter is the precomputed Retry-After value (in seconds) for
	// denials that clear at the next cycle boundary: one CycleInterval,
	// clamped to [1s, 1h].
	retryAfter string

	// wal is the durable submission store (nil without a StateDir).
	wal *subsWAL
	// startCycle is the first cycle number the campaign will run: 1
	// fresh, rehydrated-latest+1 after a restart.
	startCycle int
	// draining flips when shutdown begins; /readyz answers 503 from
	// then on (while the listener still accepts), so load balancers
	// stop routing before connections start failing.
	draining atomic.Bool
}

// New validates cfg, applies defaults, and builds the server and its
// routes. It does not start anything; call Run.
func New(cfg Config) (*Server, error) {
	if cfg.Source == nil {
		return nil, errors.New("serve: Config.Source is required")
	}
	if cfg.CycleInterval == 0 {
		cfg.CycleInterval = 10 * time.Minute
	}
	if cfg.History < 1 {
		cfg.History = 8
	}
	if cfg.SubmissionsMax <= 0 {
		cfg.SubmissionsMax = 64
	}
	if cfg.TenantBurst <= 0 {
		cfg.TenantBurst = 4
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 5 * time.Second
	}
	s := &Server{
		cfg:     cfg,
		tenants: newTenantTable(cfg.TenantBurst, cfg.SubmissionsMax),

		mReport:     obs.HTTPRoute(cfg.Registry, "report"),
		mReportText: obs.HTTPRoute(cfg.Registry, "report.txt"),
		mHeatmap:    obs.HTTPRoute(cfg.Registry, "heatmap"),
		mFaults:     obs.HTTPRoute(cfg.Registry, "faults"),
		mCycles:     obs.HTTPRoute(cfg.Registry, "cycles"),

		cyclesPublished: cfg.Registry.Counter("prudentia_serve_cycles_published_total"),
		subsAccepted:    cfg.Registry.Counter("prudentia_serve_submissions_accepted_total"),
		subsDenied:      cfg.Registry.Counter("prudentia_serve_submissions_denied_total"),
		readyGauge:      cfg.Registry.Gauge("prudentia_serve_ready"),
		cycleFailures:   cfg.Registry.Counter("prudentia_serve_cycle_failures_total"),
		degradedGauge:   cfg.Registry.Gauge("prudentia_serve_degraded"),
		staleGauge:      cfg.Registry.Gauge("prudentia_serve_stale_cycles"),
	}
	s.retryAfter = retryAfterSeconds(cfg.CycleInterval)
	s.startCycle = 1
	s.buildMux()
	if cfg.StateDir != "" {
		if err := s.recoverState(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// recoverState rebuilds the daemon's world from the state directory:
// open (and repair) the submission WAL, replay it into the tenant
// table, rehydrate the history ring from persisted cycle artifacts,
// continue the engine's cycle numbering (its first RunCycle resumes any
// interrupted cycle from the checkpoint header), and re-Submit
// submissions that were consumed by a cycle that never published. After it returns, /readyz is
// truthful immediately: ready if any completed cycle is servable.
func (s *Server) recoverState() error {
	dir := s.cfg.StateDir
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("serve: state dir: %w", err)
	}
	wal, rec, err := openSubsWAL(filepath.Join(dir, "subs.wal"), s.cfg.DiskChaos.WrapFunc())
	if err != nil {
		return err
	}
	if rec.Truncated {
		s.logf("serve: submission wal: truncated %d torn byte(s)", rec.TornBytes)
	}
	if werr := wal.stickyErr(); werr != nil {
		// Recovered state is intact; only new appends are refused (503
		// persistence_unavailable) until a cycle-boundary compaction
		// rewrites the file.
		s.logf("serve: submission wal degraded at startup: %v", werr)
	}
	resubmit := s.tenants.restore(rec)
	s.tenants.attachWAL(wal)
	s.wal = wal

	all, err := loadCycleDirs(dir, s.cfg.History)
	if err != nil {
		return err
	}
	if len(all) > 0 {
		cache, err := buildCycleCache(all, 0)
		if err != nil {
			return err
		}
		s.cache.Store(cache)
		s.readyGauge.Set(1)
		s.startCycle = all[len(all)-1].cycle + 1
		s.logf("serve: rehydrated cycles %d..%d from %s", all[0].cycle, all[len(all)-1].cycle, dir)
	}
	if s.startCycle > 1 {
		// Cycle numbers seed every trial; numbering must continue, not
		// restart, for a resumed daemon to stay byte-identical with an
		// uninterrupted one.
		if adv, ok := s.cfg.Source.(interface{ AdvanceTo(int) }); ok {
			adv.AdvanceTo(s.startCycle)
		}
	}
	// These submissions hold a durable apply record naming a cycle that
	// never published: the engine that consumed them died. Re-Submit so
	// they land in exactly the cycle their record promised.
	for _, sub := range resubmit {
		if err := s.cfg.Source.Submit(sub.url, sub.accessCode); err != nil {
			s.logf("serve: re-submit %q after restart: %v", sub.url, err)
			continue
		}
		s.logf("serve: re-submitted %q (accepted before restart; cycle never published)", sub.url)
	}
	return nil
}

// retryAfterSeconds renders a cycle interval as a whole-second
// Retry-After value, clamped to [1, 3600]: token budgets and queue
// space free up at the next cycle boundary, so the interval is the
// honest wait, but an hour is as far out as a polite server schedules a
// client.
func retryAfterSeconds(interval time.Duration) string {
	secs := int((interval + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	if secs > 3600 {
		secs = 3600
	}
	return strconv.Itoa(secs)
}

// Handler returns the daemon's HTTP handler (exposed for tests and for
// embedding under an outer mux).
func (s *Server) Handler() http.Handler { return s.mux }

// Latest reports the most recently published cycle number (0 before the
// first cycle completes).
func (s *Server) Latest() int {
	if c := s.cache.Load(); c != nil {
		return c.latest.cycle
	}
	return 0
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Log != nil {
		s.cfg.Log(format, args...)
	}
}

// Run serves the HTTP API on ln and drives the measurement campaign
// until ctx is cancelled, then drains in-flight requests and returns.
// A graceful interrupt (core.ErrInterrupted, context cancellation) is a
// clean nil return. Cycle failures do not stop the daemon: it keeps
// serving the last good artifacts in degraded mode and retries with
// capped backoff (see campaign).
//
// Shutdown sequence: /readyz flips to 503 first, the listener keeps
// accepting for DrainGrace (so load balancers observe the failure and
// stop routing), then the listener closes and in-flight requests get
// DrainTimeout to finish.
func (s *Server) Run(ctx context.Context, ln net.Listener) error {
	defer s.wal.close()
	httpSrv := &http.Server{Handler: s.mux}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	s.logf("serve: listening on %s", ln.Addr())

	campaignErr := s.campaign(ctx)
	if campaignErr == nil {
		// Campaign finished its cycle budget; keep serving the retained
		// history until the caller stops us.
		select {
		case <-ctx.Done():
		case err := <-serveErr:
			return fmt.Errorf("serve: http server: %w", err)
		}
	}

	s.draining.Store(true)
	s.readyGauge.Set(0)
	grace := s.cfg.DrainGrace
	if grace == 0 {
		grace = 500 * time.Millisecond
	}
	if grace > 0 {
		s.logf("serve: draining (readyz now 503; closing listener in %v)", grace)
		time.Sleep(grace)
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	shutErr := httpSrv.Shutdown(drainCtx)
	s.logf("serve: drained and stopped")

	switch {
	case campaignErr != nil && !errors.Is(campaignErr, core.ErrInterrupted) && !errors.Is(campaignErr, context.Canceled):
		return campaignErr
	case shutErr != nil:
		return fmt.Errorf("serve: shutdown: %w", shutErr)
	}
	return nil
}

// campaign is the write side: apply queued submissions, run a cycle,
// publish its artifacts, settle tenant state, sleep, repeat. A failed
// cycle (engine error or persistence failure) does not advance the
// cycle number or kill the loop: the daemon enters degraded mode —
// last good artifacts keep serving with staleness signals — and retries
// the same cycle after a capped exponential backoff. An engine failure
// leaves the engine's checkpoint header behind, so the retry resumes
// rather than restarts; a publish failure keeps the finished result and retries
// only the publish, so the number the submissions' apply records name
// is the number that gets published.
func (s *Server) campaign(ctx context.Context) error {
	failures := 0
	var unpublished *core.CycleResult // ran, not yet published
	for cycle := s.startCycle; s.cfg.MaxCycles == 0 || cycle <= s.cfg.MaxCycles; {
		if err := ctx.Err(); err != nil {
			return err
		}
		var err error
		if unpublished == nil {
			s.applySubmissions(cycle)
			unpublished, err = s.cfg.Source.RunCycle()
		}
		if err == nil {
			if perr := s.publish(unpublished); perr != nil {
				err = fmt.Errorf("serve: publish cycle %d: %w", unpublished.Cycle, perr)
			}
		}
		if err != nil {
			if errors.Is(err, core.ErrInterrupted) || errors.Is(err, context.Canceled) || ctx.Err() != nil {
				return err
			}
			failures++
			s.enterDegraded(failures, err)
			if !sleepBackoff(ctx, s.cfg.CycleInterval, failures) {
				return ctx.Err()
			}
			continue
		}
		cr := unpublished
		unpublished = nil
		if failures > 0 {
			s.logf("serve: recovered after %d failed attempt(s)", failures)
		}
		failures = 0
		s.logf("serve: published cycle %d (%d services)", cr.Cycle, len(s.cfg.Source.Catalog()))
		if s.cfg.OnCycle != nil {
			s.cfg.OnCycle(cr)
		}
		if err := s.tenants.cycleEnd(cr.Cycle); err != nil {
			s.logf("serve: submission wal compaction: %v", err)
		}
		if s.cfg.MaxCycles != 0 && cycle >= s.cfg.MaxCycles {
			return nil
		}
		cycle++
		if !sleepJittered(ctx, cycle, s.cfg.CycleInterval) {
			return ctx.Err()
		}
	}
	return nil
}

// enterDegraded records one failed cycle attempt: telemetry, a log
// line, a cache rebuild that stamps every response with staleness
// signals (Warning and X-Prudentia-Stale-Cycles headers, the degraded
// field in /api/v1/cycles). The retry resumes the interrupted cycle
// instead of re-running completed pairs: the failed RunCycle flushed
// its header and the next one reads it. Reads never see a 5xx out of
// this: the last good artifacts keep serving unchanged (same bytes,
// same ETags).
func (s *Server) enterDegraded(failures int, err error) {
	s.logf("serve: cycle failed (%d consecutive): %v — serving last good artifacts, will retry", failures, err)
	s.cycleFailures.Inc()
	s.degradedGauge.Set(1)
	s.staleGauge.Set(float64(failures))
	if old := s.cache.Load(); old != nil {
		if c, cerr := buildCycleCache(old.all, failures); cerr == nil {
			s.cache.Store(c)
		}
	}
}

// sleepBackoff pauses before retrying a failed cycle: the cycle
// interval (floored at 100ms) doubled per consecutive failure, capped
// at 16x the interval and 15 minutes. Deterministic, like the healthy
// path's jitter. Returns false if ctx ended the sleep.
func sleepBackoff(ctx context.Context, interval time.Duration, failures int) bool {
	base := interval
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	shift := failures - 1
	if shift > 4 {
		shift = 4
	}
	d := base << uint(shift)
	if d > 15*time.Minute {
		d = 15 * time.Minute
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// applySubmissions drains the pending queue into the engine and settles
// each submission with a durable apply record naming the upcoming
// cycle. Runs on the scheduler goroutine only, so Submit needs no
// locking. With a core.Watchdog source, Submit fails only on an accept
// an older build queued without checking its access code; that one is
// logged, recorded as a failed apply and dropped.
func (s *Server) applySubmissions(cycle int) {
	for _, sub := range s.tenants.drain() {
		err := s.cfg.Source.Submit(sub.url, sub.accessCode)
		s.tenants.settle(sub, cycle, err)
		if err != nil {
			s.logf("serve: submission %q from %s rejected: %v", sub.url, sub.tenant, err)
			continue
		}
		s.logf("serve: submission %q from %s joined the catalog", sub.url, sub.tenant)
	}
}

// sleepJittered pauses between cycles. The jitter is a deterministic
// function of the cycle number (FNV hash → [0, 0.2·interval)), so a
// fleet of daemons launched simultaneously spreads out without
// consulting anything nondeterministic. Returns false if ctx ended the
// sleep.
func sleepJittered(ctx context.Context, cycle int, interval time.Duration) bool {
	const frac = 0.2
	if interval <= 0 {
		return ctx.Err() == nil
	}
	h := fnv.New64a()
	var buf [8]byte
	for i := range buf {
		buf[i] = byte(cycle >> (8 * i))
	}
	h.Write(buf[:])
	jitter := time.Duration(float64(interval) * frac * (float64(h.Sum64()%1024) / 1024))
	t := time.NewTimer(interval + jitter)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
