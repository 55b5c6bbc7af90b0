package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"prudentia/internal/core"
	"prudentia/internal/netem"
	"prudentia/internal/services"
)

// Worker tuning. dialTimeout bounds each connection attempt, and
// maxDialFailures bounds consecutive failed attempts before Run gives
// up: a coordinator restart must complete within roughly
// maxDialFailures × BackoffMax.
const (
	dialTimeout           = 5 * time.Second
	defaultWorkerReadTime = 15 * time.Second
	defaultBackoffBase    = 100 * time.Millisecond
	defaultBackoffMax     = 5 * time.Second
	maxDialFailures       = 20
)

// RejectedError is the terminal handshake failure: the coordinator
// refused this worker (configuration fingerprint or protocol mismatch).
// Reconnecting cannot help — the operator must fix the configuration —
// so Worker.Run returns it instead of retrying.
type RejectedError struct{ Detail string }

// Error returns the coordinator's rejection detail.
func (e *RejectedError) Error() string {
	return "fleet: coordinator rejected worker: " + e.Detail
}

// Worker executes pair tasks for a coordinator. It must be configured
// with the exact catalog, settings, and option derivation the
// coordinator's watchdog uses — that identity is what the hello
// fingerprint asserts, and what makes a remotely executed pair
// byte-identical to a local one.
type Worker struct {
	// Name identifies the worker to the coordinator; it keys lease
	// accounting and the coordinator-side breaker, and a reconnecting
	// worker with the same name replaces its previous registration.
	Name string

	// Coordinator is the coordinator's TCP address.
	Coordinator string

	// Capacity is how many pairs this worker runs concurrently
	// (announced in the hello; the coordinator never exceeds it).
	// Values below 1 mean 1.
	Capacity int

	// Fingerprint must match the coordinator's; see Fingerprint.
	Fingerprint uint64

	// Services and Settings are the catalog and network settings, in
	// the same order as the coordinator's.
	Services []services.Service
	Settings []netem.Config

	// Options derives the scheduler options for (cycle, setting) —
	// normally Watchdog.SettingOptions on an identically configured
	// watchdog, which is what makes every trial seed match the
	// coordinator's serial equivalent.
	Options func(cycle, setting int) core.SchedulerOptions

	// ReadTimeout is the idle deadline on coordinator reads. The
	// coordinator pings every HeartbeatInterval, so a silent connection
	// means the coordinator is dead, hung, or partitioned; the worker
	// then redials with backoff.
	ReadTimeout time.Duration

	// BackoffBase and BackoffMax shape the capped exponential redial
	// backoff.
	BackoffBase time.Duration
	BackoffMax  time.Duration

	// Progress, if non-nil, receives human-readable connection and task
	// lines. Called from task goroutines too: must be concurrency-safe.
	Progress func(format string, args ...any)
}

func (w *Worker) capacity() int {
	if w.Capacity > 0 {
		return w.Capacity
	}
	return 1
}

func (w *Worker) readTimeout() time.Duration {
	if w.ReadTimeout > 0 {
		return w.ReadTimeout
	}
	return defaultWorkerReadTime
}

// backoff returns the pause before attempt n (1-based): BackoffBase
// doubled per failure, capped at BackoffMax.
func (w *Worker) backoff(n int) time.Duration {
	base, cap := w.BackoffBase, w.BackoffMax
	if base <= 0 {
		base = defaultBackoffBase
	}
	if cap <= 0 {
		cap = defaultBackoffMax
	}
	d := base
	for i := 1; i < n && d < cap; i++ {
		d *= 2
	}
	if d > cap {
		d = cap
	}
	return d
}

func (w *Worker) progress(format string, args ...any) {
	if w.Progress != nil {
		w.Progress(format, args...)
	}
}

// Run connects to the coordinator and serves pair tasks until the
// coordinator sends shutdown (returns nil), rejects the handshake
// (returns *RejectedError), or the connection cannot be re-established
// within the backoff budget. Connection loss mid-session — a
// coordinator crash or partition — is survived by redialing with capped
// exponential backoff.
func (w *Worker) Run() error {
	fails := 0
	var lastErr error
	for {
		conn, err := net.DialTimeout("tcp", w.Coordinator, dialTimeout)
		if err != nil {
			fails++
			lastErr = err
			if fails >= maxDialFailures {
				return fmt.Errorf("fleet: worker %s: giving up after %d dial failures: %w", w.Name, fails, lastErr)
			}
			pause := w.backoff(fails)
			w.progress("fleet: dial %s failed (%v); retrying in %v", w.Coordinator, err, pause)
			time.Sleep(pause)
			continue
		}
		fails = 0
		err = w.serve(newFrameConn(conn))
		if err == nil {
			return nil
		}
		var rej *RejectedError
		if errors.As(err, &rej) {
			return err
		}
		fails++
		pause := w.backoff(fails)
		w.progress("fleet: connection lost (%v); reconnecting in %v", err, pause)
		time.Sleep(pause)
	}
}

// serve runs one connection's session: handshake, then a read loop
// answering pings and spawning task executions up to Capacity (enforced
// coordinator-side by lease accounting). It returns nil only for a
// clean shutdown. In-flight tasks are awaited before returning, so a
// dropped connection cannot pile up duplicate simulations across
// reconnects; their result writes fail harmlessly on the dead
// connection and the coordinator re-dispatches the pairs.
func (w *Worker) serve(fc *frameConn) (err error) {
	defer fc.close()
	var tasks sync.WaitGroup
	defer tasks.Wait()

	hello := &msg{
		Type:        msgHello,
		Schema:      Schema,
		Worker:      w.Name,
		Capacity:    w.capacity(),
		Fingerprint: w.Fingerprint,
	}
	if err := fc.write(hello, defaultWriteTimeout); err != nil {
		return fmt.Errorf("hello: %w", err)
	}
	m, err := fc.read(w.readTimeout())
	if err != nil {
		return fmt.Errorf("handshake: %w", err)
	}
	switch m.Type {
	case msgWelcome:
	case msgReject:
		return &RejectedError{Detail: m.Detail}
	case msgShutdown:
		return nil
	default:
		return fmt.Errorf("fleet: unexpected %s during handshake", m.Type)
	}
	w.progress("fleet: worker %s connected to %s", w.Name, w.Coordinator)

	for {
		m, err := fc.read(w.readTimeout())
		if err != nil {
			return err
		}
		switch m.Type {
		case msgPing:
			if err := fc.write(&msg{Type: msgPong, T: m.T}, defaultWriteTimeout); err != nil {
				return err
			}
		case msgAssign:
			if m.Task == nil || !w.validTask(m.Task) {
				return fmt.Errorf("fleet: invalid task in assign (lease %d)", m.Lease)
			}
			tasks.Add(1)
			go func(leaseID uint64, t core.PairTask) {
				defer tasks.Done()
				w.runTask(fc, leaseID, t)
			}(m.Lease, *m.Task)
		case msgShutdown:
			w.progress("fleet: worker %s shutting down: %s", w.Name, m.Detail)
			return nil
		default:
			return fmt.Errorf("fleet: unexpected message %q", m.Type)
		}
	}
}

// validTask bounds-checks an assignment against this worker's catalog.
func (w *Worker) validTask(t *core.PairTask) bool {
	return t.Setting >= 0 && t.Setting < len(w.Settings) &&
		t.A >= 0 && t.A <= t.B && t.B < len(w.Services)
}

// runTask executes one leased pair and reports the result. A failed
// result write is deliberately swallowed: it means the connection died,
// the read loop is already returning, and the coordinator will
// re-dispatch the pair — whose re-execution is byte-identical.
func (w *Worker) runTask(fc *frameConn, leaseID uint64, t core.PairTask) {
	opts := w.Options(t.Cycle, t.Setting)
	var events []core.FaultEvent
	outcome := core.RunPair(w.Services, w.Settings[t.Setting], opts, t, func(ev core.FaultEvent) { events = append(events, ev) })
	payload, err := json.Marshal(outcome)
	if err != nil {
		w.progress("fleet: encode outcome for pair %d|%d: %v", t.A, t.B, err)
		return
	}
	if werr := fc.write(&msg{Type: msgResult, Lease: leaseID, Outcome: payload, Events: events}, defaultWriteTimeout); werr == nil {
		w.progress("fleet: pair %d|%d (cycle %d, setting %d) done: %d trials",
			t.A, t.B, t.Cycle, t.Setting, outcome.Counted())
	}
}
