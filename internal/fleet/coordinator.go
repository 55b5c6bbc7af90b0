package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"prudentia/internal/chaos"
	"prudentia/internal/core"
	"prudentia/internal/obs"
)

// Default tuning. Tests override these with much smaller values; the
// defaults assume real matrices whose pairs take seconds to minutes.
const (
	defaultHeartbeatInterval = 500 * time.Millisecond
	defaultHeartbeatTimeout  = 5 * time.Second
	defaultLeaseTTL          = 2 * time.Minute
	defaultWriteTimeout      = 5 * time.Second
	dispatchTick             = 25 * time.Millisecond
)

// Coordinator owns the fleet: it listens for workers, shards pending
// pairs across them under expiring leases, and implements
// core.RemoteRunner so a Matrix merges fleet results through its
// canonical ordered-release path. Configure the exported fields before
// Start; they must not change afterwards.
//
// Failure model (see ARCHITECTURE.md's failure matrix): a worker that
// dies, hangs, or is partitioned stops answering heartbeats (or its
// connection errors outright); its leased pairs are re-queued for the
// survivors. A slow worker keeps its lease past the TTL: the pair is
// re-dispatched redundantly, and whichever execution reports first
// wins — the loser is counted as a duplicate and dropped, which is
// sound because both executions are byte-identical by construction.
// Coordinator death is survived by the ordinary checkpoint+journal
// recovery path; workers redial with capped exponential backoff until
// the coordinator returns.
type Coordinator struct {
	// ListenAddr is the TCP address to listen on ("127.0.0.1:0" picks
	// a free port; read it back with Addr).
	ListenAddr string

	// Fingerprint is the deterministic-configuration hash workers must
	// present in their hello; see Fingerprint.
	Fingerprint uint64

	// HeartbeatInterval is the ping cadence per worker connection;
	// HeartbeatTimeout is the per-read deadline after which a silent
	// worker is declared dead. Timeout should be several intervals.
	HeartbeatInterval time.Duration
	HeartbeatTimeout  time.Duration

	// LeaseTTL bounds how long one assignment may stay outstanding
	// before the pair is redundantly re-dispatched to another worker.
	LeaseTTL time.Duration

	// Breakers, if non-nil, quarantines flapping workers with the same
	// state machine the watchdog uses for sick services, keyed by
	// worker name: +2 per disconnect or heartbeat timeout, +1 per lease
	// expiry; an open worker gets exactly one canary pair when idle.
	// The coordinator allocates its own private set when nil. All
	// access is serialized under the coordinator's lock.
	Breakers *core.BreakerSet

	// Chaos, if non-nil, supplies budgeted coordinator↔worker partition
	// faults (chaos.Config.PartitionFor), consulted at assignment time.
	Chaos *chaos.Config

	// OnFault, if non-nil, receives chaos partition events for the
	// fault ledger. Called with the coordinator lock held from internal
	// goroutines: the hook must be fast, concurrency-safe with respect
	// to other ledger writers, and must not call back into the
	// coordinator.
	OnFault func(ev core.FaultEvent)

	// Progress, if non-nil, receives human-readable fleet membership
	// and re-dispatch lines. Called from internal goroutines: must be
	// concurrency-safe and must not call back into the coordinator.
	Progress func(format string, args ...any)

	// Obs, if non-nil, receives fleet telemetry (see Instruments).
	Obs *Instruments

	mu       sync.Mutex
	ln       net.Listener
	workers  map[string]*remoteWorker
	run      *dispatchState
	leaseSeq uint64
	partSeq  uint64
	closed   bool
	kick     chan struct{}
}

// remoteWorker is the coordinator's view of one connected worker.
type remoteWorker struct {
	name     string
	fc       *frameConn
	capacity int
	// leases holds the ids of this worker's outstanding assignments.
	leases map[uint64]struct{}
	// probing marks a worker running its half-open canary pair.
	probing bool
	dead    bool
	// gone is closed exactly once when the worker is dropped; the ping
	// loop selects on it.
	gone chan struct{}
}

// dispatchState tracks one RunPairs call.
type dispatchState struct {
	tasks     []core.PairTask
	done      []bool
	pending   []int
	leases    map[uint64]*lease
	out       chan core.PairTaskResult
	remaining int
}

// lease is one outstanding assignment. An expired lease is kept (the
// straggler's late result is still acceptable, and its capacity slot
// stays occupied so stragglers are not fed more work) but its pair is
// re-queued for redundant dispatch.
type lease struct {
	id       uint64
	task     int
	worker   *remoteWorker
	deadline time.Time
	expired  bool
}

func (c *Coordinator) heartbeatInterval() time.Duration {
	if c.HeartbeatInterval > 0 {
		return c.HeartbeatInterval
	}
	return defaultHeartbeatInterval
}

func (c *Coordinator) heartbeatTimeout() time.Duration {
	if c.HeartbeatTimeout > 0 {
		return c.HeartbeatTimeout
	}
	return defaultHeartbeatTimeout
}

func (c *Coordinator) leaseTTL() time.Duration {
	if c.LeaseTTL > 0 {
		return c.LeaseTTL
	}
	return defaultLeaseTTL
}

func (c *Coordinator) progress(format string, args ...any) {
	if c.Progress != nil {
		c.Progress(format, args...)
	}
}

// breakers returns the worker breaker set, allocating a private one on
// first use. Callers hold c.mu.
func (c *Coordinator) breakers() *core.BreakerSet {
	if c.Breakers == nil {
		c.Breakers = &core.BreakerSet{}
	}
	return c.Breakers
}

// Start binds the listener and begins admitting workers.
func (c *Coordinator) Start() error {
	ln, err := net.Listen("tcp", c.ListenAddr)
	if err != nil {
		return fmt.Errorf("fleet: listen %s: %w", c.ListenAddr, err)
	}
	c.mu.Lock()
	c.ln = ln
	c.workers = make(map[string]*remoteWorker)
	c.kick = make(chan struct{}, 1)
	c.mu.Unlock()
	go c.acceptLoop(ln)
	return nil
}

// Addr returns the bound listen address (useful with ":0").
func (c *Coordinator) Addr() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ln == nil {
		return ""
	}
	return c.ln.Addr().String()
}

// BreakerStatus snapshots the worker breaker set (under the
// coordinator's lock, since the set itself is not concurrency-safe).
func (c *Coordinator) BreakerStatus() []obs.BreakerInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.breakers().Status()
}

// WaitForWorkers blocks until at least n workers are connected, the
// timeout passes, or the coordinator closes.
func (c *Coordinator) WaitForWorkers(n int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		c.mu.Lock()
		live, closed := len(c.workers), c.closed
		c.mu.Unlock()
		if closed {
			return errors.New("fleet: coordinator closed")
		}
		if live >= n {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("fleet: only %d of %d workers connected after %v", live, n, timeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Close shuts the fleet down: workers get a best-effort shutdown
// message (so they exit cleanly instead of entering reconnect backoff)
// and the listener stops admitting.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	ln := c.ln
	ws := make([]*remoteWorker, 0, len(c.workers))
	for _, w := range c.workers {
		ws = append(ws, w)
	}
	c.mu.Unlock()
	if ln != nil {
		_ = ln.Close()
	}
	for _, w := range ws {
		_ = w.fc.write(&msg{Type: msgShutdown, Detail: "coordinator closing"}, time.Second)
		c.dropWorker(w, "shutdown", false)
	}
	return nil
}

func (c *Coordinator) acceptLoop(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		go c.admit(conn)
	}
}

// admit runs the hello/welcome handshake on a fresh connection and, on
// success, registers the worker and starts its read and ping loops. A
// reconnecting worker re-using its name replaces its old registration
// (latest wins; the stale connection's leases are re-queued).
func (c *Coordinator) admit(conn net.Conn) {
	fc := newFrameConn(conn)
	hello, err := fc.read(c.heartbeatTimeout())
	if err != nil || hello.Type != msgHello {
		fc.close()
		return
	}
	reject := func(detail string) {
		c.Obs.workerRejected()
		c.progress("fleet: rejected worker %q: %s", hello.Worker, detail)
		_ = fc.write(&msg{Type: msgReject, Detail: detail}, defaultWriteTimeout)
		fc.close()
	}
	if hello.Schema != Schema {
		reject(fmt.Sprintf("protocol %q, want %q", hello.Schema, Schema))
		return
	}
	if hello.Worker == "" {
		reject("worker name required")
		return
	}
	if hello.Fingerprint != c.Fingerprint {
		reject(fmt.Sprintf("configuration fingerprint %x, coordinator has %x: catalog, settings, seed, and resolved options must match exactly",
			hello.Fingerprint, c.Fingerprint))
		return
	}
	w := &remoteWorker{
		name:     hello.Worker,
		fc:       fc,
		capacity: max(hello.Capacity, 1),
		leases:   make(map[uint64]struct{}),
		gone:     make(chan struct{}),
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		_ = fc.write(&msg{Type: msgShutdown, Detail: "coordinator closing"}, time.Second)
		fc.close()
		return
	}
	if old := c.workers[w.name]; old != nil {
		c.dropWorkerLocked(old, "replaced by reconnect", false)
	}
	c.workers[w.name] = w
	live := len(c.workers)
	c.Obs.joined(live)
	c.mu.Unlock()
	if err := fc.write(&msg{Type: msgWelcome}, defaultWriteTimeout); err != nil {
		c.dropWorker(w, fmt.Sprintf("welcome: %v", err), true)
		return
	}
	c.progress("fleet: worker %s joined (capacity %d, %d live)", w.name, w.capacity, live)
	go c.readLoop(w)
	go c.pingLoop(w)
	c.kickDispatch()
}

// readLoop consumes one worker's messages. Any read error — including
// the heartbeat-timeout deadline, which is how a hung or partitioned
// worker surfaces — drops the worker.
func (c *Coordinator) readLoop(w *remoteWorker) {
	for {
		m, err := w.fc.read(c.heartbeatTimeout())
		if err != nil {
			c.dropWorker(w, fmt.Sprintf("read: %v", err), true)
			return
		}
		switch m.Type {
		case msgPong:
			c.Obs.pong(float64(time.Now().UnixNano()-m.T) / 1e9)
		case msgResult:
			if !c.handleResult(w, m) {
				return
			}
		default:
			c.dropWorker(w, "protocol error: unexpected "+m.Type, true)
			return
		}
	}
}

// pingLoop keeps one worker's heartbeat going until it is dropped.
func (c *Coordinator) pingLoop(w *remoteWorker) {
	t := time.NewTicker(c.heartbeatInterval())
	defer t.Stop()
	for {
		select {
		case <-w.gone:
			return
		case <-t.C:
			if err := w.fc.write(&msg{Type: msgPing, T: time.Now().UnixNano()}, defaultWriteTimeout); err != nil {
				c.dropWorker(w, fmt.Sprintf("ping: %v", err), true)
				return
			}
		}
	}
}

// dropWorker removes a worker, re-queues its leased pairs, and (when
// penalize is set — every involuntary exit) charges its breaker.
func (c *Coordinator) dropWorker(w *remoteWorker, reason string, penalize bool) {
	c.mu.Lock()
	dropped := c.dropWorkerLocked(w, reason, penalize)
	c.mu.Unlock()
	if dropped {
		c.kickDispatch()
	}
}

func (c *Coordinator) dropWorkerLocked(w *remoteWorker, reason string, penalize bool) bool {
	if w.dead {
		return false
	}
	w.dead = true
	close(w.gone)
	if c.workers[w.name] == w {
		delete(c.workers, w.name)
	}
	live := len(c.workers)
	requeued := 0
	if c.run != nil {
		for id, l := range c.run.leases {
			if l.worker != w {
				continue
			}
			delete(c.run.leases, id)
			if !c.run.done[l.task] {
				c.run.pending = append(c.run.pending, l.task)
				requeued++
				c.Obs.pairRequeued()
			}
		}
	}
	if penalize {
		c.breakers().Penalize(w.name, 2)
	}
	if w.probing {
		w.probing = false
		c.breakers().ProbeResult(w.name, false)
	}
	c.Obs.died(live)
	w.fc.close()
	c.progress("fleet: worker %s lost (%s); %d pairs re-queued, %d live", w.name, reason, requeued, live)
	return true
}

// handleResult settles one result message. Returns false when the
// worker was dropped for a protocol violation (caller exits its loop).
// Duplicate results — the lease vanished with its run, or another
// execution of the pair already won — are counted and discarded; this
// loses nothing because re-dispatched executions are byte-identical.
func (c *Coordinator) handleResult(w *remoteWorker, m *msg) bool {
	out := &core.PairOutcome{}
	err := json.Unmarshal(m.Outcome, out) // an absent outcome fails to parse too
	if err == nil {
		err = out.Validate()
	}
	if err != nil {
		c.dropWorker(w, fmt.Sprintf("protocol error: bad outcome on lease %d: %v", m.Lease, err), true)
		return false
	}
	c.mu.Lock()
	delete(w.leases, m.Lease)
	d := c.run
	var l *lease
	if d != nil {
		l = d.leases[m.Lease]
	}
	if l == nil || l.worker != w {
		c.Obs.duplicateDropped()
		c.mu.Unlock()
		c.kickDispatch()
		return true
	}
	delete(d.leases, m.Lease)
	if w.probing {
		w.probing = false
		c.breakers().ProbeResult(w.name, true)
		c.progress("fleet: worker %s canary pair succeeded; breaker closed", w.name)
	}
	if d.done[l.task] {
		c.Obs.duplicateDropped()
		c.mu.Unlock()
		c.kickDispatch()
		return true
	}
	d.done[l.task] = true
	d.remaining--
	c.Obs.resultAccepted()
	// Send under the lock: the channel is buffered for every task, so
	// this never blocks, and the dispatch loop closes the channel under
	// the same lock — no send-after-close race.
	d.out <- core.PairTaskResult{Index: l.task, Outcome: out, Events: m.Events}
	c.mu.Unlock()
	c.kickDispatch()
	return true
}

// RunPairs implements core.RemoteRunner: it dispatches the tasks across
// the connected fleet and streams results back in completion order. One
// dispatch runs at a time (the matrix is sequential over settings).
func (c *Coordinator) RunPairs(tasks []core.PairTask, interrupt func() bool) (<-chan core.PairTaskResult, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, errors.New("fleet: coordinator closed")
	}
	if c.run != nil {
		return nil, errors.New("fleet: a dispatch is already in flight")
	}
	d := &dispatchState{
		tasks:     tasks,
		done:      make([]bool, len(tasks)),
		pending:   make([]int, len(tasks)),
		leases:    make(map[uint64]*lease),
		out:       make(chan core.PairTaskResult, len(tasks)+1),
		remaining: len(tasks),
	}
	for i := range tasks {
		d.pending[i] = i
	}
	c.run = d
	go c.dispatchLoop(d, interrupt)
	return d.out, nil
}

// dispatchLoop drives one dispatch: expire leases, assign pending pairs
// to eligible workers, wait for a kick (membership or result change) or
// the scan tick, repeat until every pair is delivered or the interrupt
// hook fires. On interrupt the channel closes immediately — in-flight
// workers finish their pairs and their late results are dropped as
// duplicates; the matrix journaled a pair record for every result it
// was delivered, and a resumed run dispatches only the rest, with the
// same seeds.
func (c *Coordinator) dispatchLoop(d *dispatchState, interrupt func() bool) {
	tick := time.NewTicker(dispatchTick)
	defer tick.Stop()
	for {
		c.mu.Lock()
		if d.remaining == 0 || c.closed || (interrupt != nil && interrupt()) {
			c.run = nil
			close(d.out)
			c.mu.Unlock()
			return
		}
		c.expireLeases(d)
		grants := c.assignPending(d)
		c.mu.Unlock()
		for _, g := range grants {
			go func(w *remoteWorker, m *msg) {
				if err := w.fc.write(m, defaultWriteTimeout); err != nil {
					c.dropWorker(w, fmt.Sprintf("assign: %v", err), true)
				}
			}(g.w, g.m)
		}
		select {
		case <-c.kick:
		case <-tick.C:
		}
	}
}

// expireLeases re-queues pairs whose lease deadline passed. The lease
// itself survives (stragglers may still deliver) but is charged to the
// worker's breaker. Callers hold c.mu.
func (c *Coordinator) expireLeases(d *dispatchState) {
	now := time.Now()
	for _, l := range d.leases {
		if l.expired || now.Before(l.deadline) {
			continue
		}
		l.expired = true
		c.breakers().Penalize(l.worker.name, 1)
		if d.done[l.task] {
			continue
		}
		d.pending = append(d.pending, l.task)
		c.Obs.leaseExpired()
		c.progress("fleet: lease %d (pair %d) on worker %s expired; re-dispatching", l.id, l.task, l.worker.name)
	}
}

type grant struct {
	w *remoteWorker
	m *msg
}

// assignPending grants leases for queued pairs to eligible workers,
// consulting the chaos partition plan at each assignment. The actual
// sends happen outside the lock. Callers hold c.mu.
func (c *Coordinator) assignPending(d *dispatchState) []grant {
	var grants []grant
	for len(d.pending) > 0 {
		t := d.pending[0]
		if d.done[t] {
			d.pending = d.pending[1:]
			continue
		}
		w := c.pickWorker(d, t)
		if w == nil {
			return grants // no eligible capacity; wait for a kick
		}
		d.pending = d.pending[1:]
		c.partSeq++
		if seed := partitionSeed(d.tasks[t], c.partSeq); c.Chaos.PartitionFor(w.name, seed) {
			c.Obs.partitionInjected()
			if c.OnFault != nil {
				c.OnFault(core.FaultEvent{
					Pair:   "worker:" + w.name,
					Kind:   "partition",
					Seed:   seed,
					Detail: fmt.Sprintf("chaos: coordinator partitioned from worker %s", w.name),
				})
			}
			d.pending = append([]int{t}, d.pending...)
			c.dropWorkerLocked(w, "chaos partition", true)
			continue
		}
		if c.breakers().State(w.name) == core.BreakerOpen {
			c.breakers().BeginProbe(w.name)
			w.probing = true
			c.progress("fleet: worker %s breaker open; granting canary pair %d", w.name, t)
		}
		c.leaseSeq++
		l := &lease{id: c.leaseSeq, task: t, worker: w, deadline: time.Now().Add(c.leaseTTL())}
		d.leases[l.id] = l
		w.leases[l.id] = struct{}{}
		c.Obs.leaseGranted()
		task := d.tasks[t]
		grants = append(grants, grant{w: w, m: &msg{Type: msgAssign, Lease: l.id, Task: &task}})
	}
	return grants
}

// pickWorker chooses a worker for pair t: alive, with spare capacity
// (quarantined workers only qualify for a single canary pair while
// idle), and not already executing this very pair (redundant
// re-dispatch must go to a different worker to route around the
// straggler). Names are scanned in sorted order so assignment behaviour
// is reproducible given identical timing. Callers hold c.mu.
func (c *Coordinator) pickWorker(d *dispatchState, t int) *remoteWorker {
	names := make([]string, 0, len(c.workers))
	for n := range c.workers {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		w := c.workers[n]
		if w.dead {
			continue
		}
		capacity := w.capacity
		switch c.Breakers.State(n) {
		case core.BreakerOpen:
			if len(w.leases) > 0 {
				continue // canary requires an idle worker
			}
			capacity = 1
		case core.BreakerHalfOpen:
			if !w.probing {
				continue // canary already in flight on an old connection
			}
			capacity = 1
		}
		if len(w.leases) >= capacity {
			continue
		}
		if c.holdsLease(d, w, t) {
			continue
		}
		return w
	}
	return nil
}

// holdsLease reports whether w already has an outstanding lease on t.
func (c *Coordinator) holdsLease(d *dispatchState, w *remoteWorker, t int) bool {
	for _, l := range d.leases {
		if l.task == t && l.worker == w {
			return true
		}
	}
	return false
}

// partitionSeed derives the deterministic decision seed for one chaos
// partition check from the task identity and the assignment ordinal.
func partitionSeed(t core.PairTask, seq uint64) uint64 {
	return Fingerprint(fmt.Sprintf("partition|%d|%d|%d|%d|%d", t.Cycle, t.Setting, t.A, t.B, seq))
}

func (c *Coordinator) kickDispatch() {
	c.mu.Lock()
	kick := c.kick
	c.mu.Unlock()
	if kick == nil {
		return
	}
	select {
	case kick <- struct{}{}:
	default:
	}
}
