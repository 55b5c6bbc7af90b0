// Package fleet distributes the pair matrix across worker processes: a
// coordinator shards pending pairs over N TCP workers and merges their
// results through the matrix's canonical ordered-release path, so the
// fleet-wide report, heatmaps, and fault ledger are byte-identical to a
// serial single-process run at any worker count. The design leans on the
// same property that makes the in-process worker pool deterministic —
// every trial seed is a pure function of (BaseSeed, pair, attempt) — so
// a pair re-dispatched after a worker death, or raced by a straggler's
// late duplicate, produces the same bytes no matter which copy wins.
//
// # Protocol: prudentia.fleet/1
//
// Messages travel as internal/journal frames (journal.Frame /
// journal.ReadFrame; layout in ARCHITECTURE.md "Durability &
// supervision"); a stream cannot resynchronize after a framing error,
// so any violation is fatal to the connection. Every payload is one
// JSON-encoded msg. The conversation:
//
//	worker → hello   {schema, worker, capacity, fingerprint}
//	coord  → welcome                      — or reject{detail} + close
//	coord  → assign  {lease, task}        — up to `capacity` in flight
//	worker → result  {lease, outcome, events}
//	coord  → ping    {t}                  — every HeartbeatInterval
//	worker → pong    {t}                  — echoes t; coord records RTT
//	coord  → shutdown{detail}             — terminal; worker exits clean
//
// The hello fingerprint hashes the deterministic run configuration
// (catalog, settings, seed, resolved options); a mismatch is rejected at the
// door because a worker with a different catalog would compute
// different — silently wrong — results.
//
// Fault tolerance is lease-based: each assignment carries a lease that
// expires after LeaseTTL. Dead, hung, or partitioned workers are
// detected by heartbeat timeout or connection error; their leased pairs
// are re-queued for the survivors. An expired lease re-queues the pair
// without killing the straggler — whichever execution reports first
// wins, and the duplicate is counted and dropped (first-result-wins is
// sound precisely because both copies are byte-identical). Workers
// reconnect with capped exponential backoff, so a coordinator restart
// (crash recovery via the ordinary checkpoint+journal path) re-collects
// its fleet without manual intervention.
package fleet

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"time"

	"prudentia/internal/core"
	"prudentia/internal/journal"
)

// Schema identifies the wire protocol; bump on breaking change.
const Schema = "prudentia.fleet/1"

// Message types. The zero value is invalid by construction: every
// decoded message is checked against the handful its reader expects.
const (
	msgHello    = "hello"
	msgWelcome  = "welcome"
	msgReject   = "reject"
	msgAssign   = "assign"
	msgResult   = "result"
	msgPing     = "ping"
	msgPong     = "pong"
	msgShutdown = "shutdown"
)

// msg is the single wire message shape; which fields are meaningful
// depends on Type (see the package comment's conversation sketch).
// Unknown fields are ignored on decode, so the schema is additive.
type msg struct {
	Type string `json:"type"`

	// hello
	Schema      string `json:"schema,omitempty"`
	Worker      string `json:"worker,omitempty"`
	Capacity    int    `json:"capacity,omitempty"`
	Fingerprint uint64 `json:"fingerprint,omitempty"`

	// assign + result
	Lease   uint64            `json:"lease,omitempty"`
	Task    *core.PairTask    `json:"task,omitempty"`
	Outcome json.RawMessage   `json:"outcome,omitempty"`
	Events  []core.FaultEvent `json:"events,omitempty"`

	// ping + pong: the coordinator's UnixNano send stamp, echoed back
	// verbatim so the coordinator computes RTT from its own clock.
	T int64 `json:"t,omitempty"`

	// reject + shutdown
	Detail string `json:"detail,omitempty"`
}

// frameConn is a framed-message connection. Reads must come from one
// goroutine (the bufio reader is not locked); writes may come from many
// (ping loop, assigner, task finishers) and are serialized by wmu.
type frameConn struct {
	c   net.Conn
	br  *bufio.Reader
	wmu sync.Mutex
}

func newFrameConn(c net.Conn) *frameConn {
	return &frameConn{c: c, br: bufio.NewReader(c)}
}

// write marshals and sends one message under a write deadline, so a
// stalled peer cannot wedge the sender forever.
func (fc *frameConn) write(m *msg, timeout time.Duration) error {
	payload, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("fleet: encode %s: %w", m.Type, err)
	}
	buf := journal.Frame(payload)
	fc.wmu.Lock()
	defer fc.wmu.Unlock()
	if timeout > 0 {
		_ = fc.c.SetWriteDeadline(time.Now().Add(timeout))
	}
	_, err = fc.c.Write(buf)
	return err
}

// read receives one message under a read deadline. A deadline miss is
// how both sides detect a dead or partitioned peer: the coordinator
// expects at worst a pong per heartbeat interval, the worker at worst a
// ping.
func (fc *frameConn) read(timeout time.Duration) (*msg, error) {
	if timeout > 0 {
		_ = fc.c.SetReadDeadline(time.Now().Add(timeout))
	}
	payload, err := journal.ReadFrame(fc.br)
	if err != nil {
		return nil, err
	}
	m := &msg{}
	if err := json.Unmarshal(payload, m); err != nil {
		return nil, fmt.Errorf("fleet: decode message: %w", err)
	}
	return m, nil
}

func (fc *frameConn) close() { _ = fc.c.Close() }

// Fingerprint hashes an ordered list of configuration parts (FNV-1a
// with a separator mix, so part boundaries matter). Coordinator and
// workers must compute it over the same parts — the CLI hashes
// core.Recipe: service names, network settings, resolved options — for
// the hello handshake to admit a worker.
func Fingerprint(parts ...string) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for _, p := range parts {
		for i := 0; i < len(p); i++ {
			h ^= uint64(p[i])
			h *= prime64
		}
		h ^= 0x1f
		h *= prime64
	}
	return h
}
