package core

import (
	"sort"
	"strings"

	"prudentia/internal/obs"
)

// This file implements per-service circuit breakers: the watchdog's
// graceful-degradation layer for service models that go persistently
// sick (a browned-out backend, a wedged client model). Quarantine
// (PairOutcome.Failed) handles one bad *pair*; a breaker handles one
// bad *service*, which would otherwise burn the full retry budget in
// every pair it appears in — O(catalog) wasted wall-clock per cycle.
//
// Health scoring is aggregated across pairs on the matrix's canonical
// release path, so scores — and therefore trip decisions — are
// byte-identical for any worker count. A breaker's life cycle:
//
//	closed --score ≥ threshold--> open --canary probe--> half-open
//	half-open --probe ok--> closed (score reset)
//	half-open --probe fail--> open
//
// While open, the service's pairs (and its solo calibration) are
// skipped for the setting — rendered as ○○ cells — and the service
// gets exactly one canary trial at the start of each later cycle.
// Admission is decided once per setting, before its matrix starts, and
// persisted in the checkpoint, so mid-matrix trips affect only later
// settings and cycles and resumed cycles skip exactly the same pairs.

// BreakerState is a circuit breaker's position.
type BreakerState int

const (
	// BreakerClosed admits the service normally.
	BreakerClosed BreakerState = iota
	// BreakerHalfOpen admits exactly one canary probe.
	BreakerHalfOpen
	// BreakerOpen skips every pair containing the service.
	BreakerOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerHalfOpen:
		return "half-open"
	case BreakerOpen:
		return "open"
	}
	return "invalid"
}

// parseBreakerState inverts String for checkpoint restore; unknown
// strings restore as closed (fail admitting, not skipping).
func parseBreakerState(s string) BreakerState {
	switch s {
	case "half-open":
		return BreakerHalfOpen
	case "open":
		return BreakerOpen
	}
	return BreakerClosed
}

// DefaultBreakerThreshold is the health-score trip point when
// BreakerSet.Threshold is unset. With the default scoring weights
// (+1 per failed or corrupt attempt, +2 per quarantined pair or failed
// calibration) a service must be implicated in several independent
// incidents within a cycle or two before it is ejected.
const DefaultBreakerThreshold = 5

// scoreDecay halves closed services' scores at each cycle end, so
// isolated incidents age out instead of accumulating forever.
const scoreDecay = 0.5

// BreakerSet tracks one breaker per service. It is not safe for
// concurrent use: every call site sits on the scheduler's canonical
// (single-goroutine) paths — matrix release, cycle start/end — which
// is precisely what keeps trip decisions deterministic. The zero value
// is ready to use.
type BreakerSet struct {
	// Threshold is the score at which a closed breaker opens;
	// DefaultBreakerThreshold when zero.
	Threshold float64

	// OnTransition, if non-nil, observes every state change.
	OnTransition func(service string, from, to BreakerState)

	entries map[string]*breakerEntry
}

type breakerEntry struct {
	state BreakerState
	score float64
}

func (bs *BreakerSet) threshold() float64 {
	if bs.Threshold > 0 {
		return bs.Threshold
	}
	return DefaultBreakerThreshold
}

func (bs *BreakerSet) entry(service string) *breakerEntry {
	if bs.entries == nil {
		bs.entries = make(map[string]*breakerEntry)
	}
	e := bs.entries[service]
	if e == nil {
		e = &breakerEntry{}
		bs.entries[service] = e
	}
	return e
}

// State reports a service's breaker position (closed if never seen).
func (bs *BreakerSet) State(service string) BreakerState {
	if bs == nil || bs.entries == nil {
		return BreakerClosed
	}
	if e := bs.entries[service]; e != nil {
		return e.state
	}
	return BreakerClosed
}

func (bs *BreakerSet) transition(service string, e *breakerEntry, to BreakerState) {
	from := e.state
	if from == to {
		return
	}
	e.state = to
	if bs.OnTransition != nil {
		bs.OnTransition(service, from, to)
	}
}

// Penalize adds pts to a member's health score, tripping a closed
// breaker open at the threshold. Open and half-open breakers keep
// accumulating score but do not re-transition (the canary probe owns
// those edges). Members are services here; out-of-package supervisors
// reuse the set under their own keys — the fleet coordinator by worker
// name (disconnects and heartbeat timeouts +2, lease expiries +1), the
// serving layer by tenant — to quarantine flapping members the same
// way. Like every other method it is not safe for concurrent use;
// callers serialize externally.
func (bs *BreakerSet) Penalize(service string, pts float64) {
	if bs == nil || service == "" || pts <= 0 {
		return
	}
	e := bs.entry(service)
	e.score += pts
	if e.state == BreakerClosed && e.score >= bs.threshold() {
		bs.transition(service, e, BreakerOpen)
	}
}

// brownoutMsgPrefix matches the TrialError message RunTrial produces
// for chaos brownouts, whose suffix names the one sick service.
const brownoutMsgPrefix = "chaos: service brownout: "

// scorePair folds one finished pair outcome into the health scores.
// Failed attempts penalize both members (a brownout failure penalizes
// only the named service — the message carries exact attribution);
// corrupt results penalize both; a quarantined pair adds a larger
// penalty to both. Self-pairs count once.
func (bs *BreakerSet) scorePair(o *PairOutcome) {
	if bs == nil || o == nil {
		return
	}
	members := []string{o.Incumbent}
	if o.Contender != "" && o.Contender != o.Incumbent {
		members = append(members, o.Contender)
	}
	for _, f := range o.Failures {
		if f.Kind == "brownout" {
			if svc := strings.TrimPrefix(f.Msg, brownoutMsgPrefix); svc != f.Msg {
				bs.Penalize(svc, 1)
				continue
			}
		}
		for _, m := range members {
			bs.Penalize(m, 1)
		}
	}
	for _, m := range members {
		bs.Penalize(m, float64(o.Corrupt))
		if o.Failed {
			bs.Penalize(m, 2)
		}
	}
}

// scoreCalibrationFailure penalizes a service whose solo calibration
// exhausted its attempt budget.
func (bs *BreakerSet) scoreCalibrationFailure(service string) {
	bs.Penalize(service, 2)
}

// OpenServices lists services whose breakers are currently open, in
// sorted order — the admission denial list a matrix is built with.
func (bs *BreakerSet) OpenServices() []string {
	if bs == nil {
		return nil
	}
	var out []string
	for name, e := range bs.entries {
		if e.state == BreakerOpen {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// BeginProbe moves an open breaker to half-open for its canary trial.
func (bs *BreakerSet) BeginProbe(service string) {
	e := bs.entry(service)
	bs.transition(service, e, BreakerHalfOpen)
}

// ProbeResult settles a half-open breaker: a successful canary closes
// it (score reset — the service earned a clean slate), a failed one
// re-opens it.
func (bs *BreakerSet) ProbeResult(service string, ok bool) {
	e := bs.entry(service)
	if ok {
		e.score = 0
		bs.transition(service, e, BreakerClosed)
		return
	}
	bs.transition(service, e, BreakerOpen)
}

// Decay ages closed services' scores at cycle end so old incidents
// stop counting toward the threshold. Entries that decay to nothing
// are dropped.
func (bs *BreakerSet) Decay() {
	if bs == nil {
		return
	}
	for name, e := range bs.entries {
		if e.state != BreakerClosed {
			continue
		}
		e.score *= scoreDecay
		if e.score < 0.01 {
			delete(bs.entries, name)
		}
	}
}

// Status snapshots every live breaker in sorted order for checkpoints
// and the run manifest.
func (bs *BreakerSet) Status() []obs.BreakerInfo {
	if bs == nil || len(bs.entries) == 0 {
		return nil
	}
	out := make([]obs.BreakerInfo, 0, len(bs.entries))
	for _, name := range sortedBreakerNames(bs.entries) {
		e := bs.entries[name]
		out = append(out, obs.BreakerInfo{Service: name, State: e.state.String(), Score: e.score})
	}
	return out
}

func sortedBreakerNames(m map[string]*breakerEntry) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Restore replaces the set's state with a checkpointed snapshot, so a
// resumed cycle keeps sick services ejected. Transitions are not
// re-announced (the original process already did).
func (bs *BreakerSet) Restore(infos []obs.BreakerInfo) {
	if bs == nil {
		return
	}
	bs.entries = make(map[string]*breakerEntry, len(infos))
	for _, bi := range infos {
		bs.entries[bi.Service] = &breakerEntry{
			state: parseBreakerState(bi.State),
			score: bi.Score,
		}
	}
}
