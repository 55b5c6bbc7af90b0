package core

import (
	"errors"
	"fmt"
)

// Seed derivation. Each trial attempt — counted, discarded, corrupt, or
// failed — gets a fresh seed that is a pure function of
// (BaseSeed, pair identity, attempt index). The old scheme
// (BaseSeed + (i*1000+j)*101 plus seed++ per attempt) let adjacent
// pairs' seed ranges overlap once a pair burned enough discards, and
// collided outright past 1000 services; hashing removes both failure
// modes and makes every pair's stream independent of scheduling order,
// which is what lets a resumed cycle replay the remaining pairs
// deterministically.

// mix64 is the SplitMix64 finalizer: a bijective avalanche hash.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// pairSeedID encodes an unordered pair (a ≤ b) of catalog indices as a
// collision-free 64-bit identity.
func pairSeedID(a, b int) uint64 { return uint64(uint32(a))<<32 | uint64(uint32(b)) }

// soloSeedID encodes a solo-calibration run's identity, in a namespace
// disjoint from pair identities.
func soloSeedID(i int) uint64 { return 1<<63 | uint64(uint32(i)) }

// canarySeedID encodes a circuit-breaker canary probe's identity, in a
// namespace disjoint from both pairs (top bits 00) and solo calibration
// (top bit 1). Probes are keyed by service name rather than catalog
// index so the identity survives catalog reordering between cycles.
func canarySeedID(name string) uint64 {
	h := uint64(1469598103934665603) // FNV-64a offset basis
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return 1<<62 | h>>2
}

// pairRecordSeedID encodes the identity of a finished remote pair's
// journal record (remote.go) under a 0001 prefix, a namespace disjoint
// from pair trials (top bits 0000), screening (001), canaries (01) and
// solo calibration (1): a record is looked up by key like an attempt,
// and must never be mistaken for one.
func pairRecordSeedID(a, b int) uint64 { return 1<<60 | pairSeedID(a, b) }

// trialSeed derives the seed for one attempt of one experiment.
func trialSeed(base, id uint64, attempt int) uint64 {
	h := mix64(base ^ mix64(id+0x9e3779b97f4a7c15))
	return mix64(h + uint64(attempt)*0x9e3779b97f4a7c15)
}

// ErrInterrupted is returned by Matrix.Run and Watchdog.RunCycle when an
// Interrupt hook requested a graceful stop; every completed pair has
// been released, and what ran is in the journal for the resume.
var ErrInterrupted = errors.New("core: interrupted")

// TrialError is the typed failure a single trial can produce: a panic
// recovered mid-simulation, an injected error, or any other error
// surfaced by RunTrial. The scheduler records it and retries rather
// than aborting the cycle.
type TrialError struct {
	// Kind labels the failure class: "panic", "error", or the chaos
	// fault name that produced it.
	Kind string
	// Seed is the trial seed that deterministically reproduces it.
	Seed uint64
	// Msg is the human-readable cause.
	Msg string
}

func (e *TrialError) Error() string {
	return fmt.Sprintf("core: trial %s (seed %d): %s", e.Kind, e.Seed, e.Msg)
}

// asTrialError coerces any error into a *TrialError for recording.
func asTrialError(err error, seed uint64) *TrialError {
	var te *TrialError
	if errors.As(err, &te) {
		return te
	}
	return &TrialError{Kind: "error", Seed: seed, Msg: err.Error()}
}

// TrialFailure is the persisted record of one failed attempt, kept on
// the PairOutcome so pair records and artifacts carry the full ledger.
type TrialFailure struct {
	Attempt int    `json:"attempt"`
	Seed    uint64 `json:"seed"`
	Kind    string `json:"kind"`
	Msg     string `json:"msg"`
}

// FaultEvent is one entry in the scheduler's live robustness ledger,
// emitted through Matrix.OnFault / Watchdog.OnFault as faults are
// detected and handled. Kinds: "panic", "error", "reap" (hung trial
// reaped), "brownout" (chaos service brownout) for failed attempts,
// "retry" (backoff scheduled), "quarantine" (pair failed permanently),
// "discard" (noise-discarded trial), "corrupt" (validity-gate
// rejection), "calibration" (solo-run failure), "breaker_skip" (pair
// denied admission because a member's circuit breaker was open).
type FaultEvent struct {
	Pair    string `json:"pair"`
	Kind    string `json:"kind"`
	Attempt int    `json:"attempt"`
	Seed    uint64 `json:"seed"`
	Detail  string `json:"detail,omitempty"`
}
