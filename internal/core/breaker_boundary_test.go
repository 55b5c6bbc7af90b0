package core

import (
	"reflect"
	"testing"
)

// Boundary arithmetic for the breaker state machine: the trip
// comparison is `score >= threshold` and the decay drop is
// `score < 0.01`, so scores landing exactly on either boundary are the
// interesting cases.

// TestBreakerTripsAtExactThreshold: a score reaching exactly the
// threshold opens the breaker; one epsilon below does not.
func TestBreakerTripsAtExactThreshold(t *testing.T) {
	bs := &BreakerSet{}
	bs.Penalize("svc", DefaultBreakerThreshold-0.001)
	if got := bs.State("svc"); got != BreakerClosed {
		t.Fatalf("below threshold: state %v, want closed", got)
	}
	bs.Penalize("svc", 0.001)
	if got := bs.State("svc"); got != BreakerOpen {
		t.Fatalf("at exact threshold: state %v, want open", got)
	}

	// The same boundary in one penalty.
	bs2 := &BreakerSet{}
	bs2.Penalize("svc", DefaultBreakerThreshold)
	if got := bs2.State("svc"); got != BreakerOpen {
		t.Fatalf("score == threshold in one penalty: state %v, want open", got)
	}
}

// TestBreakerDecayHalving: cycle-end decay halves closed scores; a
// score that halves to exactly the 0.01 floor survives, one that
// halves below it is dropped entirely.
func TestBreakerDecayHalving(t *testing.T) {
	bs := &BreakerSet{}
	bs.Penalize("a", 4)
	bs.Decay()
	infos := bs.Status()
	if len(infos) != 1 || infos[0].Score != 2 {
		t.Fatalf("4 after one decay: %+v, want score 2", infos)
	}
	bs.Decay()
	if got := bs.Status()[0].Score; got != 1 {
		t.Fatalf("after two decays: %v, want 1", got)
	}

	// 0.02 halves to exactly 0.01: NOT dropped (< is strict).
	bs2 := &BreakerSet{}
	bs2.Penalize("edge", 0.02)
	bs2.Decay()
	if infos := bs2.Status(); len(infos) != 1 || infos[0].Score != 0.01 {
		t.Fatalf("0.02 after decay: %+v, want surviving score 0.01", infos)
	}
	// One more halving lands at 0.005 < 0.01: dropped.
	bs2.Decay()
	if infos := bs2.Status(); len(infos) != 0 {
		t.Fatalf("0.01 after decay: %+v, want entry dropped", infos)
	}
}

// TestBreakerOpenEntriesDoNotDecay: decay only ages closed breakers —
// an open service cannot rehabilitate by waiting; it must pass its
// canary probe.
func TestBreakerOpenEntriesDoNotDecay(t *testing.T) {
	bs := &BreakerSet{}
	bs.Penalize("sick", DefaultBreakerThreshold+2)
	if bs.State("sick") != BreakerOpen {
		t.Fatal("setup: breaker not open")
	}
	for i := 0; i < 10; i++ {
		bs.Decay()
	}
	infos := bs.Status()
	if len(infos) != 1 || infos[0].State != "open" || infos[0].Score != DefaultBreakerThreshold+2 {
		t.Fatalf("open entry after 10 decays: %+v, want unchanged", infos)
	}

	// Half-open entries are likewise exempt (the probe owns their fate).
	bs.BeginProbe("sick")
	bs.Decay()
	if got := bs.Status()[0].Score; got != DefaultBreakerThreshold+2 {
		t.Fatalf("half-open entry decayed to %v", got)
	}
}

// TestBreakerProbeBoundaries: a successful canary resets the score to a
// clean slate; a failed one re-opens without touching the score.
func TestBreakerProbeBoundaries(t *testing.T) {
	bs := &BreakerSet{}
	bs.Penalize("svc", 7)
	bs.BeginProbe("svc")
	bs.ProbeResult("svc", false)
	if st := bs.Status(); st[0].State != "open" || st[0].Score != 7 {
		t.Fatalf("failed probe: %+v, want open with score 7", st)
	}
	bs.BeginProbe("svc")
	bs.ProbeResult("svc", true)
	if st := bs.Status(); st[0].State != "closed" || st[0].Score != 0 {
		t.Fatalf("successful probe: %+v, want closed with score 0", st)
	}
}

// TestBreakerRescoredResume reproduces the crash-resume contract for a
// cycle in which a breaker OPENED mid-cycle and the process was then
// killed: the resumed process restores the cycle-start snapshot and
// re-scores the same outcome sequence, and must land in the identical
// breaker state — including the mid-sequence trip — as the original.
func TestBreakerRescoredResume(t *testing.T) {
	outcomes := []*PairOutcome{
		{Incumbent: "A", Contender: "B", Corrupt: 1},
		{Incumbent: "A", Contender: "C", Failed: true}, // +2 each → A at 3
		{Incumbent: "A", Contender: "B", Failed: true}, // +2 each → A trips at 5
		{Incumbent: "B", Contender: "C"},
		{Incumbent: "A", Contender: "A", Corrupt: 2}, // open breaker keeps scoring
	}

	// Original process: carry some decayed history into the cycle,
	// snapshot at cycle start (what the checkpoint stores), then score
	// the cycle until the "kill".
	original := &BreakerSet{}
	original.Penalize("B", 2)
	original.Decay() // B enters the cycle at score 1
	cycleStart := original.Status()
	var trips []string
	original.OnTransition = func(svc string, from, to BreakerState) {
		trips = append(trips, svc+":"+from.String()+">"+to.String())
	}
	for _, o := range outcomes {
		original.scorePair(o)
	}
	if len(trips) != 1 || trips[0] != "A:closed>open" {
		t.Fatalf("setup: transitions %v, want exactly A tripping open", trips)
	}

	// Resumed process: restore the snapshot, re-score the same prefix.
	resumed := &BreakerSet{}
	resumed.Restore(cycleStart)
	for _, o := range outcomes {
		resumed.scorePair(o)
	}
	if !reflect.DeepEqual(original.Status(), resumed.Status()) {
		t.Fatalf("re-scored resume diverged:\noriginal: %+v\nresumed:  %+v",
			original.Status(), resumed.Status())
	}
	if resumed.State("A") != BreakerOpen {
		t.Fatal("resumed run lost the mid-cycle trip")
	}
}
