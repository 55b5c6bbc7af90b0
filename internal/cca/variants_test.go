package cca

import (
	"testing"

	"prudentia/internal/sim"
)

func TestBBRUnpacedVariant(t *testing.T) {
	v := BBRLinux415()
	v.Label = "unpaced"
	v.NoPacing = true
	b := NewBBR(Config{}, v, sim.NewRNG(1))
	feedBBR(b, 50*sim.Millisecond, 1_250_000, 5)
	if b.PacingRate() != 0 {
		t.Fatalf("unpaced BBR reports pacing rate %d", b.PacingRate())
	}
	// The paced twin must report a rate.
	p := NewBBR(Config{}, BBRLinux415(), sim.NewRNG(1))
	feedBBR(p, 50*sim.Millisecond, 1_250_000, 5)
	if p.PacingRate() == 0 {
		t.Fatal("paced BBR reports no pacing rate")
	}
}

func TestBBRVariantCwndGainScales(t *testing.T) {
	// A larger ProbeBW cwnd gain must yield a proportionally larger
	// window once the path model converges (the Mega-custom knob).
	window := func(gain float64) int {
		v := BBRLinux415()
		v.CwndGainProbeBW = gain
		v.RandomizeCycle = false
		b := NewBBR(Config{}, v, sim.NewRNG(1))
		feedBBR(b, 50*sim.Millisecond, 1_250_000, 30)
		return b.CwndPackets()
	}
	w2, w3 := window(2), window(3)
	ratio := float64(w3) / float64(w2)
	if ratio < 1.3 || ratio > 1.7 {
		t.Fatalf("cwnd gain scaling off: gain2=%d gain3=%d (ratio %.2f)", w2, w3, ratio)
	}
}

func TestGCCAdaptiveBaselineCoexistsWithStandingQueue(t *testing.T) {
	// A persistent standing queue (competing buffer-filler) must not pin
	// the controller at its floor once the baseline adapts: delay that
	// never varies is the path's problem, not ours.
	g := NewGCC(MeetGCC())
	for i := 0; i < 300; i++ {
		g.OnFeedback(0, Feedback{
			Interval:    100 * sim.Millisecond,
			QueueDelay:  180 * sim.Millisecond, // standing, constant
			ReceiveRate: g.TargetRate(),
		})
	}
	if g.TargetRate() != MeetGCC().MaxRate {
		t.Fatalf("standing queue pinned GCC at %d", g.TargetRate())
	}
}

func TestGCCSingleLossSpikeDoesNotCollapse(t *testing.T) {
	g := NewGCC(MeetGCC())
	for i := 0; i < 200; i++ {
		g.OnFeedback(0, Feedback{Interval: 100 * sim.Millisecond, ReceiveRate: g.TargetRate()})
	}
	high := g.TargetRate()
	// One report with a whole frame lost (33%), then clean reports.
	g.OnFeedback(0, Feedback{Interval: 100 * sim.Millisecond, LossRate: 0.33, ReceiveRate: high})
	for i := 0; i < 20; i++ {
		g.OnFeedback(0, Feedback{Interval: 100 * sim.Millisecond, ReceiveRate: g.TargetRate()})
	}
	if g.TargetRate() < high/2 {
		t.Fatalf("single loss spike collapsed rate to %d", g.TargetRate())
	}
}
