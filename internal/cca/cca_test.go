package cca

import (
	"math"
	"testing"

	"prudentia/internal/sim"
)

func ack(rtt sim.Time, pkts int, inflight int) AckSample {
	return AckSample{
		RTT:            rtt,
		AckedPackets:   pkts,
		TotalDelivered: 0,
		Inflight:       inflight,
	}
}

func TestNewRenoSlowStartDoublesPerRTT(t *testing.T) {
	n := NewNewReno(Config{InitialCwnd: 10})
	// One ACK per outstanding packet grows cwnd by 1 each: after acking
	// a full window of 10, cwnd is 20.
	n.OnAck(0, ack(50*sim.Millisecond, 10, 10))
	if got := n.CwndPackets(); got != 20 {
		t.Fatalf("cwnd after slow-start round = %d, want 20", got)
	}
}

func TestNewRenoCongestionAvoidanceLinear(t *testing.T) {
	n := NewNewReno(Config{InitialCwnd: 10})
	n.OnCongestionEvent(0) // drops to 5, ssthresh 5 -> now in avoidance
	start := n.CwndPackets()
	// Ack three full windows: roughly +1 packet per window, certainly not
	// the doubling slow start would produce.
	for round := 0; round < 3; round++ {
		n.OnAck(0, ack(50*sim.Millisecond, n.CwndPackets(), n.CwndPackets()))
	}
	got := n.CwndPackets()
	if got < start+2 || got > start+4 {
		t.Fatalf("cwnd after three avoidance rounds = %d, want ~%d", got, start+3)
	}
}

func TestNewRenoHalvesOnCongestion(t *testing.T) {
	n := NewNewReno(Config{InitialCwnd: 64})
	n.OnCongestionEvent(0)
	if got := n.CwndPackets(); got != 32 {
		t.Fatalf("cwnd after congestion = %d, want 32", got)
	}
}

func TestNewRenoTimeoutCollapses(t *testing.T) {
	n := NewNewReno(Config{InitialCwnd: 64})
	n.OnTimeout(0)
	if got := n.CwndPackets(); got != 1 {
		t.Fatalf("cwnd after timeout = %d, want 1", got)
	}
}

func TestNewRenoFrozenDuringRecovery(t *testing.T) {
	n := NewNewReno(Config{InitialCwnd: 10})
	s := ack(50*sim.Millisecond, 5, 10)
	s.InRecovery = true
	before := n.CwndPackets()
	n.OnAck(0, s)
	if n.CwndPackets() != before {
		t.Fatalf("cwnd grew during recovery")
	}
}

func TestNewRenoFloor(t *testing.T) {
	n := NewNewReno(Config{InitialCwnd: 2})
	for i := 0; i < 10; i++ {
		n.OnCongestionEvent(0)
	}
	if n.CwndPackets() < 2 {
		t.Fatalf("cwnd fell below floor: %d", n.CwndPackets())
	}
}

func TestCubicBetaReduction(t *testing.T) {
	c := NewCubic(Config{InitialCwnd: 100})
	c.OnCongestionEvent(0)
	if got := c.CwndPackets(); got != 70 {
		t.Fatalf("cwnd after loss = %d, want 70 (beta=0.7)", got)
	}
}

func TestCubicConcaveRecoveryTowardWMax(t *testing.T) {
	c := NewCubic(Config{InitialCwnd: 100})
	c.OnCongestionEvent(0) // wMax=100, cwnd=70
	// Feed ACKs over simulated time; cubic should grow back toward 100
	// and plateau near it before probing beyond.
	now := sim.Time(0)
	for i := 0; i < 200; i++ {
		now += 50 * sim.Millisecond
		c.OnAck(now, ack(50*sim.Millisecond, c.CwndPackets(), c.CwndPackets()))
	}
	got := c.CwndPackets()
	if got < 85 {
		t.Fatalf("cubic failed to recover toward wMax: cwnd=%d", got)
	}
}

func TestCubicFastConvergence(t *testing.T) {
	c := NewCubic(Config{InitialCwnd: 100})
	c.OnCongestionEvent(0) // wMax=100
	c.OnCongestionEvent(0) // second loss below wMax triggers fast convergence
	// wMax should now be below 70 (the cwnd before the second loss).
	if c.wMax >= 70 {
		t.Fatalf("fast convergence did not shrink wMax: %v", c.wMax)
	}
}

func TestCubicExtendedGrowsFasterAfterLoss(t *testing.T) {
	grow := func(c *CubicAlg) int {
		c.OnCongestionEvent(0)
		now := sim.Time(0)
		for i := 0; i < 40; i++ {
			now += 50 * sim.Millisecond
			c.OnAck(now, ack(50*sim.Millisecond, c.CwndPackets(), c.CwndPackets()))
		}
		return c.CwndPackets()
	}
	std := grow(NewCubic(Config{InitialCwnd: 400}))
	ext := grow(NewCubicExtended(Config{InitialCwnd: 400}))
	if ext <= std {
		t.Fatalf("extended cubic (%d) should outgrow standard (%d)", ext, std)
	}
}

// TestCubicCubeMatchesPow: congestionAvoidance cubes t−K as d*d*d, which
// must be bitwise equal to the math.Pow(d, 3) it replaced. Pow, for an
// exponent of 3, multiplies the same mantissas in the same order and
// rescales exactly, so the two agree wherever the cube is a normal float
// (|d| from about 1e-102 to 5e102) and at ±0. Cubic's d is t−K: t is a
// nanosecond count in seconds and K the cube root of a window deficit
// over C, so a nonzero |d| never falls below about 1e-25.
func TestCubicCubeMatchesPow(t *testing.T) {
	same := func(d float64) {
		t.Helper()
		if got, want := d*d*d, math.Pow(d, 3); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("d=%v: d*d*d = %v (%#x), math.Pow = %v (%#x)",
				d, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	for _, d := range []float64{0, math.Copysign(0, -1), 1, -1, 1e-25, -1e-25, 1e-9, -1e-9, 600, -600} {
		same(d)
	}
	rng := sim.NewRNG(3)
	for i := 0; i < 200_000; i++ {
		// d as congestionAvoidance forms it: t up to a 600 s trial at
		// nanosecond resolution, K from a deficit of up to 10^6 packets
		// (C=0.4 or 0.8), so d is as often negative as positive.
		ts := (sim.Time(rng.Uint64()%uint64(600*sim.Second)) * sim.Nanosecond).Seconds()
		c := 0.4
		if i%2 == 1 {
			c = 0.8
		}
		k := math.Cbrt(rng.Float64() * math.Pow(10, float64(rng.Intn(7))) / c)
		same(ts - k)
		// Any magnitude whose cube is a normal float, either sign.
		d := (0.5 + rng.Float64()) * math.Pow(10, rng.Float64()*200-100)
		if i%2 == 1 {
			d = -d
		}
		same(d)
	}
}

func TestCubicNames(t *testing.T) {
	if NewCubic(Config{}).Name() != "cubic" {
		t.Fatal("cubic name")
	}
	if NewCubicExtended(Config{}).Name() != "cubic-extended" {
		t.Fatal("cubic-extended name")
	}
}

func feedBBR(b *BBRAlg, rtt sim.Time, rate int64, rounds int) sim.Time {
	now := sim.Time(0)
	var delivered int64
	for i := 0; i < rounds; i++ {
		now += rtt
		delivered += int64(b.CwndPackets()) * 1500
		// A modest inflight figure lets the drain-exit and cycle-advance
		// conditions fire; the exact value is irrelevant to these tests.
		b.OnAck(now, AckSample{
			RTT:            rtt,
			AckedPackets:   1,
			TotalDelivered: delivered, PacketDelivered: delivered,
			DeliveryRate: rate,
			Inflight:     20,
		})
	}
	return now
}

func TestBBRStartupExitsOnPlateau(t *testing.T) {
	b := NewBBR(Config{}, BBRVariant{
		Label: "test", HighGain: 2.885, DrainGain: 1 / 2.885, CwndGainProbeBW: 2,
	}, sim.NewRNG(1))
	if b.state.String() != "startup" {
		t.Fatalf("initial state = %s", b.state.String())
	}
	// Constant delivery rate: bandwidth stops growing, so after ~3 rounds
	// the pipe is declared full and we eventually reach probe_bw.
	feedBBR(b, 50*sim.Millisecond, 1_250_000, 20)
	if b.state.String() == "startup" {
		t.Fatalf("BBR never left startup")
	}
	if b.state.String() != "probe_bw" {
		t.Fatalf("state = %s, want probe_bw", b.state.String())
	}
}

func TestBBRBandwidthFilterTracksMax(t *testing.T) {
	b := NewBBR(Config{}, BBRLinux415(), sim.NewRNG(1))
	feedBBR(b, 50*sim.Millisecond, 1_000_000, 5)
	if got := b.BtlBw(); got != 1_000_000 {
		t.Fatalf("BtlBw = %d, want 1000000", got)
	}
	// A higher sample raises the estimate immediately.
	feedBBR(b, 50*sim.Millisecond, 2_000_000, 1)
	if got := b.BtlBw(); got != 2_000_000 {
		t.Fatalf("BtlBw = %d, want 2000000", got)
	}
}

func TestBBRCwndIsGainTimesBDP(t *testing.T) {
	b := NewBBR(Config{}, BBRLinux415(), sim.NewRNG(1))
	feedBBR(b, 50*sim.Millisecond, 1_250_000, 30) // ~10 Mbps path
	// BDP = 1.25MB/s * 50ms = 62.5KB ≈ 41 packets; cwnd gain 2 ⇒ ~83.
	cwnd := b.CwndPackets()
	if cwnd < 70 || cwnd > 95 {
		t.Fatalf("probe_bw cwnd = %d, want ~83 (2xBDP)", cwnd)
	}
}

func TestBBRAppLimitedSampleSemantics(t *testing.T) {
	// Per the delivery-rate draft (and tcp_rate.c): an app-limited sample
	// is ignored unless it exceeds the current estimate — it proves at
	// least that much bandwidth exists, but its low value proves nothing.
	b := NewBBR(Config{}, BBRLinux415(), sim.NewRNG(1))
	feedBBR(b, 50*sim.Millisecond, 1_000_000, 5)
	b.OnAck(sim.Second, AckSample{
		RTT: 50 * sim.Millisecond, AckedPackets: 1,
		TotalDelivered: 1 << 30, PacketDelivered: 1 << 30, DeliveryRate: 500_000, RateAppLimited: true,
	})
	if got := b.BtlBw(); got != 1_000_000 {
		t.Fatalf("low app-limited sample changed BtlBw to %d", got)
	}
	b.OnAck(sim.Second, AckSample{
		RTT: 50 * sim.Millisecond, AckedPackets: 1,
		TotalDelivered: 1 << 30, PacketDelivered: 1 << 30, DeliveryRate: 5_000_000, RateAppLimited: true,
	})
	if got := b.BtlBw(); got != 5_000_000 {
		t.Fatalf("higher app-limited sample should raise BtlBw, got %d", got)
	}
}

func TestBBRProbeRTTOnStaleMinRTT(t *testing.T) {
	b := NewBBR(Config{}, BBRLinux415(), sim.NewRNG(1))
	now := feedBBR(b, 50*sim.Millisecond, 1_250_000, 30)
	// Feed samples with a higher RTT for >10s so the min-RTT goes stale.
	for i := 0; i < 300; i++ {
		now += 60 * sim.Millisecond
		b.OnAck(now, AckSample{
			RTT: 60 * sim.Millisecond, AckedPackets: 1,
			TotalDelivered: int64(i+1000) * 15000, PacketDelivered: int64(i+1000) * 15000, DeliveryRate: 1_250_000,
			Inflight: 40,
		})
		if b.state.String() == "probe_rtt" {
			return
		}
	}
	t.Fatalf("BBR never entered probe_rtt; state=%s", b.state.String())
}

func TestBBRVariantsDiffer(t *testing.T) {
	v415, v515 := BBRLinux415(), BBRLinux515()
	if v415.RecoveryConservation || !v515.RecoveryConservation {
		t.Fatal("variant flags wrong")
	}
	b := NewBBR(Config{}, v515, sim.NewRNG(1))
	if b.Name() != "bbr1/linux-5.15" {
		t.Fatalf("name = %s", b.Name())
	}
}

func TestBBRRecoveryConservationCapsCwnd(t *testing.T) {
	b := NewBBR(Config{}, BBRLinux515(), sim.NewRNG(1))
	feedBBR(b, 50*sim.Millisecond, 1_250_000, 30)
	big := b.CwndPackets()
	b.OnCongestionEvent(2 * sim.Second)
	b.OnAck(2*sim.Second+time50(), AckSample{
		RTT: 50 * sim.Millisecond, AckedPackets: 2,
		TotalDelivered: 1 << 20, PacketDelivered: 1 << 20, DeliveryRate: 1_250_000,
		Inflight: 10, InRecovery: true,
	})
	if got := b.CwndPackets(); got >= big || got > 12 {
		t.Fatalf("conservation cap not applied: cwnd=%d (was %d)", got, big)
	}
	b.OnExitRecovery(3 * sim.Second)
	if b.CwndPackets() < big {
		t.Fatalf("cwnd not restored after recovery: %d < %d", b.CwndPackets(), big)
	}
}

func time50() sim.Time { return 50 * sim.Millisecond }

func TestBBRv3LossResponseBoundsBandwidth(t *testing.T) {
	b := NewBBRv3(Config{}, sim.NewRNG(1))
	now := sim.Time(0)
	var delivered int64
	for i := 0; i < 30; i++ {
		now += 50 * sim.Millisecond
		delivered += 60000
		b.OnAck(now, AckSample{
			RTT: 50 * sim.Millisecond, AckedPackets: 4,
			TotalDelivered: delivered, PacketDelivered: delivered, DeliveryRate: 1_250_000, Inflight: 40,
		})
	}
	before := b.PacingRate()
	b.OnCongestionEvent(now)
	now += 50 * sim.Millisecond
	delivered += 1500
	b.OnAck(now, AckSample{
		RTT: 50 * sim.Millisecond, AckedPackets: 1,
		TotalDelivered: delivered, PacketDelivered: delivered, DeliveryRate: 1_250_000, Inflight: 40, InRecovery: true,
	})
	b.OnExitRecovery(now)
	now += 50 * sim.Millisecond
	delivered += 1500
	b.OnAck(now, AckSample{
		RTT: 50 * sim.Millisecond, AckedPackets: 1,
		TotalDelivered: delivered, PacketDelivered: delivered, DeliveryRate: 1_250_000, Inflight: 30,
	})
	after := b.PacingRate()
	if float64(after) > 0.85*float64(before) {
		t.Fatalf("v3 loss response missing: pacing %d -> %d", before, after)
	}
}

func TestBBRv3Name(t *testing.T) {
	if NewBBRv3(Config{}, nil).Name() != "bbr3" {
		t.Fatal("bbr3 name")
	}
}

func TestGCCIncreasesWhenPathClear(t *testing.T) {
	g := NewGCC(MeetGCC())
	start := g.TargetRate()
	// GCC ramps ~8%/s; 20 simulated seconds is ample to reach the cap.
	for i := 0; i < 200; i++ {
		g.OnFeedback(sim.Time(i)*100*sim.Millisecond, Feedback{
			Interval: 100 * sim.Millisecond, ReceiveRate: g.TargetRate(),
		})
	}
	if g.TargetRate() != MeetGCC().MaxRate {
		t.Fatalf("rate = %d after clear path, want max %d (start %d)",
			g.TargetRate(), MeetGCC().MaxRate, start)
	}
}

func TestGCCDecreasesOnDelayGradient(t *testing.T) {
	g := NewGCC(MeetGCC())
	for i := 0; i < 20; i++ {
		g.OnFeedback(0, Feedback{Interval: 100 * sim.Millisecond, ReceiveRate: g.TargetRate()})
	}
	high := g.TargetRate()
	for i := 0; i < 10; i++ {
		g.OnFeedback(0, Feedback{
			Interval: 100 * sim.Millisecond, DelayGradient: 50,
			ReceiveRate: high, QueueDelay: 100 * sim.Millisecond,
		})
	}
	if g.TargetRate() >= high {
		t.Fatalf("GCC did not back off: %d >= %d", g.TargetRate(), high)
	}
}

func TestGCCRespectsFloorAndCeiling(t *testing.T) {
	g := NewGCC(MeetGCC())
	for i := 0; i < 100; i++ {
		g.OnFeedback(0, Feedback{
			Interval: 100 * sim.Millisecond, DelayGradient: 100,
			LossRate: 0.5, QueueDelay: sim.Second, ReceiveRate: g.TargetRate(),
		})
	}
	if g.TargetRate() != MeetGCC().MinRate {
		t.Fatalf("floor violated: %d", g.TargetRate())
	}
}

func TestGCCLossBranchCutsRate(t *testing.T) {
	g := NewGCC(MeetGCC())
	for i := 0; i < 30; i++ {
		g.OnFeedback(0, Feedback{Interval: 100 * sim.Millisecond, ReceiveRate: g.TargetRate()})
	}
	high := g.TargetRate()
	// Loss decisions run on a smoothed signal: sustained loss over a few
	// reports is required before the cut (a single dropped frame in one
	// report must not collapse the ladder).
	for i := 0; i < 5; i++ {
		g.OnFeedback(0, Feedback{Interval: 100 * sim.Millisecond, LossRate: 0.3, ReceiveRate: g.TargetRate()})
	}
	if g.TargetRate() >= high {
		t.Fatalf("loss branch did not cut rate")
	}
}

func TestTeamsControllerHoldsRateLongerThanMeet(t *testing.T) {
	// The same moderate delay-gradient signal should push Meet down
	// before Teams (Obs 5: Teams trades delay/freezes for bitrate).
	meet, teams := NewGCC(MeetGCC()), NewGCC(TeamsController())
	for i := 0; i < 250; i++ {
		fb := Feedback{Interval: 100 * sim.Millisecond}
		fb.ReceiveRate = meet.TargetRate()
		meet.OnFeedback(0, fb)
		fb.ReceiveRate = teams.TargetRate()
		teams.OnFeedback(0, fb)
	}
	for i := 0; i < 10; i++ {
		fb := Feedback{Interval: 100 * sim.Millisecond, DelayGradient: 12, QueueDelay: 80 * sim.Millisecond}
		fb.ReceiveRate = meet.TargetRate()
		meet.OnFeedback(0, fb)
		fb.ReceiveRate = teams.TargetRate()
		teams.OnFeedback(0, fb)
	}
	if meet.TargetRate() >= MeetGCC().MaxRate {
		t.Fatal("Meet did not react to moderate delay gradient")
	}
	if teams.TargetRate() < TeamsController().MaxRate {
		t.Fatalf("Teams should shrug off moderate gradient, rate=%d", teams.TargetRate())
	}
}
