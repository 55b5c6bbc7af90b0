package transport

import (
	"testing"
	"testing/quick"

	"prudentia/internal/cca"
	"prudentia/internal/netem"
	"prudentia/internal/sim"
)

func TestTailLossProbeRecoversWindowTailDrop(t *testing.T) {
	// A transfer whose final packets are tail-dropped must recover via
	// the probe (fast) rather than a full RTO chain.
	eng := sim.NewEngine()
	cfg := netem.Config{RateBps: 10_000_000, RTT: 50 * sim.Millisecond, QueueCapacity: 16}
	tb := netem.NewTestbed(eng, cfg, sim.NewRNG(1))
	f := NewFlow(tb, 0, cca.NewNewReno(cca.Config{InitialCwnd: 40}), Options{})
	done := sim.Time(0)
	// 40 packets burst into a 16-slot queue: the tail drops, and since no
	// later packets exist only the probe can recover it.
	f.Write(60_000, func(now sim.Time) { done = now })
	eng.RunUntil(10 * sim.Second)
	if done == 0 {
		t.Fatalf("transfer never completed (retx=%d timeouts=%d)", tb.TransportRetransmits, f.Timeouts)
	}
	if tb.TransportTailProbes == 0 {
		t.Fatal("expected a tail-loss probe")
	}
	if done > 3*sim.Second {
		t.Fatalf("tail recovery too slow: %v", done)
	}
}

func TestLostRetransmitsRedetected(t *testing.T) {
	// Under persistent overload with a tiny queue, retransmissions get
	// dropped too; time-based re-detection must keep the flow moving
	// without waiting for full RTOs each round.
	eng := sim.NewEngine()
	cfg := netem.Config{RateBps: 3_000_000, RTT: 50 * sim.Millisecond, QueueCapacity: 6}
	tb := netem.NewTestbed(eng, cfg, sim.NewRNG(4))
	// A second flow keeps the queue hot.
	bg := NewFlow(tb, 1, cca.NewBBR(cca.Config{}, cca.BBRLinux415(), sim.NewRNG(7)), Options{})
	bg.SetBulk()
	f := NewFlow(tb, 0, cca.NewNewReno(cca.Config{InitialCwnd: 30}), Options{})
	completed := false
	f.Write(600_000, func(sim.Time) { completed = true })
	eng.RunUntil(60 * sim.Second)
	if !completed {
		t.Fatalf("transfer stuck: testbed retx=%d, flow timeouts=%d", tb.TransportRetransmits, f.Timeouts)
	}
}

func TestFragileRecoveryCollapsesOnBurstLoss(t *testing.T) {
	// With FragileRecovery, losing a large fraction of the window in one
	// episode must register as a timeout-style collapse.
	eng := sim.NewEngine()
	cfg := netem.Config{RateBps: 10_000_000, RTT: 50 * sim.Millisecond, QueueCapacity: 8}
	tb := netem.NewTestbed(eng, cfg, sim.NewRNG(2))
	alg := cca.NewNewReno(cca.Config{InitialCwnd: 64})
	f := NewFlow(tb, 0, alg, Options{FragileRecovery: true})
	f.SetBulk()
	eng.RunUntil(5 * sim.Second)
	if f.Timeouts == 0 {
		t.Fatal("fragile flow should have collapsed at least once")
	}
}

func TestRobustRecoveryAvoidsCollapseOnSameWorkload(t *testing.T) {
	// The identical scenario without FragileRecovery should ride the
	// burst loss out with far fewer (ideally zero) timeout collapses.
	count := func(fragile bool) int64 {
		eng := sim.NewEngine()
		cfg := netem.Config{RateBps: 10_000_000, RTT: 50 * sim.Millisecond, QueueCapacity: 8}
		tb := netem.NewTestbed(eng, cfg, sim.NewRNG(2))
		f := NewFlow(tb, 0, cca.NewNewReno(cca.Config{InitialCwnd: 64}),
			Options{FragileRecovery: fragile})
		f.SetBulk()
		eng.RunUntil(5 * sim.Second)
		return f.Timeouts
	}
	if robust, fragile := count(false), count(true); robust >= fragile {
		t.Fatalf("robust recovery (%d collapses) should beat fragile (%d)", robust, fragile)
	}
}

func TestBurstOnIdleRestartBursts(t *testing.T) {
	// After an idle gap, a burst-enabled flow puts a full window on the
	// wire immediately; a pacing-disciplined flow spreads it out.
	depth := func(burst bool) int {
		eng := sim.NewEngine()
		cfg := netem.Config{RateBps: 50_000_000, RTT: 50 * sim.Millisecond}
		tb := netem.NewTestbed(eng, cfg, sim.NewRNG(3))
		tb.UpstreamJitter = 0
		alg := cca.NewBBR(cca.Config{}, cca.BBRLinux415(), sim.NewRNG(5))
		f := NewFlow(tb, 0, alg, Options{BurstOnIdleRestart: burst})
		// Warm the flow up so BBR has a real cwnd, then idle, then write.
		f.Write(3_000_000, nil)
		eng.RunUntil(10 * sim.Second)
		max := 0
		tb.Bneck.StartSampling(sim.Millisecond)
		f.Write(3_000_000, nil)
		eng.RunUntil(10*sim.Second + 100*sim.Millisecond)
		for _, s := range tb.Bneck.Samples() {
			if s.Total > max {
				max = s.Total
			}
		}
		return max
	}
	if b, p := depth(true), depth(false); b <= p {
		t.Fatalf("idle-restart burst queue depth %d should exceed paced %d", b, p)
	}
}

func TestConservationInvariant(t *testing.T) {
	// Property: for random configurations, every packet the application
	// offers is eventually delivered — and once the completed flow has
	// drained the queue, the bottleneck's arrival = delivered + dropped
	// accounting holds.
	if err := quick.Check(func(seed uint64, q uint8, rate uint8) bool {
		eng := sim.NewEngine()
		cfg := netem.Config{
			RateBps:       int64(rate%40+1) * 1_000_000,
			RTT:           50 * sim.Millisecond,
			QueueCapacity: int(q%60) + 4,
		}
		tb := netem.NewTestbed(eng, cfg, sim.NewRNG(seed))
		f := NewFlow(tb, 0, cca.NewCubic(cca.Config{}), Options{})
		completed := false
		f.Write(150_000, func(sim.Time) { completed = true })
		eng.RunUntil(120 * sim.Second)
		st := tb.Bneck.Stats(0)
		return completed && st.ArrivedPackets == st.DeliveredPackets+st.DroppedPackets
	}, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestAckEveryTwoStillCompletes(t *testing.T) {
	eng := sim.NewEngine()
	cfg := netem.Config{RateBps: 10_000_000, RTT: 50 * sim.Millisecond}
	tb := netem.NewTestbed(eng, cfg, sim.NewRNG(1))
	f := NewFlow(tb, 0, cca.NewCubic(cca.Config{}), Options{AckEvery: 2})
	completed := false
	f.Write(1_500_000, func(sim.Time) { completed = true })
	eng.RunUntil(30 * sim.Second)
	if !completed {
		t.Fatal("delayed-ack flow did not complete")
	}
}
