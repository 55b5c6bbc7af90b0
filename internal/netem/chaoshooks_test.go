package netem

import (
	"testing"

	"prudentia/internal/sim"
)

// The chaos hooks: link flaps (SetLinkDown), client stalls
// (StallService), and bandwidth fluctuation (Bottleneck.SetRate).

func TestSetLinkDownBlackholesUpstream(t *testing.T) {
	eng := sim.NewEngine()
	cfg := HighlyConstrained()
	cfg.NoJitter = true
	tb := NewTestbed(eng, cfg, sim.NewRNG(1))
	delivered := 0
	fid := tb.RegisterFlow(0, func(sim.Time, *Packet) { delivered++ }, nil)

	tb.SetLinkDown(sim.Second)
	tb.SendData(0, &Packet{FlowID: fid, Service: 0, Size: 1500}) // during the flap
	eng.Schedule(2*sim.Second, func(now sim.Time) {
		tb.SendData(now, &Packet{FlowID: fid, Service: 0, Size: 1500}) // after it
	})
	for eng.Step() {
	}

	if tb.ChaosDrops != 1 {
		t.Fatalf("ChaosDrops = %d, want 1", tb.ChaosDrops)
	}
	if delivered != 1 {
		t.Fatalf("delivered = %d, want 1", delivered)
	}
	// Flap drops must not trip the §3.1 noise-discard gate.
	if got := tb.ExternalLossRate(); got != 0 {
		t.Fatalf("ExternalLossRate = %v, want 0", got)
	}
}

func TestSetLinkDownExtendsOnly(t *testing.T) {
	eng := sim.NewEngine()
	cfg := HighlyConstrained()
	cfg.NoJitter = true
	tb := NewTestbed(eng, cfg, sim.NewRNG(1))
	fid := tb.RegisterFlow(0, nil, nil)

	tb.SetLinkDown(2 * sim.Second)
	tb.SetLinkDown(sim.Second) // a shorter overlapping flap must not cut the outage
	eng.Schedule(1500*sim.Millisecond, func(now sim.Time) {
		tb.SendData(now, &Packet{FlowID: fid, Service: 0, Size: 1500})
	})
	for eng.Step() {
	}
	if tb.ChaosDrops != 1 {
		t.Fatalf("ChaosDrops = %d, want 1 (outage shortened)", tb.ChaosDrops)
	}
}

func TestStallServiceHoldsAcks(t *testing.T) {
	eng := sim.NewEngine()
	tb := NewTestbed(eng, HighlyConstrained(), sim.NewRNG(1))
	var at0, at1 sim.Time
	fid0 := tb.RegisterFlow(0, nil, func(now sim.Time, _ *Packet) { at0 = now })
	fid1 := tb.RegisterFlow(1, nil, func(now sim.Time, _ *Packet) { at1 = now })

	tb.StallService(0, sim.Second)
	tb.SendAck(0, &Packet{FlowID: fid0, Service: 0})
	tb.SendAck(0, &Packet{FlowID: fid1, Service: 1})
	for eng.Step() {
	}

	if at0 != sim.Second {
		t.Fatalf("stalled slot's ACK arrived at %v, want hold until %v", at0, sim.Second)
	}
	if at1 >= sim.Second || at1 <= 0 {
		t.Fatalf("unstalled slot's ACK arrived at %v, want the plain ACK delay", at1)
	}

	// An ACK whose normal delivery lands after the stall is unaffected.
	var late sim.Time
	tb.flows[fid0].toServer = func(now sim.Time, _ *Packet) { late = now }
	tb.SendAck(2*sim.Second, &Packet{FlowID: fid0, Service: 0})
	for eng.Step() {
	}
	if late <= 2*sim.Second {
		t.Fatalf("post-stall ACK arrived at %v", late)
	}
}

func TestBottleneckSetRate(t *testing.T) {
	eng := sim.NewEngine()
	b := newTestBottleneck(eng, 12_000_000, 100) // 1500 B = 1 ms serialization
	var deliveries []sim.Time
	b.Output = func(now sim.Time, p *Packet) { deliveries = append(deliveries, now) }

	b.Enqueue(0, &Packet{Size: 1500, Service: 0})
	eng.Schedule(10*sim.Millisecond, func(now sim.Time) {
		b.SetRate(6_000_000) // halve the link: 2 ms per packet now
		b.Enqueue(now, &Packet{Size: 1500, Service: 0})
	})
	for eng.Step() {
	}

	want := []sim.Time{sim.Millisecond, 12 * sim.Millisecond}
	if len(deliveries) != 2 || deliveries[0] != want[0] || deliveries[1] != want[1] {
		t.Fatalf("deliveries = %v, want %v", deliveries, want)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("SetRate(0) must panic")
		}
	}()
	b.SetRate(0)
}
