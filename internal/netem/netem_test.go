package netem

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"prudentia/internal/sim"
)

func TestBDPPackets(t *testing.T) {
	cases := []struct {
		rate int64
		rtt  sim.Time
		want int
	}{
		{50_000_000, 50 * sim.Millisecond, 208},
		{8_000_000, 50 * sim.Millisecond, 33},
		{1000, sim.Millisecond, 1}, // floor at 1
	}
	for _, c := range cases {
		if got := BDPPackets(c.rate, c.rtt); got != c.want {
			t.Errorf("BDPPackets(%d, %v) = %d, want %d", c.rate, c.rtt, got, c.want)
		}
	}
}

func TestNearestPowerOfTwo(t *testing.T) {
	cases := map[int]int{
		0: 1, 1: 1, 2: 2, 3: 4, 5: 4, 6: 8, 833: 1024, 133: 128, 1664: 2048,
		96: 128, // tie rounds up
	}
	for n, want := range cases {
		if got := NearestPowerOfTwo(n); got != want {
			t.Errorf("NearestPowerOfTwo(%d) = %d, want %d", n, got, want)
		}
	}
}

// TestQueueSizesMatchPaper checks the exact queue sizes the paper reports:
// 1024 packets for 4×BDP at 50 Mbps (Fig 8a), 2048 for 8×BDP (Fig 8b),
// and 128 for 4×BDP at 8 Mbps.
func TestQueueSizesMatchPaper(t *testing.T) {
	rtt := 50 * sim.Millisecond
	if got := QueueSizePackets(50_000_000, rtt, 4); got != 1024 {
		t.Errorf("50Mbps 4xBDP = %d, want 1024", got)
	}
	if got := QueueSizePackets(50_000_000, rtt, 8); got != 2048 {
		t.Errorf("50Mbps 8xBDP = %d, want 2048", got)
	}
	if got := QueueSizePackets(8_000_000, rtt, 4); got != 128 {
		t.Errorf("8Mbps 4xBDP = %d, want 128", got)
	}
}

func TestPowerOfTwoProperty(t *testing.T) {
	if err := quick.Check(func(n uint16) bool {
		v := NearestPowerOfTwo(int(n))
		// Must be a power of two...
		if v&(v-1) != 0 || v <= 0 {
			return false
		}
		// ...and within a factor of 2 of n.
		if int(n) >= 1 && (v > 2*int(n) || 2*v < int(n)) {
			return false
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func newTestBottleneck(eng *sim.Engine, rate int64, capacity int) *Bottleneck {
	return NewBottleneck(eng, rate, capacity, 0)
}

func TestBottleneckServializesAtLinkRate(t *testing.T) {
	eng := sim.NewEngine()
	b := newTestBottleneck(eng, 12_000_000, 100) // 1500B = 1ms serialization
	var deliveries []sim.Time
	b.Output = func(now sim.Time, p *Packet) { deliveries = append(deliveries, now) }
	for i := 0; i < 5; i++ {
		b.Enqueue(eng.Now(), &Packet{Size: 1500, Service: 0})
	}
	eng.Run()
	if len(deliveries) != 5 {
		t.Fatalf("delivered %d, want 5", len(deliveries))
	}
	for i, at := range deliveries {
		want := sim.Time(i+1) * sim.Millisecond
		if at != want {
			t.Errorf("packet %d delivered at %v, want %v", i, at, want)
		}
	}
}

func TestBottleneckDropTail(t *testing.T) {
	eng := sim.NewEngine()
	b := newTestBottleneck(eng, 12_000_000, 4)
	delivered := 0
	b.Output = func(sim.Time, *Packet) { delivered++ }
	var drops []int64
	b.DropHook = func(_ sim.Time, p *Packet) { drops = append(drops, p.Seq) }
	// Burst of 10: 1 goes straight to the serializer, 4 queue, 5 drop.
	for i := 0; i < 10; i++ {
		b.Enqueue(eng.Now(), &Packet{Size: 1500, Seq: int64(i), Service: 1})
	}
	eng.Run()
	if delivered != 5 {
		t.Fatalf("delivered %d, want 5", delivered)
	}
	st := b.Stats(1)
	if st.DroppedPackets != 5 || st.ArrivedPackets != 10 {
		t.Fatalf("stats = %+v", st)
	}
	if got := st.LossRate(); got != 0.5 {
		t.Fatalf("LossRate = %v, want 0.5", got)
	}
	// Drop-tail must drop the latest arrivals.
	for i, seq := range drops {
		if seq != int64(5+i) {
			t.Fatalf("drops = %v", drops)
		}
	}
}

func TestBottleneckQueueDelayAccounting(t *testing.T) {
	eng := sim.NewEngine()
	b := newTestBottleneck(eng, 12_000_000, 10) // 1ms per packet
	b.Output = func(sim.Time, *Packet) {}
	for i := 0; i < 3; i++ {
		b.Enqueue(eng.Now(), &Packet{Size: 1500, Service: 0})
	}
	eng.Run()
	// Packet 0 waits 0, packet 1 waits 1ms, packet 2 waits 2ms => mean 1ms.
	if got := b.Stats(0).MeanQueueDelay(); got != sim.Millisecond {
		t.Fatalf("MeanQueueDelay = %v, want 1ms", got)
	}
}

func TestBottleneckPerServiceAttribution(t *testing.T) {
	eng := sim.NewEngine()
	b := newTestBottleneck(eng, 12_000_000, 100)
	b.Output = func(sim.Time, *Packet) {}
	for i := 0; i < 6; i++ {
		b.Enqueue(eng.Now(), &Packet{Size: 1500, Service: i % 2})
	}
	if b.QueueLenFor(0)+b.QueueLenFor(1) != b.QueueLen() {
		t.Fatalf("per-service occupancy inconsistent")
	}
	eng.Run()
	if b.Stats(0).DeliveredPackets != 3 || b.Stats(1).DeliveredPackets != 3 {
		t.Fatalf("attribution wrong: %+v %+v", b.Stats(0), b.Stats(1))
	}
	if b.TotalDeliveredBytes() != 6*1500 {
		t.Fatalf("TotalDeliveredBytes = %d", b.TotalDeliveredBytes())
	}
}

func TestBottleneckRingWraparound(t *testing.T) {
	// Run many more packets than the capacity through a small queue to
	// exercise ring-buffer wraparound; conservation must hold.
	eng := sim.NewEngine()
	b := newTestBottleneck(eng, 120_000_000, 8)
	delivered := 0
	b.Output = func(sim.Time, *Packet) { delivered++ }
	rng := sim.NewRNG(1)
	sent := 0
	var emit sim.Event
	emit = func(now sim.Time) {
		for i := 0; i < 1+rng.Intn(6); i++ {
			b.Enqueue(now, &Packet{Size: 1500, Service: 0})
			sent++
		}
		if sent < 5000 {
			eng.After(sim.Time(rng.Intn(300))*sim.Microsecond, emit)
		}
	}
	eng.After(0, emit)
	eng.Run()
	st := b.Stats(0)
	if int(st.DeliveredPackets)+int(st.DroppedPackets) != sent {
		t.Fatalf("conservation: delivered %d + dropped %d != sent %d",
			st.DeliveredPackets, st.DroppedPackets, sent)
	}
	if delivered != int(st.DeliveredPackets) {
		t.Fatalf("output count %d != stats %d", delivered, st.DeliveredPackets)
	}
	if b.QueueLen() != 0 {
		t.Fatalf("queue not drained: %d", b.QueueLen())
	}
}

func TestOccupancySampling(t *testing.T) {
	eng := sim.NewEngine()
	b := newTestBottleneck(eng, 12_000_000, 100)
	b.Output = func(sim.Time, *Packet) {}
	b.StartSampling(500 * sim.Microsecond)
	for i := 0; i < 10; i++ {
		b.Enqueue(eng.Now(), &Packet{Size: 1500, Service: 0})
	}
	eng.RunUntil(20 * sim.Millisecond)
	samples := b.Samples()
	if len(samples) == 0 {
		t.Fatal("no occupancy samples")
	}
	// First sample at 0.5ms: packet 0 in flight, ~9 queued.
	if samples[0].Total < 8 || samples[0].Total > 10 {
		t.Fatalf("first sample %+v", samples[0])
	}
	last := samples[len(samples)-1]
	if last.Total != 0 {
		t.Fatalf("queue should drain by end: %+v", last)
	}
}

func TestTestbedRTTNormalization(t *testing.T) {
	// A single un-queued packet's loop (data downstream + ack upstream)
	// must take exactly the configured RTT plus serialization.
	eng := sim.NewEngine()
	cfg := Config{RateBps: 12_000_000, RTT: 50 * sim.Millisecond, QueueCapacity: 64}
	tb := NewTestbed(eng, cfg, sim.NewRNG(0))
	tb.UpstreamJitter = 0 // measure the bare normalized RTT

	var ackAt sim.Time
	var flowID int
	flowID = tb.RegisterFlow(0,
		func(now sim.Time, p *Packet) {
			ack := &Packet{FlowID: flowID, Service: 0, IsAck: true, SentAt: p.SentAt}
			tb.SendAck(now, ack)
		},
		func(now sim.Time, p *Packet) { ackAt = now },
	)
	p := &Packet{FlowID: flowID, Service: 0, Size: 1500, SentAt: eng.Now()}
	tb.SendData(eng.Now(), p)
	eng.Run()
	want := 50*sim.Millisecond + sim.Millisecond // RTT + 1ms serialization
	if ackAt != want {
		t.Fatalf("ack at %v, want %v", ackAt, want)
	}
}

// TestSendDataUnregisteredFlowPanics: a packet whose FlowID names no
// registered flow is refused where it is injected, with the id in the
// message, and nothing of it reaches the path. It used to be accepted and
// to kill deliverToClient with an index error a path delay later.
func TestSendDataUnregisteredFlowPanics(t *testing.T) {
	eng := sim.NewEngine()
	tb := NewTestbed(eng, HighlyConstrained(), sim.NewRNG(0))
	tb.RegisterFlow(0, func(sim.Time, *Packet) {}, nil)
	for _, id := range []int{7, 1, -1} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if want := fmt.Sprintf("flow id %d", id); !strings.Contains(msg, want) {
					t.Fatalf("FlowID %d: recovered %q, want a panic naming %q", id, msg, want)
				}
			}()
			tb.SendData(eng.Now(), &Packet{FlowID: id, Size: 1500})
		}()
	}
	if eng.Pending() != 0 || tb.UpstreamSentPackets() != 0 {
		t.Fatalf("refused packets left %d events pending, %d counted as sent", eng.Pending(), tb.UpstreamSentPackets())
	}
}

func TestTestbedNoiseDiscardsUpstream(t *testing.T) {
	eng := sim.NewEngine()
	cfg := Config{
		RateBps: 12_000_000, RTT: 50 * sim.Millisecond, QueueCapacity: 1 << 14,
		Noise: &NoiseConfig{
			MeanEpisodeGap:  10 * sim.Millisecond,
			MeanEpisodeLen:  50 * sim.Millisecond,
			DropProbability: 0.5,
		},
	}
	tb := NewTestbed(eng, cfg, sim.NewRNG(3))
	received := 0
	fid := tb.RegisterFlow(0, func(sim.Time, *Packet) { received++ }, nil)
	var send sim.Event
	sent := 0
	send = func(now sim.Time) {
		tb.SendData(now, &Packet{FlowID: fid, Size: 1500})
		sent++
		if sent < 2000 {
			eng.After(100*sim.Microsecond, send)
		}
	}
	eng.After(0, send)
	// The noise episode process reschedules itself forever, so run to a
	// horizon past the last send plus the path delay instead of draining.
	eng.RunUntil(2 * sim.Second)
	if tb.ExternalDrops == 0 {
		t.Fatal("noise injector never dropped")
	}
	if got := tb.ExternalLossRate(); got <= 0 || got >= 1 {
		t.Fatalf("ExternalLossRate = %v", got)
	}
	if received+int(tb.ExternalDrops) != sent {
		t.Fatalf("conservation: recv %d + extdrop %d != sent %d", received, tb.ExternalDrops, sent)
	}
}

func TestConfigDefaults(t *testing.T) {
	hc := HighlyConstrained()
	if hc.queueCapacity() != 128 {
		t.Fatalf("highly-constrained queue = %d, want 128", hc.queueCapacity())
	}
	mc := ModeratelyConstrained()
	if mc.queueCapacity() != 1024 {
		t.Fatalf("moderately-constrained queue = %d, want 1024", mc.queueCapacity())
	}
	mc.BufferBDP = 8
	if mc.queueCapacity() != 2048 {
		t.Fatalf("8xBDP queue = %d, want 2048", mc.queueCapacity())
	}
	mc.QueueCapacity = 333
	if mc.queueCapacity() != 333 {
		t.Fatalf("explicit queue = %d, want 333", mc.queueCapacity())
	}
}
