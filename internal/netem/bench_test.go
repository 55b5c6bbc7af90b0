package netem

import (
	"testing"

	"prudentia/internal/sim"
)

// Each workload builds a warm bottleneck and returns the operation one
// iteration performs: the Benchmark* functions time it (go test -bench;
// the committed nanoseconds are netem.probe_ns_per_packet in bench/) and
// TestZeroAllocHotPath holds it to 0 allocs/op.

// steadyStateWorkload is the saturated forwarding path — the regime every
// contended trial spends its measurement window in. A fixed population of
// packets cycles through the drop-tail queue, the serializer, and the
// downstream hop, with the Output handler re-enqueuing each delivery (a
// closed loop, so the queue never drains). Each operation is one engine
// event.
func steadyStateWorkload() (eng *sim.Engine, op func()) {
	eng = sim.NewEngine()
	// 96 Mbps → 125 µs per 1500 B packet; 1 ms downstream ≈ 8 packets in
	// flight, the rest queued: serializer stays busy throughout.
	bn := NewBottleneck(eng, 96_000_000, 64, sim.Millisecond)
	bn.Output = func(now sim.Time, p *Packet) { bn.Enqueue(now, p) }
	pkts := make([]Packet, 32)
	for i := range pkts {
		pkts[i] = Packet{Size: 1500, Service: i % 2, Seq: int64(i)}
		bn.Enqueue(0, &pkts[i])
	}
	return eng, func() { eng.Step() }
}

// BenchmarkBottleneckSteadyState also reports virtual time simulated per
// wall-clock second, the paper-facing throughput number (§3: sweep cost
// scales with per-trial emulation speed).
func BenchmarkBottleneckSteadyState(b *testing.B) {
	eng, op := steadyStateWorkload()
	b.ReportAllocs()
	b.ResetTimer()
	startSim := eng.Now()
	for i := 0; i < b.N; i++ {
		op()
	}
	b.StopTimer()
	if wall := b.Elapsed().Seconds(); wall > 0 {
		b.ReportMetric((eng.Now()-startSim).Seconds()/wall, "simsec/wallsec")
	}
}

// roundTripWorkload is a packet's whole loop through the dumbbell, every
// stage of it a delay line: the flow's upstream line, the serializer
// (one entry, re-armed from its own callback), the downstream hop, and
// the ACK line; the server answers every ACK with a new data packet, so a
// fixed window of pooled packets circulates. Each operation is one engine
// event.
func roundTripWorkload() func() {
	eng := sim.NewEngine()
	tb := NewTestbed(eng, ModeratelyConstrained(), sim.NewRNG(1))
	var id int
	send := func(now sim.Time) {
		p := tb.AllocPacket()
		p.FlowID, p.Size = id, 1500
		tb.SendData(now, p)
	}
	id = tb.RegisterFlow(0,
		func(now sim.Time, _ *Packet) {
			ack := tb.AllocPacket()
			ack.FlowID, ack.Size = id, 64
			tb.SendAck(now, ack)
		},
		func(now sim.Time, _ *Packet) { send(now) })
	for i := 0; i < 128; i++ {
		send(0)
	}
	eng.RunUntil(sim.Second) // every ring at its high-water size
	return func() { eng.Step() }
}

func BenchmarkTestbedRoundTrip(b *testing.B) {
	op := roundTripWorkload()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// dropTailWorkload is the overload path: bursts beyond capacity, so a
// large fraction of enqueues take the drop branch.
func dropTailWorkload() func() {
	eng := sim.NewEngine()
	bn := NewBottleneck(eng, 96_000_000, 16, 0)
	bn.Output = func(now sim.Time, p *Packet) {}
	pkts := make([]Packet, 64)
	for i := range pkts {
		pkts[i] = Packet{Size: 1500, Service: i % 2, Seq: int64(i)}
	}
	i := 0
	return func() {
		bn.Enqueue(eng.Now(), &pkts[i%len(pkts)])
		if i%4 == 0 {
			eng.Step()
		}
		i++
	}
}

func BenchmarkBottleneckDropTail(b *testing.B) {
	op := dropTailWorkload()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// TestZeroAllocHotPath holds the per-packet paths — steady forwarding
// through the serializer line, the whole dumbbell loop and the drop-tail
// branch — to 0 allocs/op once warm.
func TestZeroAllocHotPath(t *testing.T) {
	_, steady := steadyStateWorkload()
	if n := testing.AllocsPerRun(1000, steady); n != 0 {
		t.Errorf("steady-state forwarding allocates %v times per op", n)
	}
	if n := testing.AllocsPerRun(1000, roundTripWorkload()); n != 0 {
		t.Errorf("dumbbell round trip allocates %v times per op", n)
	}
	if n := testing.AllocsPerRun(1000, dropTailWorkload()); n != 0 {
		t.Errorf("drop-tail enqueue allocates %v times per op", n)
	}
}
