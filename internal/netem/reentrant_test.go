package netem

import (
	"testing"

	"prudentia/internal/sim"
)

// TestBottleneckReentrantOutputLoop runs the closed loop bench/'s
// netem.probe_ns_per_packet and BenchmarkBottleneckSteadyState use: a
// Bottleneck with no Testbed whose Output re-enters Enqueue with the
// packet it was just handed. The delivery callback therefore runs inside
// the downstream delay line's dispatch and, through Enqueue and the
// serializer, feeds the same line again. 100k deliveries must come out in
// the order the packets went in, none lost, none duplicated.
func TestBottleneckReentrantOutputLoop(t *testing.T) {
	eng := sim.NewEngine()
	bn := NewBottleneck(eng, 96_000_000, 64, sim.Millisecond)
	const population = 32
	const deliveries = 100_000
	delivered := 0
	var lastAt sim.Time
	bn.Output = func(now sim.Time, p *Packet) {
		if want := int64(delivered % population); p.Seq != want {
			t.Fatalf("delivery %d handed seq %d, want %d: FIFO order broken", delivered, p.Seq, want)
		}
		if now < lastAt {
			t.Fatalf("delivery %d at %v, before the previous one at %v", delivered, now, lastAt)
		}
		lastAt = now
		delivered++
		bn.Enqueue(now, p)
	}
	pkts := make([]Packet, population)
	for i := range pkts {
		pkts[i] = Packet{Size: 1500, Service: i % 2, Seq: int64(i)}
		bn.Enqueue(0, &pkts[i])
	}
	for delivered < deliveries {
		if !eng.Step() {
			t.Fatalf("engine ran dry after %d deliveries", delivered)
		}
	}
	var done, dropped int64
	for s := 0; s < MaxServices; s++ {
		done += bn.Stats(s).DeliveredPackets
		dropped += bn.Stats(s).DroppedPackets
	}
	if dropped != 0 {
		t.Fatalf("%d packets dropped in a closed loop of %d with capacity 64", dropped, population)
	}
	// Every serialized packet is either delivered or on the downstream hop
	// (1 ms at 125 us per packet: at most 8 and a fraction).
	if onWire := done - int64(delivered); onWire < 0 || onWire > 9 {
		t.Fatalf("serialized %d, delivered %d: %d on a downstream hop that holds at most 9", done, delivered, onWire)
	}
	// 125 us per packet on the wire.
	if want := sim.Time(deliveries) * 125 * sim.Microsecond; lastAt < want || lastAt > want+2*sim.Millisecond {
		t.Fatalf("delivery %d at %v, want about %v", deliveries, lastAt, want)
	}
}

// TestShortenedDownstreamDelayFallsBack mutates DownstreamDelay while
// packets are on the downstream hop: the later packet is due before the
// earlier ones, which a FIFO line cannot express, so it must take the
// ordinary heap path and still be delivered at its own instant.
func TestShortenedDownstreamDelayFallsBack(t *testing.T) {
	eng := sim.NewEngine()
	bn := NewBottleneck(eng, 96_000_000, 64, 10*sim.Millisecond)
	var got []int64
	var at []sim.Time
	bn.Output = func(now sim.Time, p *Packet) { got = append(got, p.Seq); at = append(at, now) }
	bn.Enqueue(0, &Packet{Size: 1500, Seq: 0})
	bn.Enqueue(0, &Packet{Size: 1500, Seq: 1})
	eng.RunUntil(200 * sim.Microsecond) // seq 0 is on the downstream hop
	bn.DownstreamDelay = sim.Millisecond
	eng.Run()
	if len(got) != 2 || got[0] != 1 || got[1] != 0 {
		t.Fatalf("delivered %v, want seq 1 (1 ms hop) before seq 0 (10 ms hop)", got)
	}
	if at[0] != 1250*sim.Microsecond || at[1] != 10125*sim.Microsecond {
		t.Fatalf("delivered at %v, want [1.25ms 10.125ms]", at)
	}
}
