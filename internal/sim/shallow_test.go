package sim_test

import (
	"testing"

	"prudentia/internal/cca"
	"prudentia/internal/netem"
	"prudentia/internal/sim"
	"prudentia/internal/transport"
)

// TestHeapStaysShallow is the structural gate on the hot path: with two
// bulk flows saturating the 50 Mbps setting there are hundreds of packets
// in flight (upstream, queued, downstream, ACKs returning), and before
// delay lines and lazy RTO deadlines each of them was a heap entry (350
// at the high-water mark). Now the heap holds line heads and timers only:
// its depth depends on the number of flows and stages, not on the
// bandwidth-delay product.
func TestHeapStaysShallow(t *testing.T) {
	eng := sim.NewEngine()
	tb := netem.NewTestbed(eng, netem.ModeratelyConstrained(), sim.NewRNG(1))
	rng := sim.NewRNG(2)
	bbr := transport.NewFlow(tb, 0, cca.NewBBR(cca.Config{}, cca.BBRLinux415(), rng.Split()), transport.Options{})
	cubic := transport.NewFlow(tb, 1, cca.NewCubic(cca.Config{}), transport.Options{})
	bbr.SetBulk()
	cubic.SetBulk()

	highWater, inFlight := 0, 0
	for eng.Now() < 3*sim.Second && eng.Step() {
		// The heap only grows inside callbacks, so its size between
		// steps is its high-water mark.
		if n := sim.HeapLen(eng); n > highWater {
			highWater = n
		}
		if n := eng.Pending(); n > inFlight {
			inFlight = n
		}
	}
	if tb.Bneck.Stats(0).DeliveredPackets == 0 || tb.Bneck.Stats(1).DeliveredPackets == 0 {
		t.Fatal("a flow delivered nothing; the gate measured an idle testbed")
	}
	if inFlight < 200 {
		t.Fatalf("only %d events pending at the peak; the workload no longer loads the path", inFlight)
	}
	if highWater > 32 {
		t.Fatalf("heap high-water %d entries with %d events pending, want at most 32", highWater, inFlight)
	}
	t.Logf("heap high-water %d entries, %d events pending at the peak", highWater, inFlight)
}
