package sim_test

import (
	"testing"

	"prudentia/internal/browser"
	"prudentia/internal/cca"
	"prudentia/internal/netem"
	"prudentia/internal/services"
	"prudentia/internal/sim"
	"prudentia/internal/transport"
)

// TestHeapStaysShallow is the structural gate on the heap: with two bulk
// flows saturating the 50 Mbps setting there are hundreds of packets in
// flight (upstream, queued, downstream, ACKs returning), and before delay
// lines and lazy RTO deadlines each of them was a heap entry (350 at the
// high-water mark). Now every packet in flight waits in a line, and lines
// have no heap entries: the heap holds the flows' timers (an RTO each,
// and the BBR flow's pacer; Cubic does not pace) and nothing else,
// whatever the bandwidth-delay product.
func TestHeapStaysShallow(t *testing.T) {
	eng := sim.NewEngine()
	tb := netem.NewTestbed(eng, netem.ModeratelyConstrained(), sim.NewRNG(1))
	rng := sim.NewRNG(2)
	bbr := transport.NewFlow(tb, 0, cca.NewBBR(cca.Config{}, cca.BBRLinux415(), rng.Split()), transport.Options{})
	cubic := transport.NewFlow(tb, 1, cca.NewCubic(cca.Config{}), transport.Options{})
	bbr.SetBulk()
	cubic.SetBulk()

	heap, heads, inFlight := 0, 0, 0
	for eng.Now() < 3*sim.Second && eng.Step() {
		// The heap and the armed slice only grow inside callbacks, so
		// their sizes between steps are their high-water marks.
		heap = max(heap, sim.HeapLen(eng))
		heads = max(heads, sim.ActiveLines(eng))
		inFlight = max(inFlight, eng.Pending())
	}
	if tb.Bneck.Stats(0).DeliveredPackets == 0 || tb.Bneck.Stats(1).DeliveredPackets == 0 {
		t.Fatal("a flow delivered nothing; the gate measured an idle testbed")
	}
	if inFlight < 200 {
		t.Fatalf("only %d events pending at the peak; the workload no longer loads the path", inFlight)
	}
	if heap > 3 {
		t.Fatalf("heap high-water %d entries with %d events pending, want at most 3 (the flows' timers)", heap, inFlight)
	}
	// Two upstream lines, the serializer, the downstream hop, two ACK lines.
	if heads > 6 {
		t.Fatalf("%d armed line heads at the peak, want at most 6", heads)
	}
	t.Logf("heap high-water %d entries, %d armed line heads, %d events pending at the peak", heap, heads, inFlight)
}

// TestActiveLinesStayFew bounds what the run loop scans per event. Every
// stage but the upstream hop is one line however many packets it holds;
// the upstream hop is one line per flow, and a flow's line is armed only
// while one of its packets is inside the hop's 5 to 7 ms. So the number
// of armed heads is bounded by the packets in that window plus the four
// fixed stages (serializer, downstream hop, two ACK lines), not by the
// number of flows. The pairs here are the widest in the catalog (web
// services with tens of connections, Mega's and iPerf's five) at 50 Mbps,
// where the window holds the most packets: 32 measured, 64 allowed.
func TestActiveLinesStayFew(t *testing.T) {
	names := []string{"news.google.com", "youtube.com", "wikipedia.org", "Mega", "iPerf (5xBBR)", "Google Meet"}
	// The web models load their first page 30 s in, beside a contender
	// that has had that long to fill the path.
	horizon := 36 * sim.Second
	if testing.Short() {
		horizon = 32 * sim.Second
	}
	worst, worstPair := 0, ""
	for i, a := range names {
		for _, b := range names[i+1:] {
			eng := sim.NewEngine()
			rng := sim.NewRNG(42)
			tb := netem.NewTestbed(eng, netem.ModeratelyConstrained(), rng.Split())
			for slot, name := range []string{a, b} {
				svc := services.ByName(name)
				if svc == nil {
					t.Fatalf("no service named %q", name)
				}
				svc.Start(&services.Env{Eng: eng, TB: tb, Slot: slot, RNG: rng.Split(), Client: browser.TestbedClient()})
			}
			heads, scanned, events := 0, 0, 0
			for eng.Now() < horizon && eng.Step() {
				n := sim.ActiveLines(eng)
				heads = max(heads, n)
				scanned += n
				events++
			}
			if tb.Bneck.Stats(0).DeliveredPackets == 0 || tb.Bneck.Stats(1).DeliveredPackets == 0 {
				t.Fatalf("%s vs %s: a service delivered nothing", a, b)
			}
			t.Logf("%s vs %s: high-water %d armed heads, mean %.1f over %d events", a, b, heads, float64(scanned)/float64(events), events)
			if heads > worst {
				worst, worstPair = heads, a+" vs "+b
			}
		}
	}
	if worst > 64 {
		t.Fatalf("%s armed %d line heads at once, want at most 64", worstPair, worst)
	}
}
