package transport

import (
	"testing"

	"prudentia/internal/cca"
	"prudentia/internal/netem"
	"prudentia/internal/sim"
)

// run builds a testbed, starts bulk flows with the given algorithms on
// slots, runs for dur, and returns per-slot delivered bytes.
func run(t *testing.T, cfg netem.Config, algs []func(i int) (cca.Algorithm, int), dur sim.Time) (*netem.Testbed, [2]int64) {
	t.Helper()
	eng := sim.NewEngine()
	tb := netem.NewTestbed(eng, cfg, sim.NewRNG(1))
	for i, mk := range algs {
		alg, slot := mk(i)
		f := NewFlow(tb, slot, alg, Options{})
		f.SetBulk()
	}
	eng.RunUntil(dur)
	return tb, [2]int64{tb.Bneck.Stats(0).DeliveredBytes, tb.Bneck.Stats(1).DeliveredBytes}
}

func mbps(bytes int64, dur sim.Time) float64 {
	return float64(bytes) * 8 / dur.Seconds() / 1e6
}

func TestSingleRenoUtilizesLink(t *testing.T) {
	cfg := netem.Config{RateBps: 10_000_000, RTT: 50 * sim.Millisecond}
	_, got := run(t, cfg, []func(int) (cca.Algorithm, int){
		func(int) (cca.Algorithm, int) { return cca.NewNewReno(cca.Config{}), 0 },
	}, 30*sim.Second)
	rate := mbps(got[0], 30*sim.Second)
	if rate < 8.5 || rate > 10.1 {
		t.Fatalf("single NewReno achieved %.2f Mbps on a 10 Mbps link", rate)
	}
}

func TestSingleCubicUtilizesLink(t *testing.T) {
	cfg := netem.Config{RateBps: 10_000_000, RTT: 50 * sim.Millisecond}
	_, got := run(t, cfg, []func(int) (cca.Algorithm, int){
		func(int) (cca.Algorithm, int) { return cca.NewCubic(cca.Config{}), 0 },
	}, 30*sim.Second)
	rate := mbps(got[0], 30*sim.Second)
	if rate < 8.5 || rate > 10.1 {
		t.Fatalf("single Cubic achieved %.2f Mbps on a 10 Mbps link", rate)
	}
}

func TestSingleBBRUtilizesLink(t *testing.T) {
	cfg := netem.Config{RateBps: 10_000_000, RTT: 50 * sim.Millisecond}
	_, got := run(t, cfg, []func(int) (cca.Algorithm, int){
		func(int) (cca.Algorithm, int) {
			return cca.NewBBR(cca.Config{}, cca.BBRLinux415(), sim.NewRNG(2)), 0
		},
	}, 30*sim.Second)
	rate := mbps(got[0], 30*sim.Second)
	if rate < 8.5 || rate > 10.5 {
		t.Fatalf("single BBR achieved %.2f Mbps on a 10 Mbps link", rate)
	}
}

func TestSingleBBRv3UtilizesLink(t *testing.T) {
	cfg := netem.Config{RateBps: 10_000_000, RTT: 50 * sim.Millisecond}
	_, got := run(t, cfg, []func(int) (cca.Algorithm, int){
		func(int) (cca.Algorithm, int) {
			return cca.NewBBRv3(cca.Config{}, sim.NewRNG(2)), 0
		},
	}, 30*sim.Second)
	rate := mbps(got[0], 30*sim.Second)
	if rate < 8.0 || rate > 10.5 {
		t.Fatalf("single BBRv3 achieved %.2f Mbps on a 10 Mbps link", rate)
	}
}

func TestBBRKeepsQueueShorterThanReno(t *testing.T) {
	// BBR's defining property: it does not fill the buffer the way
	// loss-based algorithms do.
	mean := func(alg func() cca.Algorithm) float64 {
		eng := sim.NewEngine()
		cfg := netem.Config{RateBps: 10_000_000, RTT: 50 * sim.Millisecond}
		tb := netem.NewTestbed(eng, cfg, sim.NewRNG(1))
		f := NewFlow(tb, 0, alg(), Options{})
		f.SetBulk()
		tb.Bneck.StartSampling(50 * sim.Millisecond)
		eng.RunUntil(30 * sim.Second)
		var sum float64
		samples := tb.Bneck.Samples()
		// skip startup
		samples = samples[len(samples)/3:]
		for _, s := range samples {
			sum += float64(s.Total)
		}
		return sum / float64(len(samples))
	}
	renoQ := mean(func() cca.Algorithm { return cca.NewNewReno(cca.Config{}) })
	bbrQ := mean(func() cca.Algorithm { return cca.NewBBR(cca.Config{}, cca.BBRLinux415(), sim.NewRNG(2)) })
	if bbrQ >= renoQ {
		t.Fatalf("BBR mean queue %.1f should be below Reno's %.1f", bbrQ, renoQ)
	}
}

func TestTwoRenoFlowsShareFairly(t *testing.T) {
	cfg := netem.Config{RateBps: 10_000_000, RTT: 50 * sim.Millisecond}
	_, got := run(t, cfg, []func(int) (cca.Algorithm, int){
		func(int) (cca.Algorithm, int) { return cca.NewNewReno(cca.Config{}), 0 },
		func(int) (cca.Algorithm, int) { return cca.NewNewReno(cca.Config{}), 1 },
	}, 60*sim.Second)
	a, b := mbps(got[0], 60*sim.Second), mbps(got[1], 60*sim.Second)
	if a+b < 8.5 {
		t.Fatalf("two Renos underutilize: %.2f + %.2f", a, b)
	}
	ratio := a / b
	if ratio < 0.6 || ratio > 1.67 {
		t.Fatalf("Reno vs Reno too skewed: %.2f vs %.2f Mbps", a, b)
	}
}

func TestTwoBBRFlowsShareFairly(t *testing.T) {
	cfg := netem.Config{RateBps: 10_000_000, RTT: 50 * sim.Millisecond}
	_, got := run(t, cfg, []func(int) (cca.Algorithm, int){
		func(i int) (cca.Algorithm, int) {
			return cca.NewBBR(cca.Config{}, cca.BBRLinux415(), sim.NewRNG(uint64(i+10))), 0
		},
		func(i int) (cca.Algorithm, int) {
			return cca.NewBBR(cca.Config{}, cca.BBRLinux415(), sim.NewRNG(uint64(i+10))), 1
		},
	}, 60*sim.Second)
	a, b := mbps(got[0], 60*sim.Second), mbps(got[1], 60*sim.Second)
	if a+b < 8.5 {
		t.Fatalf("two BBRs underutilize: %.2f + %.2f", a, b)
	}
	ratio := a / b
	if ratio < 0.5 || ratio > 2.0 {
		t.Fatalf("BBR vs BBR too skewed: %.2f vs %.2f Mbps", a, b)
	}
}

func TestBBRTakesLargeShareFromRenoInModerateBuffer(t *testing.T) {
	// Ware et al. (IMC'19), which the paper builds on: a single BBRv1
	// flow claims a large share against loss-based flows regardless of
	// their count. At 4xBDP buffers BBR should get at least ~35%.
	cfg := netem.Config{RateBps: 10_000_000, RTT: 50 * sim.Millisecond}
	_, got := run(t, cfg, []func(int) (cca.Algorithm, int){
		func(int) (cca.Algorithm, int) {
			return cca.NewBBR(cca.Config{}, cca.BBRLinux415(), sim.NewRNG(3)), 0
		},
		func(int) (cca.Algorithm, int) { return cca.NewNewReno(cca.Config{}), 1 },
	}, 60*sim.Second)
	a, b := mbps(got[0], 60*sim.Second), mbps(got[1], 60*sim.Second)
	share := a / (a + b)
	if share < 0.3 {
		t.Fatalf("BBR share vs Reno = %.2f (%.2f vs %.2f Mbps), want >= 0.3", share, a, b)
	}
}

func TestThrottleCapsRate(t *testing.T) {
	eng := sim.NewEngine()
	cfg := netem.Config{RateBps: 1_000_000_000, RTT: 50 * sim.Millisecond, QueueCapacity: 4096}
	tb := netem.NewTestbed(eng, cfg, sim.NewRNG(1))
	f := NewFlow(tb, 0, cca.NewCubicExtended(cca.Config{}), Options{ThrottleBps: 45_000_000})
	f.SetBulk()
	eng.RunUntil(20 * sim.Second)
	rate := mbps(tb.Bneck.Stats(0).DeliveredBytes, 20*sim.Second)
	if rate < 38 || rate > 46 {
		t.Fatalf("throttled flow achieved %.2f Mbps, want ~45", rate)
	}
}

func TestMessageCompletionCallback(t *testing.T) {
	eng := sim.NewEngine()
	cfg := netem.Config{RateBps: 10_000_000, RTT: 50 * sim.Millisecond}
	tb := netem.NewTestbed(eng, cfg, sim.NewRNG(1))
	f := NewFlow(tb, 0, cca.NewNewReno(cca.Config{}), Options{})
	var doneAt sim.Time
	f.Write(150_000, func(now sim.Time) { doneAt = now }) // 100 packets
	eng.RunUntil(30 * sim.Second)
	if doneAt == 0 {
		t.Fatal("message never completed")
	}
	// 100 packets over 10 Mbps should take well under 2 seconds including
	// slow start, and at least one RTT.
	if doneAt < 50*sim.Millisecond || doneAt > 2*sim.Second {
		t.Fatalf("message completed at %v", doneAt)
	}
	if f.DeliveredBytes() != 100*1500 {
		t.Fatalf("delivered %d bytes", f.DeliveredBytes())
	}
}

func TestSequentialMessagesCompleteInOrder(t *testing.T) {
	eng := sim.NewEngine()
	cfg := netem.Config{RateBps: 10_000_000, RTT: 50 * sim.Millisecond}
	tb := netem.NewTestbed(eng, cfg, sim.NewRNG(1))
	f := NewFlow(tb, 0, cca.NewCubic(cca.Config{}), Options{})
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		f.Write(75_000, func(sim.Time) { order = append(order, i) })
	}
	eng.RunUntil(30 * sim.Second)
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("completion order = %v", order)
	}
}

func TestRecoveryFromHeavyLoss(t *testing.T) {
	// A tiny queue forces repeated loss; the flow must still deliver all
	// data via fast retransmits and RTOs.
	eng := sim.NewEngine()
	cfg := netem.Config{RateBps: 5_000_000, RTT: 50 * sim.Millisecond, QueueCapacity: 8}
	tb := netem.NewTestbed(eng, cfg, sim.NewRNG(1))
	f := NewFlow(tb, 0, cca.NewNewReno(cca.Config{}), Options{})
	completed := false
	f.Write(1_500_000, func(sim.Time) { completed = true }) // 1000 packets
	eng.RunUntil(60 * sim.Second)
	if !completed {
		t.Fatalf("transfer did not complete; delivered=%d retx=%d timeouts=%d",
			f.DeliveredBytes(), tb.TransportRetransmits, f.Timeouts)
	}
	if tb.TransportRetransmits == 0 {
		t.Fatal("expected retransmissions with an 8-packet queue")
	}
}

func TestFlowCloseStopsTransmission(t *testing.T) {
	eng := sim.NewEngine()
	cfg := netem.Config{RateBps: 10_000_000, RTT: 50 * sim.Millisecond}
	tb := netem.NewTestbed(eng, cfg, sim.NewRNG(1))
	f := NewFlow(tb, 0, cca.NewNewReno(cca.Config{}), Options{})
	f.SetBulk()
	eng.RunUntil(2 * sim.Second)
	f.Close()
	at := tb.Bneck.Stats(0).ArrivedPackets
	eng.RunUntil(4 * sim.Second)
	after := tb.Bneck.Stats(0).ArrivedPackets
	// Only packets already upstream may still arrive.
	if after-at > 64 {
		t.Fatalf("flow kept sending after Close: %d new packets", after-at)
	}
}

func TestRTTSamplesNearConfiguredRTT(t *testing.T) {
	eng := sim.NewEngine()
	cfg := netem.Config{RateBps: 100_000_000, RTT: 50 * sim.Millisecond}
	tb := netem.NewTestbed(eng, cfg, sim.NewRNG(1))
	f := NewFlow(tb, 0, cca.NewNewReno(cca.Config{}), Options{})
	f.Write(15_000, nil)
	eng.RunUntil(5 * sim.Second)
	if f.srtt == 0 {
		t.Fatal("no RTT samples")
	}
	if f.srtt < 50*sim.Millisecond || f.srtt > 60*sim.Millisecond {
		t.Fatalf("SRTT = %v, want ~50ms", f.srtt)
	}
}

func TestBBRMinRTTTracking(t *testing.T) {
	eng := sim.NewEngine()
	cfg := netem.Config{RateBps: 10_000_000, RTT: 50 * sim.Millisecond}
	tb := netem.NewTestbed(eng, cfg, sim.NewRNG(1))
	alg := cca.NewBBR(cca.Config{}, cca.BBRLinux415(), sim.NewRNG(2))
	f := NewFlow(tb, 0, alg, Options{})
	f.SetBulk()
	eng.RunUntil(15 * sim.Second)
	bw := alg.BtlBw()
	// ~10 Mbps = 1.25 MB/s.
	if bw < 1_000_000 || bw > 1_500_000 {
		t.Fatalf("BBR BtlBw = %d B/s, want ~1.25MB/s", bw)
	}
	// In ProbeBW the window is cwnd_gain (2) x BtlBw x RTProp, so the
	// window and the bandwidth estimate give away the min-RTT estimate.
	rt := sim.Time(float64(alg.CwndPackets()*1500) / float64(2*bw) * float64(sim.Second)) // 1500: the default MSS
	if rt < 49*sim.Millisecond || rt > 60*sim.Millisecond {
		t.Fatalf("BBR RTProp implied by cwnd %d = %v, want ~50ms", alg.CwndPackets(), rt)
	}
}

func TestAppLimitedFlowDoesNotOverestimateBandwidth(t *testing.T) {
	// A flow sending only 100 KB/s on a 10 Mbps link must not build a
	// bandwidth estimate anywhere near link rate.
	eng := sim.NewEngine()
	cfg := netem.Config{RateBps: 10_000_000, RTT: 50 * sim.Millisecond}
	tb := netem.NewTestbed(eng, cfg, sim.NewRNG(1))
	alg := cca.NewBBR(cca.Config{}, cca.BBRLinux415(), sim.NewRNG(2))
	f := NewFlow(tb, 0, alg, Options{})
	var write sim.Event
	write = func(now sim.Time) {
		f.Write(10_000, nil)
		if now < 20*sim.Second {
			eng.After(100*sim.Millisecond, write)
		}
	}
	eng.After(0, write)
	eng.RunUntil(21 * sim.Second)
	rate := mbps(tb.Bneck.Stats(0).DeliveredBytes, 20*sim.Second)
	if rate > 1.2 {
		t.Fatalf("app-limited flow sent %.2f Mbps", rate)
	}
}
