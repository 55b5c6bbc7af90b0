package obs

import (
	"testing"
	"testing/quick"

	"prudentia/internal/netem"
	"prudentia/internal/sim"
)

func TestMmFSharesUnlimited(t *testing.T) {
	got := MmFShares(50_000_000, [2]int64{0, 0})
	if got[0] != 25e6 || got[1] != 25e6 {
		t.Fatalf("unlimited shares = %v", got)
	}
}

func TestMmFSharesOneCapped(t *testing.T) {
	// YouTube (13 Mbps cap) vs bulk at 50 Mbps: 13 / 37 (the §4 rule).
	got := MmFShares(50_000_000, [2]int64{13_000_000, 0})
	if got[0] != 13e6 || got[1] != 37e6 {
		t.Fatalf("capped shares = %v", got)
	}
	// Mirror image.
	got = MmFShares(50_000_000, [2]int64{0, 13_000_000})
	if got[0] != 37e6 || got[1] != 13e6 {
		t.Fatalf("mirrored shares = %v", got)
	}
}

func TestMmFSharesCapAboveHalfIsIrrelevant(t *testing.T) {
	// A 45 Mbps cap does not constrain a 25 Mbps fair share.
	got := MmFShares(50_000_000, [2]int64{45_000_000, 0})
	if got[0] != 25e6 || got[1] != 25e6 {
		t.Fatalf("high cap shares = %v", got)
	}
}

func TestMmFSharesBothCapped(t *testing.T) {
	// Meet (1.5) vs Teams (2.6) at 8 Mbps: both app-limited; shares are
	// the caps themselves.
	got := MmFShares(8_000_000, [2]int64{1_500_000, 2_600_000})
	if got[0] != 1.5e6 || got[1] != 2.6e6 {
		t.Fatalf("both-capped shares = %v", got)
	}
}

func TestMmFSharesConservationProperty(t *testing.T) {
	// For at most one capped service, shares always sum to link rate.
	if err := quick.Check(func(link uint32, cap uint32) bool {
		l := int64(link%100_000_000) + 1_000_000
		c := int64(cap % 50_000_000)
		s := MmFShares(l, [2]int64{c, 0})
		return int64(s[0]+s[1]) == l
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSharePercent(t *testing.T) {
	if got := SharePercent(20e6, 25e6); got != 80 {
		t.Fatalf("SharePercent = %v", got)
	}
	if got := SharePercent(10, 0); got != 0 {
		t.Fatalf("zero fair share should give 0, got %v", got)
	}
}

func TestLinkUtilization(t *testing.T) {
	// 2 services × 18.75 MB over 6s on 50 Mbps = full utilization.
	got := LinkUtilization([2]int64{18_750_000, 18_750_000}, 50_000_000, 6*sim.Second)
	if got < 0.999 || got > 1.001 {
		t.Fatalf("utilization = %v", got)
	}
	if LinkUtilization([2]int64{1, 1}, 0, sim.Second) != 0 {
		t.Fatal("zero link rate")
	}
}

func TestWindowStatsSub(t *testing.T) {
	earlier := netem.ServiceStats{ArrivedPackets: 100, DroppedPackets: 5, DeliveredPackets: 95, DeliveredBytes: 95 * 1500, QueueDelaySum: 95 * sim.Millisecond}
	later := netem.ServiceStats{ArrivedPackets: 300, DroppedPackets: 15, DeliveredPackets: 285, DeliveredBytes: 285 * 1500, QueueDelaySum: 475 * sim.Millisecond}
	w := Sub(later, earlier)
	if w.Arrived != 200 || w.Dropped != 10 || w.Delivered != 190 {
		t.Fatalf("window = %+v", w)
	}
	if got := w.LossRate(); got != 0.05 {
		t.Fatalf("loss = %v", got)
	}
	if got := w.MeanQueueDelay(); got != 2*sim.Millisecond {
		t.Fatalf("mean qdelay = %v", got)
	}
	if got := w.ThroughputMbps(2 * sim.Second); got != float64(190*1500*8)/2/1e6 {
		t.Fatalf("mbps = %v", got)
	}
}

func TestWindowStatsDegenerate(t *testing.T) {
	var w WindowStats
	if w.LossRate() != 0 || w.MeanQueueDelay() != 0 || w.ThroughputMbps(0) != 0 {
		t.Fatal("degenerate window stats should be zero")
	}
}

func TestRateSampler(t *testing.T) {
	eng := sim.NewEngine()
	b := netem.NewBottleneck(eng, 12_000_000, 100, 0)
	b.Output = func(sim.Time, *netem.Packet) {}
	rs := NewRateSampler(eng, b, 100*sim.Millisecond)
	// Feed 1 packet per ms for 500 ms on slot 0 => 12 Mbps measured.
	for i := 0; i < 500; i++ {
		at := sim.Time(i) * sim.Millisecond
		eng.Schedule(at, func(now sim.Time) {
			b.Enqueue(now, &netem.Packet{Size: 1500, Service: 0})
		})
	}
	eng.RunUntil(600 * sim.Millisecond)
	pts := rs.Points
	if len(pts) < 5 {
		t.Fatalf("samples = %d", len(pts))
	}
	// Middle samples should read ~12 Mbps on slot 0 and 0 on slot 1.
	mid := pts[2]
	if mid.Mbps[0] < 11 || mid.Mbps[0] > 13 {
		t.Fatalf("slot0 rate = %v", mid.Mbps[0])
	}
	if mid.Mbps[1] != 0 {
		t.Fatalf("slot1 rate = %v", mid.Mbps[1])
	}
}
