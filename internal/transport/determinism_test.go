package transport

import (
	"testing"

	"prudentia/internal/cca"
	"prudentia/internal/netem"
	"prudentia/internal/sim"
)

// ccaTrace is one sampled control-state trajectory: congestion window,
// pacing rate, and delivered bytes every 10 ms of virtual time.
type ccaTrace struct {
	cwnd      []int
	pacing    []int64
	delivered []int64
}

// runCCATrial drives one bulk flow with the given controller over a lossy
// constrained path (drop-tail overflow plus upstream noise, both drawing
// on the trial RNG) and samples its trajectory.
func runCCATrial(t *testing.T, mk func(*sim.RNG) cca.Algorithm, seed uint64) ccaTrace {
	t.Helper()
	rng := sim.NewRNG(seed)
	eng := sim.NewEngine()
	cfg := netem.Config{
		RateBps: 8_000_000,
		RTT:     50 * sim.Millisecond,
		Noise: &netem.NoiseConfig{
			MeanEpisodeGap:  200 * sim.Millisecond,
			MeanEpisodeLen:  5 * sim.Millisecond,
			DropProbability: 0.1,
		},
	}
	tb := netem.NewTestbed(eng, cfg, rng)
	f := NewFlow(tb, 0, mk(rng), Options{})
	f.SetBulk()

	var tr ccaTrace
	var tick sim.Event
	tick = func(now sim.Time) {
		tr.cwnd = append(tr.cwnd, f.alg.CwndPackets())
		tr.pacing = append(tr.pacing, f.alg.PacingRate())
		tr.delivered = append(tr.delivered, f.DeliveredBytes())
		eng.After(10*sim.Millisecond, tick)
	}
	eng.After(10*sim.Millisecond, tick)
	eng.RunUntil(5 * sim.Second)
	f.Close()
	return tr
}

// TestCrossCCADeterminism runs every congestion controller twice from the
// same seed and requires identical cwnd/pacing/delivery trajectories.
// This pins the RNG-sharing contract that the engine and packet pooling
// must not perturb: identical seeds mean identical RNG draw order,
// identical event order, identical control decisions — the property every
// golden trace and every reproducible watchdog trial rests on.
func TestCrossCCADeterminism(t *testing.T) {
	cases := []struct {
		name string
		mk   func(*sim.RNG) cca.Algorithm
	}{
		{"newreno", func(*sim.RNG) cca.Algorithm { return cca.NewNewReno(cca.Config{}) }},
		{"cubic", func(*sim.RNG) cca.Algorithm { return cca.NewCubic(cca.Config{}) }},
		{"cubic-extended", func(*sim.RNG) cca.Algorithm { return cca.NewCubicExtended(cca.Config{}) }},
		{"bbr-linux-4.15", func(r *sim.RNG) cca.Algorithm { return cca.NewBBR(cca.Config{}, cca.BBRLinux415(), r) }},
		{"bbr-linux-5.15", func(r *sim.RNG) cca.Algorithm { return cca.NewBBR(cca.Config{}, cca.BBRLinux515(), r) }},
		{"bbrv3", func(r *sim.RNG) cca.Algorithm { return cca.NewBBRv3(cca.Config{}, r) }},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			const seed = 0xC0FFEE
			a := runCCATrial(t, tc.mk, seed)
			b := runCCATrial(t, tc.mk, seed)
			if len(a.cwnd) == 0 {
				t.Fatal("no samples collected")
			}
			if len(a.cwnd) != len(b.cwnd) {
				t.Fatalf("sample counts differ: %d vs %d", len(a.cwnd), len(b.cwnd))
			}
			for i := range a.cwnd {
				if a.cwnd[i] != b.cwnd[i] || a.pacing[i] != b.pacing[i] || a.delivered[i] != b.delivered[i] {
					t.Fatalf("trajectories diverge at sample %d (t=%dms): cwnd %d/%d pacing %d/%d delivered %d/%d",
						i, (i+1)*10, a.cwnd[i], b.cwnd[i], a.pacing[i], b.pacing[i], a.delivered[i], b.delivered[i])
				}
			}
			// The path must actually have stressed the controller, or the
			// comparison proves nothing.
			if a.delivered[len(a.delivered)-1] == 0 {
				t.Fatal("degenerate trial: nothing delivered")
			}
		})
	}
}

// TestGCCControllerDeterminism covers the rate-based controllers (Meet
// and Teams GCC flavours), which speak Feedback rather than AckSample:
// identical synthetic feedback streams must yield identical target-rate
// ladders.
func TestGCCControllerDeterminism(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  cca.GCCConfig
	}{
		{"meet", cca.MeetGCC()},
		{"teams", cca.TeamsController()},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			run := func() []int64 {
				g := cca.NewGCC(tc.cfg)
				rng := sim.NewRNG(7)
				var rates []int64
				now := sim.Time(0)
				for i := 0; i < 400; i++ {
					now += 100 * sim.Millisecond
					fb := cca.Feedback{
						Interval:      100 * sim.Millisecond,
						LossRate:      rng.Float64() * 0.05,
						QueueDelay:    rng.Duration(40 * sim.Millisecond),
						DelayGradient: rng.Float64()*20 - 10,
						ReceiveRate:   g.TargetRate() - int64(rng.Intn(100_000)),
					}
					g.OnFeedback(now, fb)
					rates = append(rates, g.TargetRate())
				}
				return rates
			}
			a, b := run(), run()
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("%s target rates diverge at report %d: %d vs %d", tc.name, i, a[i], b[i])
				}
			}
			// Sanity: the ladder moved at least once under varying feedback.
			moved := false
			for i := 1; i < len(a); i++ {
				if a[i] != a[i-1] {
					moved = true
					break
				}
			}
			if !moved {
				t.Fatal("target rate never changed across 400 varied reports")
			}
		})
	}
}
