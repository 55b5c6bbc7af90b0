package core_test

import (
	"fmt"
	"testing"

	"prudentia/internal/core"
	"prudentia/internal/metrics"
	"prudentia/internal/netem"
	"prudentia/internal/services"
	"prudentia/internal/sim"
)

// windowed is every field of a TrialResult that reads the measurement
// window and nothing else; they are what verdicts are made of.
type windowed struct {
	Mbps, SharePct, FairShareMbps, Loss [2]float64
	Utilization                         float64
	QueueDelay                          [2]sim.Time
}

func windowedOf(r core.TrialResult) windowed {
	return windowed{r.Mbps, r.SharePct, r.FairShareMbps, r.Loss, r.Utilization, r.QueueDelay}
}

// oracleTrial is the reference s is held to, expressed through the
// public Observe hook: the same seed with Cooldown 0 runs its engine all
// the way to Duration, while the hook's own events read the bottleneck
// counters at the window edges of s. The
// windowed fields are computed from those reads with the arithmetic
// RunTrial uses. tail is how many packets reached the bottleneck after
// the closing read.
func oracleTrial(t *testing.T, s core.Spec) (w windowed, obs core.TrialObs, tail int64) {
	t.Helper()
	closeAt := s.Duration - s.Cooldown
	var open, shut [2]netem.ServiceStats
	full := s
	full.Cooldown = 0
	full.Observe = func(tb *netem.Testbed) {
		tb.Eng.Schedule(s.Warmup, func(sim.Time) {
			open = [2]netem.ServiceStats{tb.Bneck.Stats(0), tb.Bneck.Stats(1)}
		})
		tb.Eng.Schedule(closeAt, func(sim.Time) {
			shut = [2]netem.ServiceStats{tb.Bneck.Stats(0), tb.Bneck.Stats(1)}
		})
	}
	res, err := core.RunTrial(full)
	if err != nil {
		t.Fatal(err)
	}

	window := closeAt - s.Warmup
	caps := [2]int64{s.Incumbent.MaxRateBps(), 0}
	if s.Contender != nil {
		caps[1] = s.Contender.MaxRateBps()
	}
	fair := metrics.MmFShares(s.Net.RateBps, caps)
	var win [2]metrics.WindowStats
	for slot := range win {
		win[slot] = metrics.Sub(shut[slot], open[slot])
		w.Mbps[slot] = win[slot].ThroughputMbps(window)
		w.Loss[slot] = win[slot].LossRate()
		w.QueueDelay[slot] = win[slot].MeanQueueDelay()
		w.FairShareMbps[slot] = fair[slot] / 1e6
		w.SharePct[slot] = metrics.SharePercent(w.Mbps[slot]*1e6, fair[slot])
	}
	w.Utilization = metrics.LinkUtilization(
		[2]int64{win[0].Bytes, win[1].Bytes}, s.Net.RateBps, window)
	tail = res.Obs.ArrivedPackets - shut[0].ArrivedPackets - shut[1].ArrivedPackets
	return w, res.Obs, tail
}

// TestTrialEndsAtWindowClose is the oracle for the one thing the trimmed
// cooldown asserts: stopping the engine where the window closes changes
// no windowed figure by a bit, simulates strictly fewer packets (the
// same number when the oracle's own tail was idle, as a video with a
// full buffer is), and reports the seconds it really ran. Every catalog service runs solo,
// and six pairs cover loss-based vs loss-based, BBR vs Cubic, video vs
// video, Mega's batches, an app-limited incumbent and a self-pair.
func TestTrialEndsAtWindowClose(t *testing.T) {
	nets := []netem.Config{netem.HighlyConstrained(), netem.ModeratelyConstrained()}
	timings := []struct {
		name  string
		apply func(core.Spec) core.Spec
	}{
		{"screen", core.Spec.ScreenTiming},
		{"quick", core.Spec.QuickTiming},
	}
	if testing.Short() {
		nets, timings = nets[:1], timings[:1]
	}

	var cases [][2]string
	for _, svc := range services.ThroughputCatalog() {
		cases = append(cases, [2]string{svc.Name(), ""})
	}
	cases = append(cases,
		[2]string{"Mega", "iPerf (Reno)"},
		[2]string{"iPerf (BBR)", "iPerf (Cubic)"},
		[2]string{"YouTube", "Netflix"},
		[2]string{"Google Drive", "Mega"},
		[2]string{"Netflix", "OneDrive"},
		[2]string{"Dropbox", "Dropbox"},
	)

	for _, net := range nets {
		for _, timing := range timings {
			for i, c := range cases {
				name := fmt.Sprintf("%dMbps/%s/%s", net.RateBps/1e6, timing.name, c[0])
				if c[1] != "" {
					name += " vs " + c[1]
				}
				s := timing.apply(core.Spec{
					Incumbent: services.ByName(c[0]),
					Net:       net,
					Seed:      uint64(7000 + i),
				})
				if c[1] != "" {
					s.Contender = services.ByName(c[1])
				}
				t.Run(name, func(t *testing.T) {
					got, err := core.RunTrial(s)
					if err != nil {
						t.Fatal(err)
					}
					want, fullObs, tail := oracleTrial(t, s)
					if g := windowedOf(got); g != want {
						t.Errorf("windowed fields moved:\n  trial:  %+v\n  oracle: %+v", g, want)
					}
					if got.Mbps[0] <= 0 {
						t.Errorf("incumbent delivered %v Mbps in the window: the comparison proves nothing", got.Mbps[0])
					}
					a, full := got.Obs.ArrivedPackets, fullObs.ArrivedPackets
					if tail == 0 && a != full {
						t.Errorf("ArrivedPackets = %d, want the %d of a run to Duration, whose tail was idle", a, full)
					}
					if tail > 0 && a >= full {
						t.Errorf("ArrivedPackets = %d, want fewer than the %d of a run to Duration (%d of them in its tail)",
							a, full, tail)
					}
					if want := (s.Duration - s.Cooldown).Seconds(); got.Obs.SimSeconds != want {
						t.Errorf("SimSeconds = %v, want %v", got.Obs.SimSeconds, want)
					}
				})
			}
		}
	}
}
