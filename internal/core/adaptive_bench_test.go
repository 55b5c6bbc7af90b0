package core

import (
	"testing"
	"time"

	"prudentia/internal/netem"
)

// BenchmarkAdaptiveMatrix measures the adaptive subsystem's headline
// claim: trials per cycle and simulated-seconds throughput for the
// same matrix under the fixed §3.4 protocol and under adaptive
// stopping. TestAdaptiveVsFixedEquivalence holds the 30% savings floor
// on the same matrix; bench/ reports the saving end to end as
// core.adaptive_trials_saved.
func BenchmarkAdaptiveMatrix(b *testing.B) {
	net := netem.HighlyConstrained()
	for _, mode := range []string{"fixed", "adaptive"} {
		b.Run("mode="+mode, func(b *testing.B) {
			opts := adaptiveTestOpts(net)
			if mode == "adaptive" {
				opts.Adaptive = &AdaptiveOptions{}
			}
			var trials int
			var simSecs float64
			start := time.Now()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m := &Matrix{Services: threeServices(), Net: net, Opts: opts}
				res, err := m.Run()
				if err != nil {
					b.Fatal(err)
				}
				trials, simSecs = 0, 0
				for _, p := range res.Pairs {
					trials += p.Counted()
					simSecs += p.Sketches.Obs.SimSeconds
				}
			}
			wall := time.Since(start).Seconds()
			b.ReportMetric(float64(trials), "trials/cycle")
			b.ReportMetric(simSecs*float64(b.N)/wall, "simsec/wallsec")
		})
	}
}
