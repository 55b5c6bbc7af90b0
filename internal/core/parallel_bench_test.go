package core

import (
	"fmt"
	"os"
	"testing"

	"prudentia/internal/netem"
	"prudentia/internal/services"
)

// BenchmarkMatrixParallel measures the all-pairs matrix at 1, 2, 4, and
// 8 workers on the compressed protocol (run it with `go test -bench`;
// bench/run.sh's cycle8_adaptive_durable measures the pool end to end).
// Results are byte-identical across sub-benchmarks (the determinism
// tests prove it); only wall-clock changes. Speedup above 1 worker is
// bounded by GOMAXPROCS: on a single-CPU host the parallel runs measure
// pure scheduling overhead, not gains. Set PRUDENTIA_BENCH_FULL=1 to
// use the full throughput catalog (28 pairs) instead of a 6-pair
// subset.
func BenchmarkMatrixParallel(b *testing.B) {
	svcs := []services.Service{
		services.ByName("YouTube"),
		services.ByName("Dropbox"),
		services.ByName("iPerf (Cubic)"),
		services.ByName("iPerf (Reno)"),
	}
	if os.Getenv("PRUDENTIA_BENCH_FULL") == "1" {
		svcs = services.ThroughputCatalog()
	}
	net := netem.HighlyConstrained()
	opts := fastOpts(net)
	opts.BaseSeed = 7

	for _, nw := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", nw), func(b *testing.B) {
			var trials int64
			for i := 0; i < b.N; i++ {
				m := &Matrix{Services: svcs, Net: net, Opts: opts, Workers: nw}
				res, err := m.Run()
				if err != nil {
					b.Fatal(err)
				}
				for _, p := range res.Pairs {
					trials += int64(p.Counted())
				}
			}
			b.ReportMetric(float64(trials)/b.Elapsed().Seconds(), "trials/s")
		})
	}
}
