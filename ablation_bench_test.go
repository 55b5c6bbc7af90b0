// Ablation benchmarks for the calibration decisions documented in
// DESIGN.md §6: each one toggles a single modelling mechanism and prints
// the fairness outcome with and without it, quantifying how much of the
// paper's shape that mechanism carries. The rows come from the ablation
// figure functions in figures_test.go.
package prudentia

import (
	"fmt"
	"testing"
)

// BenchmarkAblationUpstreamJitter shows why the testbed injects 2 ms of
// upstream delay jitter: without it, the deterministic simulator gives a
// queue-owning ACK-clocked flow a perfect drop-tail lockout and
// Cubic-vs-Reno comes out nearly even instead of Cubic-dominant.
func BenchmarkAblationUpstreamJitter(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ix := printed(b, ablationJitter)
		for _, on := range []string{"on", "off"} {
			id := "ablation/jitter/" + on + "/"
			fmt.Printf("[ablation jitter=%v] Reno vs Cubic @50 Mbps: %s / %s Mbps (Reno %s%% of MmF)\n",
				on == "on", ix.text(id+"reno-mbps", "%.1f"), ix.text(id+"cubic-mbps", "%.1f"), ix.text(id+"reno-share", "%.0f"))
		}
	}
}

// BenchmarkAblationFragileRecovery isolates the classic-stack burst-loss
// collapse: the same NewReno flow against Mega, with and without it.
func BenchmarkAblationFragileRecovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ix := printed(b, ablationFragile)
		for _, fragile := range []bool{true, false} {
			id := fmt.Sprintf("ablation/fragile/%v/", fragile)
			fmt.Printf("[ablation fragile=%v] NewReno vs Mega @8 Mbps: %s / %s Mbps (%s collapses)\n",
				fragile, ix.text(id+"reno-mbps", "%.2f"), ix.text(id+"mega-mbps", "%.2f"), ix.text(id+"collapses", "%.0f"))
		}
	}
}

// BenchmarkAblationMegaBatching contrasts Mega's batch scheduler with
// five plain persistent flows of the same custom BBR — isolating how
// much of Mega's contentiousness is application-level scheduling (the
// paper's Obs 4 point) versus its transport configuration.
func BenchmarkAblationMegaBatching(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ix := printed(b, ablationBatching)
		fmt.Printf("[ablation batching] Reno MmF share: vs Mega %s%%, vs plain 5xBBR %s%%\n",
			ix.text("ablation/batching/vs-mega", "%.0f"), ix.text("ablation/batching/vs-5xbbr", "%.0f"))
	}
}

// BenchmarkAblationVideoPipelining toggles the player's request
// pipelining: without it the duty-cycled fetches starve BBR's bandwidth
// estimator under contention and the player collapses to the bottom
// rungs.
func BenchmarkAblationVideoPipelining(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ix := printed(b, ablationPipelining)
		for _, depth := range []int{1, 2} {
			id := fmt.Sprintf("ablation/pipeline/depth%d/", depth)
			fmt.Printf("[ablation pipeline=%d] YouTube vs iPerf (Reno) @8 Mbps: %s Mbps, dominant %sp\n",
				depth, ix.text(id+"mbps", "%.2f"), ix.text(id+"resolution", "%.0f"))
		}
	}
}
