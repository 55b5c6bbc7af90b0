package report

import (
	"strings"
	"testing"

	"prudentia/internal/metrics"
	"prudentia/internal/netem"
	"prudentia/internal/sim"
)

func TestHeatmapLayout(t *testing.T) {
	names := []string{"YouTube", "Mega"}
	h := Heatmap("test map", names, func(inc, cont string) (float64, bool) {
		if inc == "YouTube" && cont == "Mega" {
			return 23, true
		}
		if inc == "Mega" && cont == "YouTube" {
			return 171, true
		}
		return 100, true
	}, ".0f")
	lines := strings.Split(strings.TrimSpace(h), "\n")
	if len(lines) != 4 { // title + header + 2 rows
		t.Fatalf("heatmap lines = %d:\n%s", len(lines), h)
	}
	// Row = contender, column = incumbent: the Mega row, YouTube column
	// holds 23.
	megaRow := lines[3]
	if !strings.HasPrefix(megaRow, "Mega") || !strings.Contains(megaRow, "23") {
		t.Fatalf("mega row = %q", megaRow)
	}
}

func TestHeatmapBlankCells(t *testing.T) {
	h := Heatmap("m", []string{"A"}, func(_, _ string) (float64, bool) { return 0, false }, ".0f")
	if !strings.Contains(h, "-") {
		t.Fatalf("missing blank marker:\n%s", h)
	}
}

func TestSparkline(t *testing.T) {
	s := Sparkline([]float64{0, 5, 10}, 10)
	runes := []rune(s)
	if len(runes) != 3 {
		t.Fatalf("sparkline = %q", s)
	}
	if runes[0] != '▁' || runes[2] != '█' {
		t.Fatalf("sparkline scaling wrong: %q", s)
	}
	// Auto-max and clamping.
	if Sparkline([]float64{0, 0}, 0) != "▁▁" {
		t.Fatal("zero series")
	}
	if got := Sparkline([]float64{100}, 10); got != "█" {
		t.Fatalf("clamp = %q", got)
	}
}

func TestRateAndQueueSeries(t *testing.T) {
	pts := []metrics.RatePoint{{At: sim.Second, Mbps: [2]float64{10, 40}}}
	out := RateSeries("title", pts, 50, [2]string{"a", "b"})
	if !strings.Contains(out, "title") || !strings.Contains(out, "a") {
		t.Fatalf("rate series = %q", out)
	}
	qs := QueueSeries("q", []netem.OccupancySample{{Total: 512}}, 1024)
	if !strings.Contains(qs, "queue/1024") {
		t.Fatalf("queue series = %q", qs)
	}
}

func TestTable(t *testing.T) {
	tab := &Table{Header: []string{"name", "value"}}
	tab.Add("alpha", "1")
	tab.Add("longer-name", "2")
	out := tab.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("table lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[0], "name") {
		t.Fatalf("header = %q", lines[0])
	}
	// Columns aligned: both rows start their second column at the same
	// offset.
	idx1 := strings.Index(lines[2], "1")
	idx2 := strings.Index(lines[3], "2")
	if idx1 != idx2 {
		t.Fatalf("columns misaligned: %d vs %d\n%s", idx1, idx2, out)
	}
}

func TestAbbreviate(t *testing.T) {
	cases := map[string]string{
		"iPerf (BBR)":     "BBR",
		"Google Meet":     "GMeet",
		"Microsoft Teams": "MSTeams",
		"wikipedia.org":   "wikiped", // truncated to width
	}
	for in, want := range cases {
		if got := abbreviate(in, 7); got != want {
			t.Errorf("abbreviate(%q) = %q, want %q", in, got, want)
		}
	}
}
