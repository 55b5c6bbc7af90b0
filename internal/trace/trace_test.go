package trace

import (
	"strings"
	"testing"

	"prudentia/internal/netem"
	"prudentia/internal/obs"
	"prudentia/internal/sim"
)

func TestWriteQueueCSV(t *testing.T) {
	var sb strings.Builder
	samples := []netem.OccupancySample{
		{At: sim.Second, Total: 5, PerService: [2]int{3, 2}},
		{At: 2 * sim.Second, Total: 1, PerService: [2]int{1, 0}},
	}
	if err := WriteQueueCSV(&sb, samples); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %v", lines)
	}
	if lines[0] != "time_s,total_pkts,svc0_pkts,svc1_pkts" {
		t.Fatalf("header = %q", lines[0])
	}
	if lines[1] != "1.000000,5,3,2" {
		t.Fatalf("row = %q", lines[1])
	}
}

func TestWriteRateCSV(t *testing.T) {
	var sb strings.Builder
	pts := []obs.RatePoint{{At: sim.Second, Mbps: [2]float64{12.5, 3.25}}}
	if err := WriteRateCSV(&sb, pts); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "1.000000,12.5000,3.2500") {
		t.Fatalf("csv = %q", sb.String())
	}
}
