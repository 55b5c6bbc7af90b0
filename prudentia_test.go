package prudentia

import (
	"fmt"
	"testing"
)

func TestServicesListsCatalog(t *testing.T) {
	names := Services()
	if len(names) != 15 {
		t.Fatalf("catalog = %d entries", len(names))
	}
	seen := map[string]bool{}
	for _, n := range names {
		seen[n] = true
	}
	for _, want := range []string{"YouTube", "Mega", "iPerf (Reno)", "Google Meet"} {
		if !seen[want] {
			t.Fatalf("catalog missing %q", want)
		}
	}
}

func TestSettingConfig(t *testing.T) {
	hc, err := HighlyConstrained.Config()
	if err != nil || hc.RateBps != 8_000_000 {
		t.Fatalf("highly = %+v, %v", hc, err)
	}
	mc, err := ModeratelyConstrained.Config()
	if err != nil || mc.RateBps != 50_000_000 {
		t.Fatalf("moderately = %+v, %v", mc, err)
	}
	if _, err := Setting("bogus").Config(); err == nil {
		t.Fatal("bogus setting accepted")
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Experiment{Incumbent: "nope", Setting: HighlyConstrained}); err == nil {
		t.Fatal("unknown incumbent accepted")
	}
	if _, err := Run(Experiment{Incumbent: "YouTube", Contender: "nope", Setting: HighlyConstrained}); err == nil {
		t.Fatal("unknown contender accepted")
	}
	if _, err := Run(Experiment{Incumbent: "YouTube", Setting: "x"}); err == nil {
		t.Fatal("unknown setting accepted")
	}
}

func TestRunPairQuick(t *testing.T) {
	res, err := Run(Experiment{
		Incumbent: "iPerf (Reno)",
		Contender: "iPerf (Reno)",
		Setting:   HighlyConstrained,
		Trials:    2,
		Quick:     true,
		Seed:      3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trials != 2 {
		t.Fatalf("trials = %d", res.Trials)
	}
	total := res.MedianMbps[0] + res.MedianMbps[1]
	if total < 7 || total > 8.5 {
		t.Fatalf("reno self-pair total = %.2f Mbps", total)
	}
	// Symmetric self-pair should land near 100/100.
	for slot := 0; slot < 2; slot++ {
		if res.MedianSharePct[slot] < 60 || res.MedianSharePct[slot] > 140 {
			t.Fatalf("self-pair share[%d] = %.0f%%", slot, res.MedianSharePct[slot])
		}
	}
}

func TestRunSoloQuick(t *testing.T) {
	res, err := Run(Experiment{
		Incumbent: "iPerf (Cubic)",
		Setting:   HighlyConstrained,
		Trials:    1,
		Quick:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MedianMbps[0] < 6.5 {
		t.Fatalf("solo cubic = %.2f Mbps on 8 Mbps link", res.MedianMbps[0])
	}
	if res.Contender != "" || res.MedianMbps[1] != 0 {
		t.Fatalf("solo run carried contender data: %+v", res)
	}
}

func TestNewWatchdogConfigured(t *testing.T) {
	w := NewWatchdog()
	if len(w.Services) == 0 || len(w.Settings) != 2 || len(w.AccessCodes) != 5 {
		t.Fatalf("watchdog misconfigured: %d services, %d settings, %d codes",
			len(w.Services), len(w.Settings), len(w.AccessCodes))
	}
}

// ExampleRun measures the two-roommates scenario from the paper's
// introduction: YouTube competing with a Mega download on an 8 Mbps
// access link.
func ExampleRun() {
	res, err := Run(Experiment{
		Incumbent: "YouTube",
		Contender: "Mega",
		Setting:   HighlyConstrained,
		Trials:    3,
		Quick:     true,
		Seed:      1,
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	for i, name := range []string{res.Incumbent, res.Contender} {
		fmt.Printf("%-8s %5.2f Mbps (%3.0f%% of its max-min fair share, IQR %.0f)\n",
			name+":", res.MedianMbps[i], res.MedianSharePct[i], res.IQRSharePct[i])
	}
	if res.MedianSharePct[0] < 90 && res.MedianSharePct[1] > 110 {
		fmt.Println("Mega wins: YouTube is squeezed below its fair share")
	}
	// Output:
	// YouTube:  0.67 Mbps ( 17% of its max-min fair share, IQR 6)
	// Mega:     6.91 Mbps (173% of its max-min fair share, IQR 3)
	// Mega wins: YouTube is squeezed below its fair share
}
