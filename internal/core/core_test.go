package core

import (
	"strings"
	"testing"

	"prudentia/internal/browser"
	"prudentia/internal/netem"
	"prudentia/internal/services"
	"prudentia/internal/sim"
)

// fastOpts returns a minimal protocol for unit tests.
func fastOpts(net netem.Config) SchedulerOptions {
	o := PaperOptions(net)
	o.MinTrials, o.MaxTrials, o.Step = 2, 4, 2
	o.ToleranceMbps = 50 // effectively always satisfied
	o.Timing = func(s Spec) Spec {
		s.Duration, s.Warmup, s.Cooldown = 20*sim.Second, 4*sim.Second, 2*sim.Second
		return s
	}
	return o
}

func TestSpecValidation(t *testing.T) {
	if err := (Spec{}).Validate(); err == nil {
		t.Fatal("empty spec must fail")
	}
	s := Spec{Incumbent: services.ByName("iPerf (Reno)")}
	if err := s.Validate(); err == nil {
		t.Fatal("zero duration must fail")
	}
	s.Duration, s.Warmup, s.Cooldown = 10*sim.Second, 6*sim.Second, 5*sim.Second
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "window") {
		t.Fatalf("no-window spec must fail, got %v", err)
	}
	s = s.QuickTiming()
	if err := s.Validate(); err != nil {
		t.Fatalf("quick spec should validate: %v", err)
	}
}

func TestRunTrialDeterminism(t *testing.T) {
	spec := Spec{
		Incumbent: services.ByName("iPerf (Reno)"),
		Contender: services.ByName("iPerf (Cubic)"),
		Net:       netem.HighlyConstrained(),
		Seed:      99,
	}.QuickTiming()
	a, err := RunTrial(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunTrial(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.Mbps != b.Mbps || a.Loss != b.Loss || a.Utilization != b.Utilization {
		t.Fatalf("same seed diverged: %+v vs %+v", a.Mbps, b.Mbps)
	}
	c, err := RunTrial(func() Spec { s := spec; s.Seed = 100; return s }())
	if err != nil {
		t.Fatal(err)
	}
	if a.Mbps == c.Mbps {
		t.Fatal("different seeds produced identical throughput")
	}
}

func TestRunTrialMmFAccounting(t *testing.T) {
	// YouTube (13 Mbps cap) vs bulk on 50 Mbps: fair shares must be 13
	// and 37, and SharePct consistent with Mbps.
	spec := Spec{
		Incumbent: services.ByName("YouTube"),
		Contender: services.ByName("Dropbox"),
		Net:       netem.ModeratelyConstrained(),
		Seed:      5,
	}.QuickTiming()
	res, err := RunTrial(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.FairShareMbps[0] != 13 || res.FairShareMbps[1] != 37 {
		t.Fatalf("fair shares = %v, want [13 37]", res.FairShareMbps)
	}
	for slot := 0; slot < 2; slot++ {
		want := 100 * res.Mbps[slot] / res.FairShareMbps[slot]
		if diff := res.SharePct[slot] - want; diff > 0.01 || diff < -0.01 {
			t.Fatalf("slot %d share %.2f inconsistent with %.2f Mbps", slot, res.SharePct[slot], res.Mbps[slot])
		}
	}
}

func TestRunSoloDetectsThrottle(t *testing.T) {
	// OneDrive solo on 200 Mbps stays under its 45 Mbps cap.
	cfg := netem.Config{RateBps: 200_000_000, RTT: 50 * sim.Millisecond}
	tr, err := RunSolo(services.ByName("OneDrive"), cfg, 3, Spec.QuickTiming)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Mbps[0] > 46 {
		t.Fatalf("OneDrive solo %.1f Mbps exceeds cap", tr.Mbps[0])
	}
	if tr.Mbps[1] != 0 {
		t.Fatalf("solo run has contender throughput %.2f", tr.Mbps[1])
	}
}

func TestNoiseDiscard(t *testing.T) {
	cfg := netem.HighlyConstrained()
	cfg.Noise = &netem.NoiseConfig{
		MeanEpisodeGap:  200 * sim.Millisecond,
		MeanEpisodeLen:  2 * sim.Second,
		DropProbability: 0.05,
	}
	spec := Spec{Incumbent: services.ByName("iPerf (Reno)"), Net: cfg, Seed: 2}.QuickTiming()
	res, err := RunTrial(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Discarded {
		t.Fatalf("heavy noise not discarded: external loss %.5f", res.ExternalLossRate)
	}
}

func TestRunPairEscalatesOnWideCI(t *testing.T) {
	opts := fastOpts(netem.HighlyConstrained())
	opts.ToleranceMbps = 0.000001 // impossible: must escalate to MaxTrials
	out, err := RunPair(services.ByName("iPerf (Reno)"), services.ByName("iPerf (Cubic)"),
		netem.HighlyConstrained(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if out.Counted() != opts.MaxTrials {
		t.Fatalf("trials = %d, want max %d", out.Counted(), opts.MaxTrials)
	}
	if !out.Unstable {
		t.Fatal("pair should be flagged unstable")
	}
}

func TestRunPairStopsEarlyWhenTight(t *testing.T) {
	opts := fastOpts(netem.HighlyConstrained())
	out, err := RunPair(services.ByName("iPerf (Reno)"), services.ByName("iPerf (Reno)"),
		netem.HighlyConstrained(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if out.Counted() != opts.MinTrials {
		t.Fatalf("trials = %d, want min %d", out.Counted(), opts.MinTrials)
	}
	if out.Unstable {
		t.Fatal("reno-vs-reno should satisfy a 50 Mbps tolerance")
	}
	if out.MedianSharePct(0) < 50 || out.MedianSharePct(0) > 150 {
		t.Fatalf("implausible self-pair share %.0f%%", out.MedianSharePct(0))
	}
}

func TestMatrixFillsAllPairs(t *testing.T) {
	svcs := []services.Service{
		services.ByName("iPerf (Reno)"),
		services.ByName("iPerf (Cubic)"),
		services.ByName("iPerf (BBR)"),
	}
	m := &Matrix{Services: svcs, Net: netem.HighlyConstrained(), Opts: fastOpts(netem.HighlyConstrained())}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	// 3 services -> 6 unordered pairs including self-pairs.
	if len(res.Pairs) != 6 {
		t.Fatalf("pairs = %d, want 6", len(res.Pairs))
	}
	for _, a := range res.Names {
		for _, b := range res.Names {
			v, ok := res.SharePct(a, b)
			if !ok {
				t.Fatalf("missing cell %s vs %s", a, b)
			}
			if v <= 0 || v > 400 {
				t.Fatalf("implausible share %s vs %s: %.0f%%", a, b, v)
			}
			if _, ok := res.Utilization(a, b); !ok {
				t.Fatalf("missing utilization %s/%s", a, b)
			}
			if _, ok := res.LossRate(a, b); !ok {
				t.Fatalf("missing loss %s/%s", a, b)
			}
			if _, ok := res.QueueDelayMs(a, b); !ok {
				t.Fatalf("missing qdelay %s/%s", a, b)
			}
		}
	}
	if _, ok := res.SharePct("nope", "iPerf (Reno)"); ok {
		t.Fatal("unknown name should not resolve")
	}
	if got := len(res.LosingShares()); got != 3 {
		t.Fatalf("losing shares = %d, want 3 (one per non-self pair)", got)
	}
	if got := len(res.SelfShares()); got != 6 {
		t.Fatalf("self shares = %d, want 6", got)
	}
}

func TestMatrixCellSlotOrientation(t *testing.T) {
	// The same underlying pair must serve both orientations with
	// mirrored slots.
	svcs := []services.Service{
		services.ByName("iPerf (Reno)"),
		services.ByName("Mega"),
	}
	m := &Matrix{Services: svcs, Net: netem.ModeratelyConstrained(), Opts: fastOpts(netem.ModeratelyConstrained())}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	renoShare, _ := res.SharePct("iPerf (Reno)", "Mega")
	megaShare, _ := res.SharePct("Mega", "iPerf (Reno)")
	p, _, _ := res.Cell("iPerf (Reno)", "Mega")
	if renoShare != p.MedianSharePct(0) || megaShare != p.MedianSharePct(1) {
		t.Fatalf("orientation mismatch: %v %v %v", renoShare, megaShare, p)
	}
}

func TestWatchdogSubmissions(t *testing.T) {
	w := NewWatchdog()
	if err := w.Submit("https://example.com/app", "wrong-code"); err == nil {
		t.Fatal("invalid access code accepted")
	}
	if err := w.Submit("", w.AccessCodes[0]); err == nil {
		t.Fatal("empty URL accepted")
	}
	before := len(w.Services)
	if err := w.Submit("https://example.com/app", w.AccessCodes[0]); err != nil {
		t.Fatal(err)
	}
	if len(w.Submissions()) != 1 || len(w.Services) != before+1 {
		t.Fatal("submission not queued")
	}
	svc := w.Submissions()[0].Service
	if svc.Name() != "https://example.com/app" || svc.Category() != services.CategoryWeb {
		t.Fatalf("submission service wrong: %s/%s", svc.Name(), svc.Category())
	}
}

func TestWatchdogCycleAndHistory(t *testing.T) {
	w := NewWatchdog()
	w.Services = []services.Service{
		services.ByName("iPerf (Reno)"),
		services.ByName("iPerf (BBR)"),
	}
	w.Settings = []netem.Config{netem.HighlyConstrained()}
	w.Opts = fastOpts(netem.HighlyConstrained())
	cr, err := w.RunCycle()
	if err != nil {
		t.Fatal(err)
	}
	if cr.Cycle != 1 || len(cr.PerSetting) != 1 || len(cr.Calibration) != 1 {
		t.Fatalf("cycle result malformed: %+v", cr)
	}
	if got := cr.Calibration[0]["iPerf (Reno)"]; got < 5 {
		t.Fatalf("solo calibration for Reno = %.2f Mbps", got)
	}
	cr2, err := w.RunCycle()
	if err != nil {
		t.Fatal(err)
	}
	if len(w.History()) != 2 || cr2.Cycle != 2 {
		t.Fatal("history not recorded")
	}
	rep, ok := CompareCycles(cr, cr2, 0, "iPerf (Reno)", "iPerf (BBR)")
	if !ok {
		t.Fatal("CompareCycles failed")
	}
	if rep.BeforeMbps <= 0 || rep.AfterMbps <= 0 {
		t.Fatalf("change report empty: %+v", rep)
	}
}

func TestThrottledServiceDetection(t *testing.T) {
	w := NewWatchdog()
	od := services.ByName("OneDrive")
	bulk := services.ByName("iPerf (BBR)")
	w.Services = []services.Service{od, bulk}
	// Use a link far above OneDrive's cap so the solo run exposes it.
	w.Settings = []netem.Config{{RateBps: 200_000_000, RTT: 50 * sim.Millisecond}}
	w.Opts = fastOpts(w.Settings[0])
	w.Opts.MinTrials, w.Opts.MaxTrials = 1, 1
	cr, err := w.RunCycle()
	if err != nil {
		t.Fatal(err)
	}
	throttled := cr.ThrottledServices(0, w.Settings[0], w.Services, 0.5)
	found := false
	for _, n := range throttled {
		if n == "OneDrive" {
			found = true
		}
		if n == "iPerf (BBR)" {
			t.Fatal("bulk BBR flagged as throttled")
		}
	}
	if !found {
		t.Fatalf("OneDrive not flagged: %v", throttled)
	}
}

func TestHeadlessClientChangesOutcome(t *testing.T) {
	// §3.3 regression: a headless client must change YouTube's measured
	// network behaviour on a fast link.
	base := Spec{
		Incumbent: services.ByName("YouTube"),
		Net:       netem.ModeratelyConstrained(),
		Seed:      4,
	}.QuickTiming()
	full, err := RunTrial(base)
	if err != nil {
		t.Fatal(err)
	}
	hl := browser.HeadlessClient()
	base.Client = &hl
	headless, err := RunTrial(base)
	if err != nil {
		t.Fatal(err)
	}
	if headless.Mbps[0] >= full.Mbps[0] {
		t.Fatalf("headless (%.1f) should stream less than full-fidelity (%.1f)",
			headless.Mbps[0], full.Mbps[0])
	}
}

func TestInstabilityReport(t *testing.T) {
	svcs := []services.Service{
		services.ByName("iPerf (Reno)"),
		services.ByName("iPerf (Cubic)"),
	}
	m := &Matrix{Services: svcs, Net: netem.HighlyConstrained(), Opts: fastOpts(netem.HighlyConstrained())}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	rep, ok := res.Instability("iPerf (Reno)", "iPerf (Cubic)")
	if !ok || len(rep.TrialMbps) == 0 {
		t.Fatalf("instability report empty: %+v", rep)
	}
}
