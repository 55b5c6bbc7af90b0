package main

// In-process tests of the one config: parseConfig, the watchdog it
// builds, and the recipe the fleet fingerprint and the manifest share.
// None of them needs the binary.

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"

	"prudentia/internal/core"
	"prudentia/internal/fleet"
	"prudentia/internal/netem"
	"prudentia/internal/obs"
	"prudentia/internal/sim"
)

// update rewrites testdata/quick-high-seed23.txt instead of comparing
// against it. Use only after a deliberate change of verdicts, and say
// why in the commit:
//
//	go test ./cmd/prudentia -run TestQuickReportPinned -update
var update = flag.Bool("update", false, "rewrite the pinned report instead of verifying it")

const accessCode = "KD4p1Z8Gs1SVPHUrTOVTMNHtvUnMSmvZ"

// mustWatchdog parses args and returns the watchdog they configure.
func mustWatchdog(t *testing.T, args ...string) *core.Watchdog {
	t.Helper()
	cfg, err := parseConfig(args)
	if err != nil {
		t.Fatalf("parseConfig(%q): %v", args, err)
	}
	return cfg.watchdog
}

func mustFingerprint(t *testing.T, w *core.Watchdog) uint64 {
	t.Helper()
	fp, err := fingerprint(w)
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

// TestCLIOptionsResolvePerSetting drives the live bug through the CLI's
// own path: -quick used to be resolved once for the first setting (both
// halves of `-setting both` stopped at 1.5 Mbps), and -quick=false with
// a seed used to lose the per-setting paper tolerance (1.5 and 1.5).
func TestCLIOptionsResolvePerSetting(t *testing.T) {
	cases := []struct {
		args []string
		tol  []float64
	}{
		{[]string{"-setting", "both"}, []float64{1.5, 4.5}},
		{[]string{"-setting", "both", "-quick=false", "-seed", "7"}, []float64{0.5, 1.5}},
		{[]string{"-setting", "both", "-quick=false", "-chaos"}, []float64{0.5, 1.5}},
		{[]string{"-setting", "mod", "-adaptive"}, []float64{4.5}},
		{[]string{"-setting", "highly", "-max-trial-wall", "50"}, []float64{1.5}},
	}
	for _, tc := range cases {
		w := mustWatchdog(t, tc.args...)
		if len(w.Settings) != len(tc.tol) {
			t.Fatalf("%q: %d settings, want %d", tc.args, len(w.Settings), len(tc.tol))
		}
		for si, want := range tc.tol {
			if got := w.SettingOptions(1, si).ToleranceMbps; got != want {
				t.Errorf("%q: setting %d stops at %g Mbps, want %g", tc.args, si, got, want)
			}
		}
	}
	if o := mustWatchdog(t, "-setting", "mod", "-adaptive").SettingOptions(1, 0); o.Adaptive == nil || o.MaxTrials != 9 {
		t.Errorf("-setting mod -adaptive resolved %+v", o)
	}
}

// TestParseConfigValidation: every flag a mode would silently ignore,
// and every value that used to fall through to a default, is an error
// naming the flag; the combinations CI and the e2e tests run stay valid.
func TestParseConfigValidation(t *testing.T) {
	cases := []struct {
		args string // space-separated; no argument here contains a space
		want string // substring of the error, "" = must parse
	}{
		{"", ""},
		{"-cycles 1 -setting high -workers 4 -seed 42 -metrics-out m.prom -timeline t.jsonl -faults-out f.jsonl -pprof-dir pp", ""},
		{"-cycles 3 -v -setting high -journal t.wal -checkpoint s.json -max-trial-wall 1e6", ""},
		{"-serve -coordinator -listen 127.0.0.1:0 -expect-workers 2", ""},
		{"-serve -serve-addr 127.0.0.1:0 -serve-addr-file a -serve-dir d -chaos-disk 7 -cycle-interval -1ms", ""},
		{"-connect 127.0.0.1:9070 -worker-name w1 -submit https://example.com/p -code " + accessCode, ""},
		{"-coordinator -chaos-partitions 1 -listen-addr-file a", ""},
		{"-sweep -sweep-rates 8,50 -sweep-rtts 25 -sweep-queues 64 -sweep-out o -adaptive -quick=false", ""},
		{"-setting moderately", ""},
		{"-setting mod", ""},

		{"-setting hgih", "-setting"},
		{"-setting highx", "-setting"},
		{"-setting=", "-setting"},
		{"-cycles -1", "-cycles"},
		{"-max-trial-wall -1", "-max-trial-wall"},
		{"-max-trial-wall NaN", "-max-trial-wall"},
		{"-serve-dir d", "-serve-dir"},
		{"-serve-addr-file a", "-serve-addr-file"},
		{"-cycle-interval 1s", "-cycle-interval"},
		{"-serve=false -serve-dir d", "-serve-dir"},
		{"-chaos-partitions 1", "-chaos-partitions"},
		{"-listen-addr-file a", "-listen-addr-file"},
		{"-expect-workers 2", "-expect-workers"},
		{"-worker-name w", "-worker-name"},
		{"-sweep-rates 8", "-sweep-rates"},
		{"-code " + accessCode, "-code"},
		{"-serve -pprof-dir pp", "-pprof-dir"},
		{"-serve -sweep", "-sweep"},
		{"-connect h:1 -serve", "-serve"},
		{"-connect h:1 -coordinator", "-coordinator"},
		{"-connect h:1 -sweep", "-sweep"},
		{"-connect h:1 -checkpoint s.json", "-checkpoint"},
		{"-sweep -sweep-rates 0", "-sweep-rates"},
		{"-sweep -sweep-rtts NaN", "-sweep-rtts"},
		{"-sweep -sweep-queues 1.5", "-sweep-queues"},
		{"-sweep -sweep-ccas Nope", "-sweep-ccas"},
		{"-services Nope", "-services"},
		{"-submit https://example.com/p -code wrong", "-submit"},
		{"high", "unexpected argument"},
		{"-resume", "-resume"},
		{"-worker", "-worker"},
		{"-soak 2", "-soak"},
	}
	for _, tc := range cases {
		_, err := parseConfig(strings.Fields(tc.args))
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%q: unexpected error: %v", tc.args, err)
		case tc.want != "" && err == nil:
			t.Errorf("%q: accepted, want an error naming %s", tc.args, tc.want)
		case tc.want != "" && !strings.Contains(err.Error(), tc.want):
			t.Errorf("%q: error %q does not name %s", tc.args, err, tc.want)
		}
	}

	cfg, err := parseConfig([]string{"-h"})
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(cfg.usage, "\n  -"); got != 38 {
		t.Errorf("-h lists %d flags, want 38 (a new flag needs a caller that exists; see ROADMAP item 5)", got)
	}
}

// ciInvocations are the argument vectors scripts/ci.sh and the e2e tests
// run, one per line with newline-separated arguments: the fuzz corpus.
var ciInvocations = []string{
	"-cycles\n1\n-setting\nhigh\n-workers\n4\n-seed\n42\n-services\niPerf (Cubic),iPerf (BBR)\n-metrics-out\nm.prom\n-timeline\nt.jsonl\n-manifest\nm.json\n-faults-out\nf.jsonl",
	"-cycles\n3\n-v\n-setting\nhigh\n-workers\n2\n-seed\n7\n-journal\nt.wal\n-checkpoint\ns.json\n-max-trial-wall\n1e6",
	"-cycles\n1\n-setting\nhigh\n-seed\n23\n-coordinator\n-listen\n127.0.0.1:0\n-listen-addr-file\na\n-expect-workers\n2\n-chaos-partitions\n1",
	"-cycles\n1\n-setting\nhigh\n-seed\n23\n-connect\n127.0.0.1:9070\n-worker-name\nworker1",
	"-serve\n-serve-addr\n127.0.0.1:0\n-serve-addr-file\na\n-serve-dir\nd\n-cycle-interval\n1h\n-chaos-disk\n7",
	"-sweep\n-sweep-rates\n8,50\n-sweep-rtts\n25,50\n-sweep-queues\n64\n-sweep-ccas\niPerf (Cubic),iPerf (BBR)\n-sweep-out\no\n-seed\n42",
	"-adaptive\n-setting\nmod\n-chaos\n-quick=false\n-submit\nhttps://example.com/p\n-code\n" + accessCode,
	"-setting\nboth\n-max-trial-wall\nInf",
}

// FuzzParseConfig: an arbitrary argument vector never panics, and what
// parseConfig accepts is usable — the watchdog has settings and a
// catalog, resolves options for every setting, and renders a recipe the
// fingerprint can hash.
func FuzzParseConfig(f *testing.F) {
	for _, inv := range ciInvocations {
		f.Add(inv)
	}
	f.Fuzz(func(t *testing.T, argv string) {
		cfg, err := parseConfig(strings.Split(argv, "\n"))
		if err != nil || cfg.usage != "" {
			return
		}
		w := cfg.watchdog
		if len(w.Settings) == 0 || len(w.Services) == 0 || cfg.cycles < 0 {
			t.Fatalf("%q: accepted an empty or negative experiment: %+v", argv, cfg)
		}
		if _, err := fingerprint(w); err != nil {
			t.Fatalf("%q: %v", argv, err)
		}
		if cfg.sweep && len(cfg.sweepRates)*len(cfg.sweepRTTs)*len(cfg.sweepQueues)*len(cfg.sweepCCAs) == 0 {
			t.Fatalf("%q: accepted an empty sweep grid", argv)
		}
	})
}

// TestFingerprintFollowsTheRecipe: the fleet fingerprint moves with every
// resolved value a trial's bytes depend on and with nothing else.
func TestFingerprintFollowsTheRecipe(t *testing.T) {
	base := []string{"-setting", "both", "-adaptive", "-seed", "5"}
	want := mustFingerprint(t, mustWatchdog(t, base...))

	same := [][]string{
		{"-workers", "1"}, {"-v"}, {"-cycles", "9"},
		{"-metrics-out", "m.prom", "-timeline", "t.jsonl", "-manifest", "m.json", "-faults-out", "f.jsonl", "-pprof-dir", "pp"},
		{"-checkpoint", "s.json", "-journal", "t.wal", "-chaos-disk", "3"},
		{"-coordinator", "-chaos-partitions", "2", "-expect-workers", "3"},
		{"-connect", "h:1", "-worker-name", "w"},
	}
	for _, extra := range same {
		if got := mustFingerprint(t, mustWatchdog(t, slices.Concat(base, extra)...)); got != want {
			t.Errorf("fingerprint moved with %q, which no trial depends on", extra)
		}
	}

	changed := map[string]func(w *core.Watchdog){
		"the tolerance":         func(w *core.Watchdog) { w.Opts.ToleranceMbps = 2 },
		"one setting's rate":    func(w *core.Watchdog) { w.Settings[1].RateBps = 40_000_000 },
		"the trial duration":    func(w *core.Watchdog) { w.Opts.Timing = longerQuickTiming },
		"the service order":     func(w *core.Watchdog) { w.Services[0], w.Services[1] = w.Services[1], w.Services[0] },
		"an adaptive parameter": func(w *core.Watchdog) { w.Opts.Adaptive.StableK = 4 },
		"the preset":            func(w *core.Watchdog) { w.Quick = false },
		"the seed":              func(w *core.Watchdog) { w.Opts.BaseSeed++ },
		"the wall budget":       func(w *core.Watchdog) { w.Opts.WallBudget = 50 },
		"upstream noise":        func(w *core.Watchdog) { w.Settings[0].Noise = &netem.NoiseConfig{DropProbability: 0.01} },
	}
	for what, mutate := range changed {
		w := mustWatchdog(t, base...)
		mutate(w)
		if mustFingerprint(t, w) == want {
			t.Errorf("fingerprint did not move with %s", what)
		}
	}
	for _, flags := range [][]string{{"-chaos"}, {"-quick=false"}, {"-max-trial-wall", "9"}, {"-services", "iPerf (Cubic),iPerf (BBR)"},
		{"-submit", "https://example.com/p", "-code", accessCode}} {
		if mustFingerprint(t, mustWatchdog(t, slices.Concat(base, flags)...)) == want {
			t.Errorf("fingerprint did not move with %q", flags)
		}
	}

	// A build from before the cooldown stopped being simulated marshals
	// the same recipe without simulated_s (the struct's last field). Its
	// trial counters would differ from a serial run's, so it must not
	// be admitted.
	blob, err := json.Marshal(mustWatchdog(t, base...).Recipe())
	if err != nil {
		t.Fatal(err)
	}
	older := regexp.MustCompile(`,"simulated_s":[0-9.]+`).ReplaceAll(blob, nil)
	if len(older) == len(blob) {
		t.Fatalf("recipe JSON has no simulated_s to drop: %s", blob)
	}
	if fleet.Fingerprint(fleet.Schema, string(older)) == want {
		t.Error("a recipe without simulated_s fingerprints like one with it")
	}

	// Two processes given the same flags must agree: a pointer in the
	// recipe (Noise, Adaptive) is hashed by value, never by address.
	noisy := func() uint64 {
		w := mustWatchdog(t, base...)
		w.Settings[0].Noise = &netem.NoiseConfig{MeanEpisodeGap: sim.Second, MeanEpisodeLen: sim.Second, DropProbability: 0.5}
		return mustFingerprint(t, w)
	}
	if noisy() != noisy() {
		t.Error("two watchdogs with equal Noise configs behind different pointers disagree")
	}
}

func longerQuickTiming(s core.Spec) core.Spec {
	s = s.QuickTiming()
	s.Duration += sim.Second
	return s
}

// TestManifestRecordsTheRecipe: the manifest of a `-setting both` run
// names each setting's own tolerance and the rest of what "re-run it
// exactly" needs, survives obs.ReadManifest, and is the value the
// fingerprint hashes.
func TestManifestRecordsTheRecipe(t *testing.T) {
	w := mustWatchdog(t, "-setting", "both", "-seed", "5", "-adaptive", "-max-trial-wall", "50")
	path := filepath.Join(t.TempDir(), "manifest.json")
	if err := w.BuildManifest(nil, nil).Write(path); err != nil {
		t.Fatal(err)
	}
	m, err := obs.ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if m.BaseSeed != 5 || !m.AdaptiveEnabled || m.ChaosEnabled || len(m.Services) != len(w.Services) {
		t.Errorf("manifest envelope: %+v", m)
	}
	blob, err := json.Marshal(m.Recipe)
	if err != nil {
		t.Fatal(err)
	}
	var got core.Recipe
	if err := json.Unmarshal(blob, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, w.Recipe()) {
		t.Errorf("recipe did not round-trip:\n got %+v\nwant %+v", got, w.Recipe())
	}
	if len(got.Settings) != 2 || got.Settings[0].Options.ToleranceMbps != 1.5 || got.Settings[1].Options.ToleranceMbps != 4.5 {
		t.Fatalf("recipe tolerances: %+v", got.Settings)
	}
	s, o := got.Settings[1], got.Settings[1].Options
	if o.MinTrials != 3 || o.MaxTrials != 9 || s.DurationSec != 60 || s.WarmupSec != 10 || s.CooldownSec != 5 || s.SimulatedSec != 55 ||
		o.BaseSeed != 5+7_919 || o.WallBudget != 50 || o.Adaptive == nil || o.Adaptive.CIWidthPct != 10 ||
		s.Net.RateBps != 50_000_000 {
		t.Errorf("recipe setting 1: %+v", s)
	}
}

// TestQuickReportPinned makes "same verdicts" a test instead of a
// procedure: the report of the fleet smoke's cycle (scripts/ci.sh -fleet
// diffs its serial reference against the same file) is pinned byte for
// byte. The file predates trials stopping where their window closes, so
// it also pins that stopping there moved no verdict.
func TestQuickReportPinned(t *testing.T) {
	const pinned = "testdata/quick-high-seed23.txt"
	cfg, err := parseConfig([]string{"-cycles", "1", "-setting", "high", "-seed", "23",
		"-services", "iPerf (Reno),iPerf (Cubic),iPerf (BBR)"})
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := run(cfg, &got, io.Discard); err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(pinned, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("recorded %s: %d bytes", pinned, got.Len())
		return
	}
	want, err := os.ReadFile(pinned)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("report moved from %s (rerun with -update only if the verdicts were meant to change):\n got:\n%s\nwant:\n%s",
			pinned, got.Bytes(), want)
	}
}
