package main

// In-process tests of the one config: parseConfig, the watchdog it
// builds, and the recipe the manifest embeds.
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
	"prudentia/internal/netem"
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

// mustRecipe returns the recipe JSON the manifest embeds for w.
func mustRecipe(t *testing.T, w *core.Watchdog) string {
	t.Helper()
	blob, err := json.Marshal(w.Recipe())
	if err != nil {
		t.Fatal(err)
	}
	return string(blob)
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
		{"-cycles 1 -setting high -workers 4 -seed 42 -dir d", ""},
		{"-cycles 3 -v -setting high -dir d -max-trial-wall 1e6", ""},
		{"-serve -serve-addr 127.0.0.1:0 -dir d -chaos-disk 7 -cycle-interval -1ms", ""},
		{"-serve -serve-addr 127.0.0.1:0", ""},
		{"-submit https://example.com/p -code " + accessCode, ""},
		{"-sweep -sweep-rates 8,50 -sweep-rtts 25 -sweep-queues 64 -dir o -adaptive -quick=false", ""},
		{"-sweep -dir d -submit https://example.com/p -code " + accessCode, ""},
		{"-sweep -dir d -services Netflix,Mega", ""},
		{"-sweep -dir d", ""},
		{"-sweep -dir d -chaos-disk 7", ""},
		{"-setting moderately", ""},
		{"-setting mod", ""},

		{"-setting hgih", "-setting"},
		{"-setting highx", "-setting"},
		{"-setting=", "-setting"},
		{"-cycles -1", "-cycles"},
		{"-max-trial-wall -1", "-max-trial-wall"},
		{"-max-trial-wall NaN", "-max-trial-wall"},
		{"-cycle-interval 1s", "-cycle-interval"},
		{"-serve=false -cycle-interval 1s", "-cycle-interval"},
		{"-chaos-partitions 1", "-chaos-partitions"},
		{"-listen-addr-file a", "-listen-addr-file"},
		{"-expect-workers 2", "-expect-workers"},
		{"-worker-name w", "-worker-name"},
		{"-sweep-rates 8", "-sweep-rates"},
		{"-code " + accessCode, "-code"},
		{"-serve -sweep", "-sweep"},
		{"-sweep", "-dir"},
		{"-sweep -sweep-rates 8 -services Netflix", "-dir"},
		{"-sweep -dir d -sweep-rates 0", "-sweep-rates"},
		{"-sweep -dir d -sweep-rtts NaN", "-sweep-rtts"},
		{"-sweep -dir d -sweep-queues 1.5", "-sweep-queues"},
		{"-sweep -dir d -sweep-ccas Netflix", "-sweep-ccas"},
		{"-sweep -dir d -services Nope", "-services"},
		{"-sweep -cycles 1", "-cycles"},
		{"-sweep -setting high", "-setting"},
		{"-services Nope", "-services"},
		{"-submit https://example.com/p -code wrong", "-submit"},
		{"high", "unexpected argument"},
		{"-resume", "-resume"},
		{"-worker", "-worker"},
		{"-soak 2", "-soak"},
		{"-coordinator", "-coordinator"},
		{"-listen 127.0.0.1:0", "-listen"},
		{"-connect h:1", "-connect"},
		{"-checkpoint s.json", "-checkpoint"},
		{"-journal t.wal", "-journal"},
		{"-timeline t.jsonl", "-timeline"},
		{"-manifest m.json", "-manifest"},
		{"-faults-out f.jsonl", "-faults-out"},
		{"-serve -serve-dir d", "-serve-dir"},
		{"-metrics-out m.prom", "-metrics-out"},
		{"-sweep -dir d -sweep-out o", "-sweep-out"},
		{"-serve -serve-addr-file a", "-serve-addr-file"},
		{"-pprof-dir pp", "-pprof-dir"},

		{"pair", ""},
		{"pair -list", ""},
		{"pair -contender Mega -setting hi -mbps 20 -buffer-bdp 8 -trials 0 -quick=false -seed 3 -out o", ""},
		{"pair -setting both", "-setting"},
		{"pair -buffer-bdp 0", "-buffer-bdp"},
		{"pair -buffer-bdp -1", "-buffer-bdp"},
		{"pair -mbps -8", "-mbps"},
		{"pair -mbps NaN", "-mbps"},
		{"pair -trials -1", "-trials"},
		{"pair -incumbent Nope", "-incumbent"},
		{"pair -contender Nope", "-contender"},
		{"pair high", "unexpected argument"},
		{"pair -cycles 1", "-cycles"},
		{"-trials 3", "-trials"},
		{"-buffer-bdp 8", "-buffer-bdp"},
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
	if got := strings.Count(cfg.usage, "\n  -"); got != 21 {
		t.Errorf("-h lists %d flags, want 21 (a new flag needs a caller that exists; see ROADMAP item 5)", got)
	}
	// pair keeps the single-pair runner's flags, names and defaults, and
	// adds none.
	if cfg, err = parseConfig([]string{"pair", "-h"}); err != nil {
		t.Fatal(err)
	}
	var flags []string
	for _, m := range regexp.MustCompile(`(?m)^  -(\S+)`).FindAllStringSubmatch(cfg.usage, -1) {
		flags = append(flags, m[1])
	}
	if want := "buffer-bdp contender incumbent list mbps out quick seed setting trials"; strings.Join(flags, " ") != want {
		t.Errorf("pair -h lists %q, want %q", flags, want)
	}
}

// TestDirLayout: -dir d puts the cycle header and the trial journal at
// exactly the names a `-serve -serve-dir d` daemon of an earlier build
// wrote, so its state directory resumes unchanged; a batch run's
// `-checkpoint f` resumes once f moves to d/checkpoint.json and f.wal to
// d/trials.wal. Without -dir nothing is durable.
func TestDirLayout(t *testing.T) {
	for _, args := range [][]string{{"-dir", "d"}, {"-serve", "-dir", "d"}, {"-sweep", "-dir", "d"}} {
		w := mustWatchdog(t, args...)
		if w.CheckpointPath != filepath.Join("d", "checkpoint.json") || w.JournalPath != filepath.Join("d", "trials.wal") {
			t.Errorf("%q: header %q, journal %q; want d/checkpoint.json and d/trials.wal", args, w.CheckpointPath, w.JournalPath)
		}
	}
	if w := mustWatchdog(t); w.CheckpointPath != "" || w.JournalPath != "" {
		t.Errorf("no -dir: header %q, journal %q; want neither", w.CheckpointPath, w.JournalPath)
	}
}

// ciInvocations are the argument vectors scripts/ci.sh and the e2e tests
// run, one per line with newline-separated arguments: the fuzz corpus.
var ciInvocations = []string{
	"-cycles\n1\n-setting\nhigh\n-workers\n4\n-seed\n42\n-services\niPerf (Cubic),iPerf (BBR)\n-dir\nd",
	"-cycles\n3\n-v\n-setting\nhigh\n-workers\n2\n-seed\n7\n-dir\nd\n-max-trial-wall\n1e6",
	"-setting\nhigh\n-cycles\n1\n-seed\n23\n-services\niPerf (Reno),iPerf (Cubic),iPerf (BBR)",
	"-setting\nhigh\n-cycles\n2\n-seed\n7\n-services\niPerf (Reno),iPerf (Cubic),iPerf (BBR),Netflix\n-chaos",
	"-serve\n-serve-addr\n127.0.0.1:0\n-dir\nd\n-cycle-interval\n1h\n-chaos-disk\n7",
	"-sweep\n-sweep-rates\n8,50\n-sweep-rtts\n25,50\n-sweep-queues\n64\n-services\niPerf (Cubic),iPerf (BBR)\n-dir\no\n-seed\n42",
	"-adaptive\n-setting\nmod\n-chaos\n-quick=false\n-submit\nhttps://example.com/p\n-code\n" + accessCode,
	"-setting\nboth\n-max-trial-wall\nInf",
	"pair\n-incumbent\niPerf (Reno)\n-contender\niPerf (Cubic)\n-setting\nhighly\n-trials\n3\n-seed\n7\n-out\no",
}

// FuzzParseConfig: an arbitrary argument vector never panics, and what
// parseConfig accepts is usable — the watchdog has settings and a
// catalog, resolves options for every setting, and renders a recipe the
// manifest can embed; a pair has an incumbent, a link, a queue and a
// trial budget.
func FuzzParseConfig(f *testing.F) {
	for _, inv := range ciInvocations {
		f.Add(inv)
	}
	f.Fuzz(func(t *testing.T, argv string) {
		cfg, err := parseConfig(strings.Split(argv, "\n"))
		if err != nil || cfg.usage != "" {
			return
		}
		if pc := cfg.pair; pc != nil {
			if pc.incumbent == nil || pc.net.RateBps < 1 || pc.net.BufferBDP < 1 || pc.opts.MinTrials < 1 {
				t.Fatalf("%q: accepted an unrunnable pair: %+v", argv, pc)
			}
			return
		}
		w := cfg.watchdog
		if len(w.Settings) == 0 || len(w.Services) == 0 || cfg.cycles < 0 {
			t.Fatalf("%q: accepted an empty or negative experiment: %+v", argv, cfg)
		}
		if _, err := json.Marshal(w.Recipe()); err != nil {
			t.Fatalf("%q: %v", argv, err)
		}
		if cfg.sweep && (len(cfg.sweepGrid) == 0 || len(cfg.sweepGrid) != len(w.Settings) || cfg.cycles != 1) {
			t.Fatalf("%q: accepted a sweep that is not one cycle over its grid: %+v", argv, cfg)
		}
	})
}

// TestRecipeFollowsTheTrials: the recipe the manifest embeds moves with
// every resolved value a trial's bytes depend on and with nothing else,
// so two manifests with equal recipes name runs that computed the same
// trials.
func TestRecipeFollowsTheTrials(t *testing.T) {
	base := []string{"-setting", "both", "-adaptive", "-seed", "5"}
	want := mustRecipe(t, mustWatchdog(t, base...))

	same := [][]string{
		{"-workers", "1"}, {"-v"}, {"-cycles", "9"},
		{"-dir", "d", "-chaos-disk", "3"},
	}
	for _, extra := range same {
		if got := mustRecipe(t, mustWatchdog(t, slices.Concat(base, extra)...)); got != want {
			t.Errorf("recipe moved with %q, which no trial depends on", extra)
		}
	}

	changed := map[string]func(w *core.Watchdog){
		"the tolerance":      func(w *core.Watchdog) { w.Opts.ToleranceMbps = 2 },
		"one setting's rate": func(w *core.Watchdog) { w.Settings[1].RateBps = 40_000_000 },
		"the trial duration": func(w *core.Watchdog) { w.Opts.Timing = longerQuickTiming },
		"the service order":  func(w *core.Watchdog) { w.Services[0], w.Services[1] = w.Services[1], w.Services[0] },
		"the protocol":       func(w *core.Watchdog) { w.Opts.Adaptive = nil },
		"the preset":         func(w *core.Watchdog) { w.Quick = false },
		"the seed":           func(w *core.Watchdog) { w.Opts.BaseSeed++ },
		"the wall budget":    func(w *core.Watchdog) { w.Opts.WallBudget = 50 },
		"upstream noise":     func(w *core.Watchdog) { w.Settings[0].Noise = &netem.NoiseConfig{DropProbability: 0.01} },
	}
	for what, mutate := range changed {
		w := mustWatchdog(t, base...)
		mutate(w)
		if mustRecipe(t, w) == want {
			t.Errorf("recipe did not move with %s", what)
		}
	}
	for _, flags := range [][]string{{"-chaos"}, {"-quick=false"}, {"-max-trial-wall", "9"}, {"-services", "iPerf (Cubic),iPerf (BBR)"},
		{"-submit", "https://example.com/p", "-code", accessCode}} {
		if mustRecipe(t, mustWatchdog(t, slices.Concat(base, flags)...)) == want {
			t.Errorf("recipe did not move with %q", flags)
		}
	}

	// A build from before the cooldown stopped being simulated wrote
	// the same recipe without simulated_s (the struct's last field),
	// though its trial counters differ: the span a trial simulates is in
	// the recipe.
	if !regexp.MustCompile(`,"simulated_s":[0-9.]+`).MatchString(want) {
		t.Fatalf("recipe JSON has no simulated_s: %s", want)
	}

	// Two processes given the same flags must agree: a pointer in the
	// recipe (Noise, Adaptive) is written by value, never by address.
	noisy := func() string {
		w := mustWatchdog(t, base...)
		w.Settings[0].Noise = &netem.NoiseConfig{MeanEpisodeGap: sim.Second, MeanEpisodeLen: sim.Second, DropProbability: 0.5}
		return mustRecipe(t, w)
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
// exactly" needs, and decodes back into an obs.Manifest whose recipe is
// the watchdog's.
func TestManifestRecordsTheRecipe(t *testing.T) {
	w := mustWatchdog(t, "-setting", "both", "-seed", "5", "-adaptive", "-max-trial-wall", "50")
	path := filepath.Join(t.TempDir(), "manifest.json")
	if err := w.BuildManifest(nil, nil).Write(path); err != nil {
		t.Fatal(err)
	}
	m := readManifest(t, path)
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
	// The adaptive rule and the retry budgets are constants, not options.
	if !bytes.Contains(blob, []byte(`"Adaptive":{}`)) || bytes.Contains(blob, []byte("MaxDiscards")) {
		t.Errorf("recipe options: %s", blob)
	}
	if len(got.Settings) != 2 || got.Settings[0].Options.ToleranceMbps != 1.5 || got.Settings[1].Options.ToleranceMbps != 4.5 {
		t.Fatalf("recipe tolerances: %+v", got.Settings)
	}
	s, o := got.Settings[1], got.Settings[1].Options
	if o.MinTrials != 3 || o.MaxTrials != 9 || s.DurationSec != 60 || s.WarmupSec != 10 || s.CooldownSec != 5 || s.SimulatedSec != 55 ||
		o.BaseSeed != 5+7_919 || o.WallBudget != 50 || o.Adaptive == nil ||
		s.Net.RateBps != 50_000_000 {
		t.Errorf("recipe setting 1: %+v", s)
	}
}

// TestQuickReportPinned makes "same verdicts" a test instead of a
// procedure: three quick reports are pinned byte for byte. The fixed row
// is one serial cycle of the three iPerf stacks; it predates trials
// stopping where their window closes, so it also pins that stopping there
// moved no verdict. The adaptive row pins the stopping rule and the
// screening budget. The chaos row, whose ledger shows retries and corrupt
// results, pins the retry and discard budgets, and over its second cycle
// the breaker threshold. Changing any of those constants moves a row.
func TestQuickReportPinned(t *testing.T) {
	const catalog = "iPerf (Reno),iPerf (Cubic),iPerf (BBR),Netflix"
	for _, row := range []struct {
		pinned string
		args   []string
	}{
		{"testdata/quick-high-seed23.txt", []string{"-cycles", "1", "-seed", "23", "-services", "iPerf (Reno),iPerf (Cubic),iPerf (BBR)"}},
		{"testdata/adaptive-high-seed23.txt", []string{"-cycles", "1", "-seed", "23", "-services", catalog, "-adaptive"}},
		{"testdata/chaos-high-seed7.txt", []string{"-cycles", "2", "-seed", "7", "-services", catalog, "-chaos"}},
	} {
		t.Run(filepath.Base(row.pinned), func(t *testing.T) {
			cfg, err := parseConfig(append([]string{"-setting", "high"}, row.args...))
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := run(cfg, &got, io.Discard); err != nil {
				t.Fatal(err)
			}
			if *update {
				if err := os.WriteFile(row.pinned, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("recorded %s: %d bytes", row.pinned, got.Len())
				return
			}
			want, err := os.ReadFile(row.pinned)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("report moved from %s (rerun with -update only if the verdicts were meant to change):\n got:\n%s\nwant:\n%s",
					row.pinned, got.Bytes(), want)
			}
		})
	}
}
