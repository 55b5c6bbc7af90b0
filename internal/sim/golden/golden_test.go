package golden

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strconv"
	"testing"

	"prudentia/internal/sim"
)

// record re-records the committed corpus instead of verifying it. Use only
// after a deliberate behaviour change, and say why in the commit:
//
//	go test ./internal/sim/golden -run Golden -record
var record = flag.Bool("record", false, "re-record golden traces instead of verifying them")

// TestGoldenTraceReplay is the conformance gate: every corpus entry must
// reproduce its committed event stream byte-for-byte. This is what proves
// a hot-path optimization changed speed and nothing else.
func TestGoldenTraceReplay(t *testing.T) {
	for _, e := range Corpus() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			got, err := Record(e)
			if err != nil {
				t.Fatal(err)
			}
			if *record {
				if err := WriteGolden(e, got); err != nil {
					t.Fatal(err)
				}
				t.Logf("recorded %s: %d bytes raw", File(e), len(got))
				return
			}
			want, err := ReadGolden(e)
			if err != nil {
				if os.IsNotExist(err) {
					t.Fatalf("no committed trace for %s; record with: go test ./internal/sim/golden -run Golden -record", e.Name)
				}
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				line, gl, wl := FirstDiff(got, want)
				reportDivergence(t, e.Name, line, gl, wl)
				t.Fatalf("trace diverged from golden at line %d:\n  got:  %s\n  want: %s\n(%d vs %d bytes; the hot path changed observable behaviour)",
					line, gl, wl, len(got), len(want))
			}
		})
	}
}

// eventsThrough returns a trace's header and its event lines with
// t <= until, without the event-count trailer.
func eventsThrough(t *testing.T, trace []byte, until sim.Time) []byte {
	t.Helper()
	var out []byte
	for _, line := range bytes.SplitAfter(trace, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte(`{"t":`)); ok {
			num, _, _ := bytes.Cut(rest, []byte(","))
			at, err := strconv.ParseInt(string(num), 10, 64)
			if err != nil {
				t.Fatalf("bad trace line %q: %v", line, err)
			}
			if sim.Time(at) > until {
				continue
			}
		} else if bytes.HasPrefix(line, []byte(`{"events":`)) {
			continue
		}
		out = append(out, line...)
	}
	return out
}

// TestTrialTraceIsPrefix pins what "the cooldown is trimmed by not
// simulating it" means for the packet stream: a trial whose window
// closes at 3/4 of the entry's Duration produces exactly the committed
// trace's events up to that instant, and none after.
func TestTrialTraceIsPrefix(t *testing.T) {
	for _, e := range Corpus() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			cooldown := e.Duration / 4
			trial, err := recordTrial(e, cooldown)
			if err != nil {
				t.Fatal(err)
			}
			golden, err := ReadGolden(e)
			if err != nil {
				t.Fatal(err)
			}
			got := eventsThrough(t, trial, e.Duration)
			want := eventsThrough(t, golden, e.Duration-cooldown)
			if !bytes.Equal(got, want) {
				line, gl, wl := FirstDiff(got, want)
				t.Fatalf("trial trace is not the golden trace's prefix; first divergence at line %d:\n  got:  %s\n  want: %s\n(%d vs %d bytes)",
					line, gl, wl, len(got), len(want))
			}
			if full := eventsThrough(t, golden, e.Duration); len(want) >= len(full) {
				t.Fatalf("golden trace has no events after %v: the prefix proves nothing", e.Duration-cooldown)
			}
		})
	}
}

// reportDivergence appends the first divergent line to the file named by
// $GOLDEN_DIVERGENCE_OUT, so a CI failure ships the exact point of
// divergence as an artifact instead of making the investigator re-run
// the corpus locally. A write failure only logs — the test failure
// itself must not be masked.
func reportDivergence(t *testing.T, name string, line int, got, want string) {
	path := os.Getenv("GOLDEN_DIVERGENCE_OUT")
	if path == "" {
		return
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Logf("golden divergence artifact: %v", err)
		return
	}
	defer f.Close()
	fmt.Fprintf(f, "trace=%s line=%d\ngot:  %s\nwant: %s\n\n", name, line, got, want)
}

// TestGoldenRecordingIsDeterministic re-records one entry twice and
// requires identical bytes — the property that makes the committed corpus
// meaningful at all, checked independently of any committed file.
func TestGoldenRecordingIsDeterministic(t *testing.T) {
	e := Corpus()[0]
	a, err := Record(e)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Record(e)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		line, gl, wl := FirstDiff(a, b)
		t.Fatalf("same-seed re-record diverged at line %d:\n  first:  %s\n  second: %s", line, gl, wl)
	}
}

// TestGoldenCorpusCoversCatalogArchetypes pins the corpus breadth: if a
// new service archetype or CCA is added to the catalog without a golden
// entry, this fails rather than letting coverage silently rot.
func TestGoldenCorpusCoversCatalogArchetypes(t *testing.T) {
	wantSvc := []string{
		"YouTube", "Netflix", "Vimeo", // video: quic-tuned, NewReno, BBR 4.15
		"Dropbox", "Google Drive", "OneDrive", "Mega", // file: BBR 4.15, BBRv3, Cubic-ext, mega-custom
		"Google Meet", "Microsoft Teams", // rtc: GCC both flavours
		"wikipedia.org", "news.google.com", "youtube.com", // web
		"iPerf (Cubic)", "iPerf (BBR)", "iPerf (Reno)", // baselines
	}
	present := map[string]bool{}
	solo := false
	for _, e := range Corpus() {
		present[e.Incumbent] = true
		if e.Contender == "" {
			solo = true
		} else {
			present[e.Contender] = true
		}
	}
	for _, s := range wantSvc {
		if !present[s] {
			t.Errorf("corpus does not exercise service %q", s)
		}
	}
	if !solo {
		t.Error("corpus has no solo calibration entry")
	}
}

// TestFirstDiff exercises the divergence locator on crafted inputs.
func TestFirstDiff(t *testing.T) {
	a := []byte("one\ntwo\nthree\n")
	b := []byte("one\ntwo\nTHREE\n")
	line, gl, wl := FirstDiff(a, b)
	if line != 3 || gl != "three" || wl != "THREE" {
		t.Fatalf("FirstDiff = %d %q %q", line, gl, wl)
	}
	if line, _, _ := FirstDiff(a, a); line != 0 {
		t.Fatalf("identical inputs reported diff at line %d", line)
	}
	line, gl, wl = FirstDiff(a, []byte("one\n"))
	if line != 2 || gl != "two" || wl != "" {
		t.Fatalf("truncated diff = %d %q %q", line, gl, wl)
	}
}
