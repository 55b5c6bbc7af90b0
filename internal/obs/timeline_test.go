package obs

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// TestTimelineRoundTrip pins the JSONL schema: every field written by
// Emit must survive ReadTimeline unchanged.
func TestTimelineRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "timeline.jsonl")
	tl, err := CreateTimeline(path)
	if err != nil {
		t.Fatal(err)
	}
	events := []TimelineEvent{
		{WallMs: 1000, Kind: "cycle_start", Cycle: 3, Detail: "2 services, 1 settings, resumed=false"},
		{WallMs: 1001, Kind: "setting_start", Cycle: 3, Setting: 1, Detail: "8 Mbps"},
		{WallMs: 1002, Kind: "calibration_done", Pair: "iPerf (Cubic)", Detail: "ok"},
		{WallMs: 1003, Kind: "trial_start", Pair: "A vs B", Seed: 12345678901234567, Attempt: 2},
		{WallMs: 1004, Kind: "trial_ok", Pair: "A vs B", Seed: 12345678901234567, Attempt: 2,
			SimSeconds: 60, WallSeconds: 0.125},
		{WallMs: 1005, Kind: "trial_fail", Pair: "A vs B", Seed: 7, Attempt: 3, Detail: "panic: injected"},
		{WallMs: 1006, Kind: "pair_done", Pair: "A vs B", Detail: "quarantined"},
		{WallMs: 1007, Kind: "checkpoint", Cycle: 3},
		{WallMs: 1008, Kind: "cycle_end", Cycle: 3, Detail: "completed"},
	}
	for _, ev := range events {
		tl.Emit(ev)
	}
	if err := tl.Close(); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := ReadTimeline(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("round-trip returned %d events, want %d", len(got), len(events))
	}
	for i := range events {
		if got[i] != events[i] {
			t.Fatalf("event %d: got %+v, want %+v", i, got[i], events[i])
		}
	}
}

// TestTimelineStampsWallClock verifies Emit fills WallMs when unset.
func TestTimelineStampsWallClock(t *testing.T) {
	var b strings.Builder
	tl := NewTimeline(&b)
	tl.Emit(TimelineEvent{Kind: "trial_start"})
	if err := tl.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTimeline(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].WallMs == 0 {
		t.Fatalf("expected one wall-stamped event, got %+v", got)
	}
}

// TestTimelineNilSafe: a nil timeline must absorb emissions and Close.
func TestTimelineNilSafe(t *testing.T) {
	var tl *Timeline
	tl.Emit(TimelineEvent{Kind: "trial_start"})
	if err := tl.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestTimelineConcurrentEmit: worker goroutines emit live; every line
// must still parse (no interleaved writes). Run under -race.
func TestTimelineConcurrentEmit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "timeline.jsonl")
	tl, err := CreateTimeline(path)
	if err != nil {
		t.Fatal(err)
	}
	const workers, perWorker = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				tl.Emit(TimelineEvent{Kind: "trial_ok", Pair: "A vs B", Attempt: id*perWorker + i})
			}
		}(w)
	}
	wg.Wait()
	if err := tl.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := ReadTimeline(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != workers*perWorker {
		t.Fatalf("read %d events, want %d", len(got), workers*perWorker)
	}
}

// TestManifestRoundTrip pins the manifest schema and the atomic write.
func TestManifestRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("prudentia_trials_completed_total").Add(9)
	m := NewManifest()
	m.Cycle = 2
	m.BaseSeed = 42
	m.Workers = 4
	m.Services = []string{"iPerf (Cubic)", "iPerf (BBR)"}
	m.ChaosEnabled = true
	m.Metrics = reg.Snapshot()

	path := filepath.Join(t.TempDir(), "manifest.json")
	if err := m.Write(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got Manifest
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.Schema != ManifestSchema {
		t.Fatalf("schema = %q, want %q", got.Schema, ManifestSchema)
	}
	if got.Cycle != 2 || got.BaseSeed != 42 || got.Workers != 4 || !got.ChaosEnabled {
		t.Fatalf("fields lost in round trip: %+v", got)
	}
	if got.GeneratedAt == "" || got.GoVersion == "" || got.GitRevision == "" {
		t.Fatalf("stamp fields empty: %+v", got)
	}
	if got.Metrics.Counters["prudentia_trials_completed_total"] != 9 {
		t.Fatalf("metric snapshot lost: %+v", got.Metrics)
	}
	// No temp droppings from the atomic write.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("expected only manifest.json in dir, found %d entries", len(entries))
	}
}
