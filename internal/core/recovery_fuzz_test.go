package core

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"prudentia/internal/netem"
	"prudentia/internal/obs"
	"prudentia/internal/stats"
)

// FuzzLoadCheckpoint: arbitrary bytes in the checkpoint file must never
// panic the loader — they load as a header or fail cleanly — and a
// header that loads is one this build can save and load back unchanged.
func FuzzLoadCheckpoint(f *testing.F) {
	f.Add([]byte(`{"schema":"prudentia.checkpoint/1","cycle":2,"breakers":[{"service":"iPerf (BBR)","state":"open","score":6}]}`))
	f.Add([]byte(decisionsCheckpoint))  // a previous build's, with open_services and budget
	f.Add([]byte(exactStatsCheckpoint)) // an older build's, with pairs and calibration
	f.Add([]byte(skippedCheckpoint))
	f.Add([]byte(`{"schema":"prudentia.checkpoint/7","cycle":"three","pairs":42}`))
	f.Add([]byte(`{"cycle":0}`))
	f.Add([]byte("{not json"))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "ck.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		cp, err := LoadCheckpoint(path)
		if err != nil {
			return
		}
		if cp.Cycle <= 0 {
			t.Fatalf("loaded a checkpoint for cycle %d", cp.Cycle)
		}
		if err := SaveCheckpoint(path, cp); err != nil {
			t.Fatalf("save of a loaded checkpoint: %v", err)
		}
		again, err := LoadCheckpoint(path)
		if err != nil {
			t.Fatalf("reload of a saved checkpoint: %v", err)
		}
		// Compared as saved: an empty list and an absent one are the
		// same header.
		a, _ := json.Marshal(cp)
		b, _ := json.Marshal(again)
		if !bytes.Equal(a, b) {
			t.Fatalf("checkpoint changed across save and load:\n%s\nvs\n%s", a, b)
		}
	})
}

// FuzzPairRecord: arbitrary bytes as a journaled pair record must never
// panic the decoder, which returns an outcome that passes Validate or an
// error — nothing in between reaches the merge. What it returns holds
// one sample per counted trial in every sketch, as an honest pair does:
// a sketch claiming more would make every reader that walks its samples
// pay for trials that never ran.
func FuzzPairRecord(f *testing.F) {
	net := netem.HighlyConstrained()
	var events []FaultEvent
	out := RunPair(threeServices(), net, fastOpts(net), PairTask{A: 0, B: 1}, func(ev FaultEvent) { events = append(events, ev) })
	whole, err := json.Marshal(pairRecord{out, events})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(whole)
	f.Add([]byte(checkpointPairRecord(f, exactStatsCheckpoint).Result))
	f.Add([]byte(checkpointPairRecord(f, skippedCheckpoint).Result))
	f.Add([]byte(`{"outcome": {"sketches": {"n": 1, "mbps": [null, null]}}}`))
	f.Add([]byte(`{"outcome": null, "events": [{"pair": "a vs b", "kind": "discard"}]}`))
	// The same pair claiming one counted trial more than its sketches hold.
	sk := *out.Sketches
	sk.N++
	miscounted := *out
	miscounted.Sketches = &sk
	short, err := json.Marshal(pairRecord{&miscounted, events})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(short)
	f.Fuzz(func(t *testing.T, data []byte) {
		out, _, err := decodePairRecord(journalEntry{Kind: "pair", Result: data})
		if err != nil {
			return
		}
		if verr := out.Validate(); verr != nil {
			t.Fatalf("decoded an outcome that fails Validate: %v", verr)
		}
		if out.Skipped {
			return
		}
		for i, s := range out.Sketches.all() {
			if s.Count() != out.Counted() {
				t.Fatalf("decoded sketch %d holds %d samples for %d counted trials", i, s.Count(), out.Counted())
			}
		}
	})
}

// TestRemoteDurationsReplayBuckets: a fleet result whose ten sketches
// all claim 2^47 samples, in 1.5 KB of JSON, passes Validate
// when its count agrees, and replaying its durations into the
// coordinator's histogram costs one observation per bucket, not one per
// claimed sample, so it returns at once instead of spinning for days.
func TestRemoteDurationsReplayBuckets(t *testing.T) {
	const claimed = 1 << 47
	huge := func(v float64) *stats.Sketch {
		s := stats.NewSketch()
		for i := 0; i < stats.SketchBufferCap; i++ {
			s.Add(v)
		}
		for s.Count() < claimed {
			twin, err := stats.DecodeSketch(s.Encode())
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Merge(twin); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	ps := &PairSketches{N: claimed, Utilization: huge(1), SimSeconds: huge(55)}
	for slot := 0; slot < 2; slot++ {
		ps.Mbps[slot], ps.SharePct[slot] = huge(4), huge(100)
		ps.Loss[slot], ps.QueueDelaySec[slot] = huge(0.01), huge(0.1)
	}
	data, err := json.Marshal(pairRecord{Outcome: &PairOutcome{Incumbent: "a", Contender: "b", Sketches: ps}})
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := decodePairRecord(journalEntry{Kind: "pair", Result: data})
	if err != nil {
		t.Fatalf("a consistent outcome of %d bytes failed to decode: %v", len(data), err)
	}
	reg := obs.NewRegistry()
	NewInstruments(reg, nil).remoteSimDurations(out)
	if got := reg.Snapshot().Histograms["prudentia_trial_sim_seconds"].Count; got != claimed {
		t.Fatalf("replayed %d durations, want %d", got, claimed)
	}
}
