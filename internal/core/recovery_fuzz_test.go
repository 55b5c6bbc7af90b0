package core

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"prudentia/internal/netem"
)

// FuzzLoadCheckpoint: arbitrary bytes in the checkpoint file must never
// panic the loader — they load as a header or fail cleanly — and a
// header that loads is one this build can save and load back unchanged.
func FuzzLoadCheckpoint(f *testing.F) {
	f.Add([]byte(`{"schema":"prudentia.checkpoint/1","cycle":2,"breakers":[{"service":"iPerf (BBR)","state":"open","score":6}],"budget":[{"0|1":7},null],"open_services":[["iPerf (BBR)"],null]}`))
	f.Add([]byte(exactStatsCheckpoint)) // a previous build's, with pairs and calibration
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
// error — nothing in between reaches the merge.
func FuzzPairRecord(f *testing.F) {
	net := netem.HighlyConstrained()
	out, events := RunPairTask(threeServices(), net, fastOpts(net), PairTask{A: 0, B: 1})
	whole, err := json.Marshal(pairRecord{out, events})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(whole)
	f.Add([]byte(checkpointPairRecord(f, exactStatsCheckpoint).Result))
	f.Add([]byte(checkpointPairRecord(f, skippedCheckpoint).Result))
	f.Add([]byte(`{"outcome": {"sketches": {"n": 1, "mbps": [null, null]}}}`))
	f.Add([]byte(`{"outcome": null, "events": [{"pair": "a vs b", "kind": "discard"}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		out, _, err := decodePairRecord(journalEntry{Kind: "pair", Result: data})
		if err != nil {
			return
		}
		if verr := out.Validate(); verr != nil {
			t.Fatalf("decoded an outcome that fails Validate: %v", verr)
		}
	})
}
