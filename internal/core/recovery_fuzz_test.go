package core

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
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
