package core

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"prudentia/internal/journal"
	"prudentia/internal/netem"
)

// Forward-compat regression tests: checkpoints and journals from a
// NEWER binary must be rejected with a clear, typed error — not
// panicked over, misparsed, or silently replaced.

// TestCheckpointFutureVersionRejected: a hand-crafted checkpoint
// claiming schema version 2 is refused with journal.ErrFutureVersion even
// though its body would parse fine.
func TestCheckpointFutureVersionRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.json")
	body := `{"schema":"prudentia.checkpoint/2","cycle":3,"calibration":[null],"pairs":[{}]}`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := LoadCheckpoint(path)
	if err == nil {
		t.Fatal("future-version checkpoint accepted")
	}
	if !errors.Is(err, journal.ErrFutureVersion) {
		t.Fatalf("error %v is not journal.ErrFutureVersion", err)
	}
	if !strings.Contains(err.Error(), "prudentia.checkpoint/2") ||
		!strings.Contains(err.Error(), CheckpointSchema) {
		t.Fatalf("message %q must name both versions", err)
	}
}

// TestCheckpointFutureVersionUnparseableBody: the schema probe runs
// before the full parse, so a future checkpoint whose body no longer
// matches this build's shape still yields the clear version error
// rather than a confusing field error.
func TestCheckpointFutureVersionUnparseableBody(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.json")
	body := `{"schema":"prudentia.checkpoint/7","cycle":"three","pairs":42}`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := LoadCheckpoint(path)
	if !errors.Is(err, journal.ErrFutureVersion) {
		t.Fatalf("got %v, want journal.ErrFutureVersion", err)
	}
}

// TestCheckpointUnknownSchemaRejected: a non-prudentia schema is
// rejected but NOT labelled a future version.
func TestCheckpointUnknownSchemaRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.json")
	body := `{"schema":"other/1","cycle":1,"pairs":[{}]}`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := LoadCheckpoint(path)
	if err == nil || errors.Is(err, journal.ErrFutureVersion) {
		t.Fatalf("got %v, want plain schema rejection", err)
	}
}

// TestCheckpointMissingSchemaAccepted: checkpoints written before the
// schema field existed load as version 1 (back-compat), and a
// save/load round trip stamps the current schema.
func TestCheckpointMissingSchemaAccepted(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.json")
	body := `{"cycle":2,"calibration":[null],"pairs":[{}]}`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	cp, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatalf("pre-schema checkpoint rejected: %v", err)
	}
	if cp.Cycle != 2 {
		t.Fatalf("cycle = %d, want 2", cp.Cycle)
	}
	if err := SaveCheckpoint(path, cp); err != nil {
		t.Fatal(err)
	}
	again, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if again.Schema != CheckpointSchema {
		t.Fatalf("saved schema %q, want %q", again.Schema, CheckpointSchema)
	}
}

// TestWatchdogRefusesFutureJournal: a future-version journal must stop
// RunCycle outright. Degrading to unjournaled operation — the response
// to a merely broken journal — would fork trial history that the newer
// binary still considers authoritative.
func TestWatchdogRefusesFutureJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trials.journal")
	// Hand-craft a minimal future-version journal: one valid frame
	// holding the future header.
	if err := writeFutureJournal(path, `{"schema":"prudentia.journal/2"}`); err != nil {
		t.Fatal(err)
	}
	w := NewWatchdog()
	w.Services = threeServices()[:2]
	w.Settings = []netem.Config{netem.HighlyConstrained()}
	w.Opts = fastOpts(w.Settings[0])
	w.JournalPath = path
	_, err := w.RunCycle()
	if err == nil {
		t.Fatal("RunCycle ran against a future-version journal")
	}
	if !errors.Is(err, journal.ErrFutureVersion) {
		t.Fatalf("error %v is not journal.ErrFutureVersion", err)
	}
}

// writeFutureJournal frames one payload the way the journal does
// (duplicated here so the test exercises the real file format, not the
// journal package's own writer).
func writeFutureJournal(path, payload string) error {
	p := []byte(payload)
	buf := make([]byte, 8+len(p))
	buf[0] = byte(len(p) >> 24)
	buf[1] = byte(len(p) >> 16)
	buf[2] = byte(len(p) >> 8)
	buf[3] = byte(len(p))
	crc := crc32IEEE(p)
	buf[4] = byte(crc >> 24)
	buf[5] = byte(crc >> 16)
	buf[6] = byte(crc >> 8)
	buf[7] = byte(crc)
	copy(buf[8:], p)
	return os.WriteFile(path, buf, 0o644)
}

func crc32IEEE(p []byte) uint32 {
	const poly = 0xedb88320
	crc := ^uint32(0)
	for _, b := range p {
		crc ^= uint32(b)
		for i := 0; i < 8; i++ {
			if crc&1 != 0 {
				crc = crc>>1 ^ poly
			} else {
				crc >>= 1
			}
		}
	}
	return ^crc
}
