package journal

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func tmpJournal(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "trials.journal")
}

func entry(i int) Entry {
	return Entry{
		Seed:    uint64(1000 + i),
		Pair:    fmt.Sprintf("A vs B#%d", i),
		Attempt: i,
		Kind:    "ok",
		Result:  json.RawMessage(fmt.Sprintf(`{"n":%d}`, i)),
	}
}

// TestRoundTrip: append N entries, reopen, get them all back with zero
// truncation.
func TestRoundTrip(t *testing.T) {
	path := tmpJournal(t)
	w, err := CreateWrapped(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	var want []Entry
	for i := 0; i < 10; i++ {
		e := entry(i)
		if err := w.Append(e); err != nil {
			t.Fatal(err)
		}
		want = append(want, e)
	}
	records, bytes := w.Stats()
	if records != 10 || bytes == 0 {
		t.Fatalf("stats = (%d, %d)", records, bytes)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, rec, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if rec.Truncated || rec.TornBytes != 0 {
		t.Fatalf("clean journal reported truncation: %+v", rec)
	}
	if !reflect.DeepEqual(rec.Entries, want) {
		t.Fatalf("recovered entries differ:\n got %+v\nwant %+v", rec.Entries, want)
	}
}

// TestAppendAfterRecovery: entries appended after a recovery land after
// the recovered ones, and a second recovery sees both generations.
func TestAppendAfterRecovery(t *testing.T) {
	path := tmpJournal(t)
	w, err := CreateWrapped(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(entry(0)); err != nil {
		t.Fatal(err)
	}
	w.Close()

	w2, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.Append(entry(1)); err != nil {
		t.Fatal(err)
	}
	w2.Close()

	_, rec, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Entries) != 2 || rec.Entries[1].Seed != 1001 {
		t.Fatalf("recovered %+v", rec.Entries)
	}
}

// TestTornTailTruncated: chopping bytes off the end of the file must
// drop only the torn record; earlier records survive and appending
// after recovery works.
func TestTornTailTruncated(t *testing.T) {
	path := tmpJournal(t)
	w, err := CreateWrapped(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := w.Append(entry(i)); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append of record 5: cut into record 4's frame.
	for cut := 1; cut < 40; cut += 7 {
		torn := filepath.Join(t.TempDir(), "torn.journal")
		if err := os.WriteFile(torn, data[:len(data)-cut], 0o644); err != nil {
			t.Fatal(err)
		}
		w2, rec, err := Open(torn)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if !rec.Truncated || rec.TornBytes == 0 {
			t.Fatalf("cut %d: truncation not reported: %+v", cut, rec)
		}
		if len(rec.Entries) != 4 {
			t.Fatalf("cut %d: want 4 intact entries, got %d", cut, len(rec.Entries))
		}
		if err := w2.Append(entry(99)); err != nil {
			t.Fatalf("cut %d: append after recovery: %v", cut, err)
		}
		w2.Close()
		_, rec2, err := Open(torn)
		if err != nil {
			t.Fatal(err)
		}
		if rec2.Truncated || len(rec2.Entries) != 5 || rec2.Entries[4].Seed != 1099 {
			t.Fatalf("cut %d: second recovery %+v", cut, rec2)
		}
	}
}

// TestBitFlipTruncates: flipping a bit inside a record payload fails
// its CRC; that record and everything after it are cut, everything
// before survives.
func TestBitFlipTruncates(t *testing.T) {
	path := tmpJournal(t)
	w, err := CreateWrapped(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := w.Append(entry(i)); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Locate the start of record 3 (frame index 4: header + records 0-2).
	off := int64(0)
	for k := 0; k < 4; k++ {
		n := binary.BigEndian.Uint32(data[off : off+4])
		off += int64(frameHeader) + int64(n)
	}
	data[off+frameHeader+2] ^= 0x40 // flip a payload bit in record 3
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	w2, rec, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if !rec.Truncated || len(rec.Entries) != 3 {
		t.Fatalf("bit flip: %+v", rec)
	}
	for i, e := range rec.Entries {
		if e.Seed != uint64(1000+i) {
			t.Fatalf("entry %d corrupted: %+v", i, e)
		}
	}
}

// TestOpenMissingCreates: Open on a nonexistent path behaves like
// CreateWrapped.
func TestOpenMissingCreates(t *testing.T) {
	path := tmpJournal(t)
	w, rec, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Truncated || len(rec.Entries) != 0 {
		t.Fatalf("fresh open: %+v", rec)
	}
	if err := w.Append(entry(0)); err != nil {
		t.Fatal(err)
	}
	w.Close()
	_, rec2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec2.Entries) != 1 {
		t.Fatalf("recovered %+v", rec2)
	}
}

// TestWrongSchemaRejected: a valid frame stream whose header is not the
// journal schema must be refused, not silently rebuilt.
func TestWrongSchemaRejected(t *testing.T) {
	path := tmpJournal(t)
	payload := []byte(`{"schema":"other/9"}`)
	if err := os.WriteFile(path, Frame(payload), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(path); err == nil {
		t.Fatal("foreign schema accepted")
	}
}

// TestGarbageFileRebuilt: a file with no intact frame at all (e.g. a
// different format entirely) is rebuilt as a fresh journal with the
// loss reported.
func TestGarbageFileRebuilt(t *testing.T) {
	path := tmpJournal(t)
	if err := os.WriteFile(path, []byte("not a journal"), 0o644); err != nil {
		t.Fatal(err)
	}
	w, rec, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if !rec.Truncated || rec.TornBytes != int64(len("not a journal")) {
		t.Fatalf("garbage file: %+v", rec)
	}
}

// journalFixture is a 3-record trial journal exactly as the parent
// commit's journal.CreateWrapped/Append wrote it.
const journalFixture = "\x00\x00\x00 \xa5\xff\xe4\xa2{\"schema\":\"prudentia.journal/1\"}" +
	"\x00\x00\x00S\x80+hz{\"seed\":1001,\"pair\":\"A vs B\",\"attempt\":0,\"kind\":\"ok\",\"result\":{\"mbps\":[3.91,3.87]}}" +
	"\x00\x00\x00i\xbfI\xc1P{\"seed\":1002,\"pair\":\"A vs B\",\"attempt\":1,\"kind\":\"corrupt\",\"detail\":\"share out of range\",\"sim_seconds\":60}" +
	"\x00\x00\x00]\x03Sb7{\"seed\":1003,\"pair\":\"A (solo)\",\"attempt\":2,\"kind\":\"fail\",\"detail\":\"boom\",\"fail_kind\":\"panic\"}"

// TestJournalFormatPinned pins prudentia.journal/1 on disk: the fixture
// recovers to the expected entries, and journaling those entries afresh
// produces identical bytes.
func TestJournalFormatPinned(t *testing.T) {
	path := tmpJournal(t)
	if err := os.WriteFile(path, []byte(journalFixture), 0o644); err != nil {
		t.Fatal(err)
	}
	w, rec, err := Open(path)
	if err != nil || rec.Truncated {
		t.Fatalf("fixture did not recover cleanly: %v %+v", err, rec)
	}
	w.Close()
	want := []Entry{
		{Seed: 1001, Pair: "A vs B", Attempt: 0, Kind: "ok", Result: json.RawMessage(`{"mbps":[3.91,3.87]}`)},
		{Seed: 1002, Pair: "A vs B", Attempt: 1, Kind: "corrupt", Detail: "share out of range", SimSeconds: 60},
		{Seed: 1003, Pair: "A (solo)", Attempt: 2, Kind: "fail", Detail: "boom", FailKind: "panic"},
	}
	if !reflect.DeepEqual(rec.Entries, want) {
		t.Fatalf("fixture decoded to %+v", rec.Entries)
	}
	fresh := tmpJournal(t)
	w2, err := CreateWrapped(fresh, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range rec.Entries {
		if err := w2.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	w2.Close()
	if got, _ := os.ReadFile(fresh); string(got) != journalFixture {
		t.Fatalf("re-encoded journal differs:\n got %q\nwant %q", got, journalFixture)
	}
}

// TestNilWriterSafe: every method on a nil *Writer is a no-op.
func TestNilWriterSafe(t *testing.T) {
	var w *Writer
	if err := w.Append(entry(0)); err != nil {
		t.Fatal(err)
	}
	if r, b := w.Stats(); r != 0 || b != 0 {
		t.Fatal("nil stats")
	}
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// FuzzScan: recovery over arbitrary bytes must never panic, and must be
// idempotent — opening the recovered file a second time yields the same
// entries with nothing further truncated.
func FuzzScan(f *testing.F) {
	// Seed corpus: a clean journal, a torn one, a bit-flipped one.
	dir := f.TempDir()
	path := filepath.Join(dir, "seed.journal")
	w, err := CreateWrapped(path, nil)
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := w.Append(entry(i)); err != nil {
			f.Fatal(err)
		}
	}
	w.Close()
	clean, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(clean)
	f.Add(clean[:len(clean)-5])
	flipped := append([]byte(nil), clean...)
	flipped[len(flipped)/2] ^= 0x01
	f.Add(flipped)
	f.Add([]byte{})
	f.Add([]byte("\x00\x00\x00\x04\xff\xff\xff\xffabcd"))

	f.Fuzz(func(t *testing.T, data []byte) {
		p := filepath.Join(t.TempDir(), "fuzz.journal")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Skip()
		}
		w1, rec1, err := Open(p)
		if err != nil {
			return // rejected input (e.g. foreign schema) is fine
		}
		w1.Close()
		w2, rec2, err := Open(p)
		if err != nil {
			t.Fatalf("second open of recovered journal failed: %v", err)
		}
		w2.Close()
		if rec2.Truncated || rec2.TornBytes != 0 {
			t.Fatalf("recovery not idempotent: second open truncated %d bytes", rec2.TornBytes)
		}
		if !reflect.DeepEqual(rec1.Entries, rec2.Entries) {
			t.Fatalf("recovery not stable:\n first %+v\nsecond %+v", rec1.Entries, rec2.Entries)
		}
	})
}
