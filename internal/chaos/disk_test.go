package chaos

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestDiskPlanDeterminism: two plans with the same seed and rates make
// identical fault decisions in operation order.
func TestDiskPlanDeterminism(t *testing.T) {
	mk := func() *DiskPlan {
		return &DiskPlan{Seed: 99, WriteErrRate: 0.3, TornTailRate: 0.2, StallRate: 0.1, Stall: time.Nanosecond}
	}
	a, b := mk(), mk()
	for i := 0; i < 200; i++ {
		if ae, be := a.writeErr(), b.writeErr(); ae != be {
			t.Fatalf("write decision %d diverged: %v vs %v", i, ae, be)
		}
		as, at := a.syncFault()
		bs, bt := b.syncFault()
		if as != bs || at != bt {
			t.Fatalf("sync decision %d diverged: (%v,%d) vs (%v,%d)", i, as, at, bs, bt)
		}
	}
	if a.ops.Load() == 0 || a.ops.Load() != b.ops.Load() {
		t.Fatalf("op counters diverged: %d vs %d", a.ops.Load(), b.ops.Load())
	}
}

// TestDiskPlanDisabled: nil and zero plans inject nothing and a wrapped
// file passes operations straight through.
func TestDiskPlanDisabled(t *testing.T) {
	var nilPlan *DiskPlan
	if nilPlan.Enabled() || (&DiskPlan{}).Enabled() {
		t.Fatal("nil/zero plan reports enabled")
	}
	path := filepath.Join(t.TempDir(), "f")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	ff := WrapFile(f, nil)
	if _, err := ff.Write([]byte("hello")); err != nil {
		t.Fatalf("passthrough write: %v", err)
	}
	if err := ff.Sync(); err != nil {
		t.Fatalf("passthrough sync: %v", err)
	}
	if err := ff.Close(); err != nil {
		t.Fatal(err)
	}
	b, _ := os.ReadFile(path)
	if string(b) != "hello" {
		t.Fatalf("file content = %q", b)
	}
}

// TestFaultyFileWriteError: a certain-fire write rate fails every write
// with the injected ENOSPC and writes nothing.
func TestFaultyFileWriteError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ff := WrapFile(f, &DiskPlan{Seed: 1, WriteErrRate: 1})
	if _, err := ff.Write([]byte("doomed")); !errors.Is(err, ErrInjectedDiskFull) {
		t.Fatalf("write error = %v, want ErrInjectedDiskFull", err)
	}
	st, _ := os.Stat(path)
	if st.Size() != 0 {
		t.Fatalf("injected-ENOSPC write persisted %d bytes", st.Size())
	}
}

// TestFaultyFileTornTail: a certain-fire torn-tail rate cuts bytes off
// the end at sync time and reports the injected sync failure — the
// state a WAL's recovery scanner must truncate back to a whole frame.
func TestFaultyFileTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ff := WrapFile(f, &DiskPlan{Seed: 7, TornTailRate: 1})
	payload := []byte("0123456789abcdef0123456789abcdef")
	if _, err := ff.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := ff.Sync(); !errors.Is(err, ErrInjectedSyncFail) {
		t.Fatalf("sync error = %v, want ErrInjectedSyncFail", err)
	}
	st, _ := os.Stat(path)
	if st.Size() >= int64(len(payload)) || st.Size() < int64(len(payload)-tornMaxBytes) {
		t.Fatalf("torn size = %d, want within [%d, %d)", st.Size(), len(payload)-tornMaxBytes, len(payload))
	}
}

// TestFaultyFileStall: a certain-fire stall rate delays the sync but
// still completes it cleanly.
func TestFaultyFileStall(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ff := WrapFile(f, &DiskPlan{Seed: 3, StallRate: 1, Stall: 5 * time.Millisecond})
	if _, err := ff.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := ff.Sync(); err != nil {
		t.Fatalf("stalled sync should still succeed: %v", err)
	}
	if d := time.Since(start); d < 5*time.Millisecond {
		t.Fatalf("sync returned after %v, want >= 5ms stall", d)
	}
}
