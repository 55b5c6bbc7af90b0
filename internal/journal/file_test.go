package journal

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// TestOrphanedTempSwept: a crash between temp-write and rename leaves
// the target's temp file behind. The next ReplaceFile of that target —
// and the next OpenLog of it — must remove it, and must leave a
// different target's temp in the same directory alone.
func TestOrphanedTempSwept(t *testing.T) {
	dir := t.TempDir()
	target := filepath.Join(dir, "state.json")
	other := tempPath(filepath.Join(dir, "other.json"))
	plant := func(path string) {
		t.Helper()
		if err := os.WriteFile(path, []byte("half-written"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	gone := func(path string) bool {
		_, err := os.Stat(path)
		return os.IsNotExist(err)
	}
	plant(other)

	plant(tempPath(target))
	if err := ReplaceFile(target, []byte("new"), nil); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(target); string(got) != "new" {
		t.Fatalf("target holds %q", got)
	}
	if !gone(tempPath(target)) {
		t.Fatal("ReplaceFile left the target's orphaned temp behind")
	}

	wal := filepath.Join(dir, "subs.wal")
	w, err := Create(wal)
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	plant(tempPath(wal))
	l, _, err := OpenLog(wal, Schema, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if !gone(tempPath(wal)) {
		t.Fatal("OpenLog left the log's orphaned temp behind")
	}

	if gone(other) {
		t.Fatal("another target's temp was swept")
	}
}

// TestReplaceFileFaultKeepsOld: a write or fsync failure aborts before
// the rename — the previous contents stay and no temp is left.
func TestReplaceFileFaultKeepsOld(t *testing.T) {
	for _, fail := range []string{"write", "sync"} {
		target := filepath.Join(t.TempDir(), "state.json")
		if err := ReplaceFile(target, []byte("old"), nil); err != nil {
			t.Fatal(err)
		}
		armed := true
		if err := ReplaceFile(target, []byte("new"), faultWrap(fail, &armed)); !errors.Is(err, errInjected) {
			t.Fatalf("%s fault: %v", fail, err)
		}
		if got, _ := os.ReadFile(target); string(got) != "old" {
			t.Fatalf("%s fault: target holds %q", fail, got)
		}
		if _, err := os.Stat(tempPath(target)); !os.IsNotExist(err) {
			t.Fatalf("%s fault: temp left behind", fail)
		}
	}
}
