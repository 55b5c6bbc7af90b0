package journal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const testSchema = "prudentia.test/1"

var errInjected = errors.New("injected disk fault")

// faultFile fails one File method while *armed, standing in for the
// chaos wrapper so each repair step's failure can be forced on its own.
type faultFile struct {
	File
	fail  string
	armed *bool
}

func (f *faultFile) hit(op string) bool { return *f.armed && f.fail == op }

func (f *faultFile) Write(p []byte) (int, error) {
	if f.hit("write") {
		return 0, errInjected
	}
	return f.File.Write(p)
}

func (f *faultFile) Sync() error {
	if f.hit("sync") {
		return errInjected
	}
	return f.File.Sync()
}

func (f *faultFile) Truncate(n int64) error {
	if f.hit("truncate") {
		return errInjected
	}
	return f.File.Truncate(n)
}

func (f *faultFile) Seek(off int64, whence int) (int64, error) {
	if f.hit("seek") {
		return 0, errInjected
	}
	return f.File.Seek(off, whence)
}

// faultWrap returns a WrapFunc whose files fail method fail while
// *armed ("" never fails).
func faultWrap(fail string, armed *bool) WrapFunc {
	return func(f *os.File) File { return &faultFile{File: f, fail: fail, armed: armed} }
}

func cat(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

// TestLogRecoveryMatrix crosses every on-disk state OpenLog can meet
// with a failure of every File method its repair uses, and checks the
// one recovery policy: what is recovered, where the file is cut, fatal
// vs sticky-degraded vs healthy, and that Rewrite heals a degraded log.
func TestLogRecoveryMatrix(t *testing.T) {
	hdr := Frame([]byte(`{"schema":"` + testSchema + `"}`))
	r := [][]byte{Frame([]byte("r0")), Frame([]byte("r1")), Frame([]byte("r2"))}
	flipped := append([]byte(nil), r[1]...)
	flipped[len(flipped)-1] ^= 0x40

	states := []struct {
		name string
		data []byte // nil = no file
		// want is how many payloads recover; good the offset the file is
		// cut back to (-1 = rebuilt from scratch); uses the File methods
		// the repair of this state goes through.
		want  int
		good  int
		uses  string
		fatal bool
	}{
		{name: "missing", data: nil, good: -1, uses: "write sync seek"},
		{name: "empty", data: []byte{}, good: -1, uses: "write sync seek"},
		{name: "garbage", data: []byte("not a log at all"), good: -1, uses: "write sync seek"},
		{name: "torn header", data: hdr[:10], good: -1, uses: "write sync seek"},
		{name: "clean", data: cat(hdr, r[0], r[1], r[2]), want: 3, good: len(hdr) + 3*len(r[0]), uses: "seek"},
		{name: "torn tail", data: cat(hdr, r[0], r[1], r[2][:7]), want: 2, good: len(hdr) + 2*len(r[0]), uses: "truncate sync seek"},
		{name: "crc flip mid-file", data: cat(hdr, r[0], flipped, r[2]), want: 1, good: len(hdr) + len(r[0]), uses: "truncate sync seek"},
		{name: "undecodable record", data: cat(hdr, r[0], Frame([]byte("!bad")), r[2]), want: 1, good: len(hdr) + len(r[0]), uses: "truncate sync seek"},
		{name: "foreign schema", data: cat(Frame([]byte(`{"schema":"other/9"}`)), r[0]), fatal: true},
		{name: "future schema", data: cat(Frame([]byte(`{"schema":"prudentia.test/2"}`)), r[0]), fatal: true},
	}
	for _, st := range states {
		for _, fail := range []string{"", "write", "sync", "truncate", "seek"} {
			t.Run(st.name+"/fail="+fail, func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "x.log")
				if st.data != nil {
					if err := os.WriteFile(path, st.data, 0o644); err != nil {
						t.Fatal(err)
					}
				}
				armed := true
				decoded := 0
				l, rec, err := OpenLog(path, testSchema, faultWrap(fail, &armed), func(p []byte) error {
					if p[0] == '!' {
						return errors.New("undecodable")
					}
					decoded++
					return nil
				})
				if st.fatal {
					if err == nil || l != nil {
						t.Fatalf("opened a %s file: %v", st.name, err)
					}
					if got := errors.Is(err, ErrFutureVersion); got != (st.name == "future schema") {
						t.Fatalf("ErrFutureVersion = %v for %v", got, err)
					}
					if onDisk, _ := os.ReadFile(path); !bytes.Equal(onDisk, st.data) {
						t.Fatal("refused file was disturbed")
					}
					return
				}
				if err != nil {
					t.Fatalf("fatal although no intact record is at stake: %v", err)
				}
				defer l.Close()

				wantTorn := len(st.data) - st.good
				if st.good < 0 {
					wantTorn = len(st.data)
				}
				if len(rec.Payloads) != st.want || decoded != st.want ||
					rec.TornBytes != int64(wantTorn) || rec.Truncated != (wantTorn > 0) {
					t.Fatalf("recovered %d payloads (%d decoded), %d torn, truncated=%v; want %d payloads, %d torn",
						len(rec.Payloads), decoded, rec.TornBytes, rec.Truncated, st.want, wantTorn)
				}
				for i, p := range rec.Payloads {
					if string(p) != fmt.Sprintf("r%d", i) {
						t.Fatalf("payload %d = %q", i, p)
					}
				}

				degraded := fail != "" && strings.Contains(st.uses, fail)
				if (l.Err() != nil) != degraded {
					t.Fatalf("Err() = %v, want degraded=%v", l.Err(), degraded)
				}
				if !degraded {
					wantSize := int64(st.good)
					if st.good < 0 {
						wantSize = int64(len(hdr))
					}
					if fi, err := os.Stat(path); err != nil || fi.Size() != wantSize {
						t.Fatalf("file is %d bytes after repair, want %d (%v)", fi.Size(), wantSize, err)
					}
					// A fault that first bites on the append path sticks
					// there instead.
					if fail == "write" || fail == "sync" {
						if err := l.Append([]byte("lost")); !errors.Is(err, errInjected) {
							t.Fatalf("append under %s fault: %v", fail, err)
						}
						degraded = true
					}
				}
				if degraded {
					first := l.Append([]byte("refused"))
					if first == nil || l.Append([]byte("refused")) != first {
						t.Fatalf("degraded log must refuse appends with one sticky error, got %v", first)
					}
					if records, _ := l.Stats(); records != 0 {
						t.Fatalf("refused appends were counted: %d", records)
					}
				}

				// The disk heals: Rewrite gives the log a fresh file and
				// clears the sticky error, and the result round-trips.
				armed = false
				if err := l.Rewrite(rec.Payloads); err != nil || l.Err() != nil {
					t.Fatalf("Rewrite on a healed disk: %v (sticky %v)", err, l.Err())
				}
				if err := l.Append([]byte("after")); err != nil {
					t.Fatalf("append after heal: %v", err)
				}
				if err := l.Close(); err != nil {
					t.Fatal(err)
				}
				l2, rec2, err := OpenLog(path, testSchema, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				defer l2.Close()
				if rec2.Truncated || len(rec2.Payloads) != st.want+1 || string(rec2.Payloads[st.want]) != "after" {
					t.Fatalf("healed log reopened as %d payloads, truncated=%v", len(rec2.Payloads), rec2.Truncated)
				}
			})
		}
	}
}

// TestLogFailedRewriteKeepsOldFile: a Rewrite that fails before the
// rename leaves the old contents, the live handle and the error state
// exactly as they were.
func TestLogFailedRewriteKeepsOldFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.log")
	armed := false
	l, _, err := OpenLog(path, testSchema, faultWrap("sync", &armed), nil)
	if err != nil || l.Err() != nil {
		t.Fatal(err, l.Err())
	}
	defer l.Close()
	if err := l.Append([]byte("kept")); err != nil {
		t.Fatal(err)
	}
	before, _ := os.ReadFile(path)
	armed = true
	if err := l.Rewrite(nil); !errors.Is(err, errInjected) {
		t.Fatalf("Rewrite under sync fault: %v", err)
	}
	armed = false
	if after, _ := os.ReadFile(path); !bytes.Equal(before, after) {
		t.Fatal("failed Rewrite disturbed the old file")
	}
	if _, err := os.Stat(tempPath(path)); !os.IsNotExist(err) {
		t.Fatalf("failed Rewrite left its temp file behind: %v", err)
	}
	if err := l.Append([]byte("still appendable")); err != nil {
		t.Fatalf("append after failed Rewrite: %v", err)
	}
}

// TestNilLogSafe: every method on a nil *Log is a no-op.
func TestNilLogSafe(t *testing.T) {
	var l *Log
	if l.Append(nil) != nil || l.Rewrite(nil) != nil || l.Err() != nil || l.Close() != nil {
		t.Fatal("nil log reported an error")
	}
	if r, b := l.Stats(); r != 0 || b != 0 {
		t.Fatal("nil stats")
	}
}
