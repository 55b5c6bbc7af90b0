package fleet

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"prudentia/internal/core"
	"prudentia/internal/journal"
)

// The frame codec's own invariants live in internal/journal
// (frame_test.go). These tests cover what the fleet still owns: msgs
// travelling through a frameConn.

// wireConn is an in-memory net.Conn: reads drain in, writes fill out.
type wireConn struct {
	net.Conn
	in  *bytes.Reader
	out bytes.Buffer
}

func (c *wireConn) Read(p []byte) (int, error)       { return c.in.Read(p) }
func (c *wireConn) Write(p []byte) (int, error)      { return c.out.Write(p) }
func (c *wireConn) SetReadDeadline(time.Time) error  { return nil }
func (c *wireConn) SetWriteDeadline(time.Time) error { return nil }

// wire returns a frameConn that reads the given bytes, plus its conn so
// the test can inspect what was written.
func wire(in []byte) (*frameConn, *wireConn) {
	c := &wireConn{in: bytes.NewReader(in)}
	return newFrameConn(c), c
}

// encodeMsg returns the bytes frameConn.write puts on the wire for m.
func encodeMsg(t testing.TB, m *msg) []byte {
	t.Helper()
	fc, c := wire(nil)
	if err := fc.write(m, time.Second); err != nil {
		t.Fatal(err)
	}
	return c.out.Bytes()
}

// TestFrameRoundTrip: write → read restores the exact message.
func TestFrameRoundTrip(t *testing.T) {
	for _, m := range []*msg{
		{Type: msgWelcome},
		{Type: msgPing, T: 12345},
		{Type: msgAssign, Lease: 9, Task: &core.PairTask{Cycle: 1, A: 2, B: 3}},
		{Type: msgShutdown, Detail: strings.Repeat("z", 70000)},
	} {
		fc, _ := wire(encodeMsg(t, m))
		got, err := fc.read(time.Second)
		if err != nil {
			t.Fatalf("%s: %v", m.Type, err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("%s: round trip mangled: %+v", m.Type, got)
		}
	}
}

// TestFrameChecksumMismatch: a bit flipped on the wire kills the read.
func TestFrameChecksumMismatch(t *testing.T) {
	buf := encodeMsg(t, &msg{Type: msgPong, T: 7})
	buf[len(buf)-1] ^= 0x01
	fc, _ := wire(buf)
	if _, err := fc.read(time.Second); err == nil {
		t.Fatal("corrupt frame accepted")
	}
}

// TestFrameOversizedLengthRejected: a hostile length prefix from a peer
// is refused before any allocation.
func TestFrameOversizedLengthRejected(t *testing.T) {
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[0:4], journal.MaxFrame+1)
	fc, _ := wire(hdr[:])
	_, err := fc.read(time.Second)
	if err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("oversized frame: %v, want length-limit error", err)
	}
}

// assignFrame is one `assign` message exactly as the parent commit's
// fleet put it on the wire.
const assignFrame = "\x00\x00\x00R\x836\x9eg{\"type\":\"assign\",\"lease\":7,\"task\":{\"cycle\":2,\"setting\":1,\"a\":3,\"b\":5,\"budget\":12}}"

// TestAssignFramePinned pins prudentia.fleet/1 on the wire: the fixture
// decodes to the expected message and re-encodes to identical bytes.
func TestAssignFramePinned(t *testing.T) {
	fc, _ := wire([]byte(assignFrame))
	m, err := fc.read(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	want := &msg{Type: msgAssign, Lease: 7, Task: &core.PairTask{Cycle: 2, Setting: 1, A: 3, B: 5, Budget: 12}}
	if !reflect.DeepEqual(m, want) {
		t.Fatalf("decoded %+v (task %+v)", m, m.Task)
	}
	if got := encodeMsg(t, m); string(got) != assignFrame {
		t.Fatalf("re-encoded frame differs:\n got %q\nwant %q", got, assignFrame)
	}
}

// FuzzFrameScanner throws arbitrary peer bytes at frameConn.read. The
// invariants: it never panics, malformed input surfaces as an error,
// and any message it accepts can be written back and read again.
func FuzzFrameScanner(f *testing.F) {
	f.Add(journal.Frame([]byte(`{"type":"hello","schema":"prudentia.fleet/1","worker":"w1"}`)))
	f.Add(journal.Frame(nil))
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 0xde, 0xad, 0xbe, 0xef, 'x'})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	f.Add(append(journal.Frame([]byte(`{"type":"ping","t":1}`)), journal.Frame([]byte(`{"type":"pong","t":1}`))...))
	f.Fuzz(func(t *testing.T, data []byte) {
		fc, _ := wire(data)
		for {
			m, err := fc.read(0)
			if err != nil {
				return
			}
			back, _ := wire(encodeMsg(t, m))
			if _, err := back.read(0); err != nil {
				t.Fatalf("accepted message %+v does not survive re-encoding: %v", m, err)
			}
		}
	})
}

// FuzzFleetResult throws arbitrary bytes at decodeResult, the reader of
// a worker's result outcome. It never panics, and an outcome it accepts
// passes Validate and is not Skipped. The corpus starts from an honest
// pair and the outcomes TestWorkerDeathRedispatch ships.
func FuzzFleetResult(f *testing.F) {
	honest := core.RunPair(testCatalog(), testSettings()[0], testOptions(1, 0), allPairs(1)[0], nil)
	whole, err := json.Marshal(honest)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(whole)
	bad := badOutcomes(f)
	for _, what := range []string{"a miscounted outcome", "a raw-sample outcome", "a skipped outcome"} {
		f.Add([]byte(bad[what]))
	}
	f.Add([]byte("null"))
	f.Fuzz(func(t *testing.T, data []byte) {
		out, err := decodeResult(data)
		if err != nil {
			return
		}
		if verr := out.Validate(); verr != nil {
			t.Fatalf("accepted an outcome that fails Validate: %v", verr)
		}
		if out.Skipped {
			t.Fatal("accepted a skipped outcome")
		}
	})
}
