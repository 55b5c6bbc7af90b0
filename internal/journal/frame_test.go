package journal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"strings"
	"testing"
)

// TestFrameRoundTrip: Frame → ScanFrames restores the exact payload.
func TestFrameRoundTrip(t *testing.T) {
	for _, payload := range []string{"", "x", `{"seed":12345,"kind":"ok"}`, strings.Repeat("z", 70000)} {
		buf := Frame([]byte(payload))
		scanned, good := ScanFrames(buf)
		if len(scanned) != 1 || string(scanned[0]) != payload || good != int64(len(buf)) {
			t.Fatalf("payload %d bytes: buffer round trip mangled", len(payload))
		}
	}
}

// TestFrameChecksumMismatch: a flipped payload bit is detected.
func TestFrameChecksumMismatch(t *testing.T) {
	buf := Frame([]byte("hello journal"))
	buf[len(buf)-1] ^= 0x01
	if scanned, good := ScanFrames(buf); len(scanned) != 0 || good != 0 {
		t.Fatal("buffer scanner accepted a corrupt frame")
	}
}

// TestFrameOversizedLengthRejected: a hostile length prefix is refused,
// even with that many bytes behind it.
func TestFrameOversizedLengthRejected(t *testing.T) {
	buf := make([]byte, frameHeader+MaxFrame+1)
	binary.BigEndian.PutUint32(buf[0:4], MaxFrame+1)
	binary.BigEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(buf[frameHeader:]))
	if scanned, good := ScanFrames(buf); len(scanned) != 0 || good != 0 {
		t.Fatal("buffer scanner accepted an oversized length")
	}
}

func TestCRCMatchesStdlib(t *testing.T) {
	// Pin the checksum choice: the on-disk format commits to CRC32-IEEE.
	payload := []byte(`{"seed":1}`)
	fr := Frame(payload)
	if got := binary.BigEndian.Uint32(fr[4:8]); got != crc32.ChecksumIEEE(payload) {
		t.Fatalf("frame CRC %#x", got)
	}
}

// FuzzFrameScanner throws arbitrary bytes at the frame scanner. The
// invariants: it never panics, the frames it accepts re-encode to
// exactly the prefix it reports as good (so an accepted frame is always
// one Frame could have produced), and it stops only where the next
// frame is short, oversized or fails its checksum.
func FuzzFrameScanner(f *testing.F) {
	f.Add(Frame([]byte(`{"schema":"prudentia.journal/1"}`)))
	f.Add(Frame(nil))
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 0xde, 0xad, 0xbe, 0xef, 'x'})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	two := append(Frame([]byte("first")), Frame([]byte("second"))...)
	f.Add(two)
	f.Fuzz(func(t *testing.T, data []byte) {
		scanned, good := ScanFrames(data)
		var re []byte
		for _, payload := range scanned {
			re = append(re, Frame(payload)...)
		}
		if !bytes.Equal(re, data[:good]) {
			t.Fatalf("%d accepted frames do not re-encode to the %d-byte good prefix", len(scanned), good)
		}
		rest := data[good:]
		if len(rest) < frameHeader {
			return
		}
		n := binary.BigEndian.Uint32(rest)
		if n <= MaxFrame && int(n) <= len(rest)-frameHeader &&
			crc32.ChecksumIEEE(rest[frameHeader:frameHeader+int(n)]) == binary.BigEndian.Uint32(rest[4:]) {
			t.Fatalf("scanner stopped at offset %d before an intact frame", good)
		}
	})
}
