package journal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"strings"
	"testing"
)

// TestFrameRoundTrip: Frame → ReadFrame and Frame → ScanFrames both
// restore the exact payload.
func TestFrameRoundTrip(t *testing.T) {
	for _, payload := range []string{"", "x", `{"type":"ping","t":12345}`, strings.Repeat("z", 70000)} {
		buf := Frame([]byte(payload))
		got, err := ReadFrame(bufio.NewReader(bytes.NewReader(buf)))
		if err != nil {
			t.Fatalf("payload %d bytes: %v", len(payload), err)
		}
		if string(got) != payload {
			t.Fatalf("payload %d bytes: stream round trip mangled", len(payload))
		}
		scanned, good := ScanFrames(buf)
		if len(scanned) != 1 || string(scanned[0]) != payload || good != int64(len(buf)) {
			t.Fatalf("payload %d bytes: buffer round trip mangled", len(payload))
		}
	}
}

// TestFrameChecksumMismatch: a flipped payload bit is detected by both
// readers.
func TestFrameChecksumMismatch(t *testing.T) {
	buf := Frame([]byte("hello fleet"))
	buf[len(buf)-1] ^= 0x01
	if _, err := ReadFrame(bytes.NewReader(buf)); err == nil {
		t.Fatal("stream reader accepted a corrupt frame")
	}
	if scanned, good := ScanFrames(buf); len(scanned) != 0 || good != 0 {
		t.Fatal("buffer scanner accepted a corrupt frame")
	}
}

// TestFrameOversizedLengthRejected: a hostile length prefix is refused
// before any allocation, not trusted into a 4 GiB make().
func TestFrameOversizedLengthRejected(t *testing.T) {
	var hdr [frameHeader]byte
	binary.BigEndian.PutUint32(hdr[0:4], MaxFrame+1)
	_, err := ReadFrame(bytes.NewReader(hdr[:]))
	if err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("oversized frame: %v, want length-limit error", err)
	}
	if scanned, good := ScanFrames(hdr[:]); len(scanned) != 0 || good != 0 {
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

// FuzzFrameScanner throws arbitrary bytes at both frame readers. The
// invariants: neither panics nor allocates beyond MaxFrame, any frame
// the stream reader accepts re-encodes to exactly the bytes it consumed
// (so a read frame is always one Frame could have produced), and the
// buffer scanner accepts exactly the same frames.
func FuzzFrameScanner(f *testing.F) {
	f.Add(Frame([]byte(`{"type":"hello","schema":"prudentia.fleet/1","worker":"w1"}`)))
	f.Add(Frame(nil))
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 0xde, 0xad, 0xbe, 0xef, 'x'})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	two := append(Frame([]byte("first")), Frame([]byte("second"))...)
	f.Add(two)
	f.Fuzz(func(t *testing.T, data []byte) {
		scanned, good := ScanFrames(data)
		br := bufio.NewReader(bytes.NewReader(data))
		consumed := 0
		for i := 0; ; i++ {
			payload, err := ReadFrame(br)
			if err != nil {
				// Any malformed input must surface as an error, not a
				// panic — and at the same offset the scanner stopped.
				if i != len(scanned) || int64(consumed) != good {
					t.Fatalf("stream read %d frames (%d bytes), scanner %d (%d bytes)", i, consumed, len(scanned), good)
				}
				return
			}
			re := Frame(payload)
			if consumed+len(re) > len(data) || !bytes.Equal(re, data[consumed:consumed+len(re)]) {
				t.Fatalf("accepted frame does not re-encode to the consumed bytes at offset %d", consumed)
			}
			if i >= len(scanned) || !bytes.Equal(scanned[i], payload) {
				t.Fatalf("frame %d: scanner and stream reader disagree", i)
			}
			consumed += len(re)
		}
	})
}
