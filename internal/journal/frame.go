package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// frameHeader is the per-frame overhead: 4-byte length + 4-byte CRC.
const frameHeader = 8

// MaxFrame bounds a single payload so a corrupt or hostile length
// prefix cannot demand an absurd allocation.
const MaxFrame = 16 << 20

// Frame encodes one payload as a length-prefixed CRC32 frame — the one
// container every prudentia log, wire protocol and sketch encoding
// shares.
func Frame(payload []byte) []byte {
	buf := make([]byte, frameHeader+len(payload))
	binary.BigEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))
	copy(buf[frameHeader:], payload)
	return buf
}

// ScanFrames walks a buffer frame by frame, returning the intact
// payloads (subslices of data) and the byte offset of the end of the
// last intact frame — the point recovery cuts a torn or corrupt tail
// back to.
func ScanFrames(data []byte) (payloads [][]byte, good int64) {
	off := 0
	for len(data)-off >= frameHeader {
		n := binary.BigEndian.Uint32(data[off:])
		if n > MaxFrame || int(n) > len(data)-off-frameHeader {
			break
		}
		end := off + frameHeader + int(n)
		payload := data[off+frameHeader : end]
		if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(data[off+4:]) {
			break
		}
		payloads = append(payloads, payload)
		off = end
	}
	return payloads, int64(off)
}

// ReadFrame reads and verifies one frame from a stream. Unlike
// ScanFrames — which treats a bad frame as a torn tail — a stream has
// no way to resynchronize after a framing error, so any violation is an
// error the caller must treat as fatal to the connection.
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [frameHeader]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[0:4])
	if n > MaxFrame {
		return nil, fmt.Errorf("journal: frame length %d exceeds limit %d", n, MaxFrame)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(hdr[4:8]) {
		return nil, errors.New("journal: frame checksum mismatch")
	}
	return payload, nil
}
