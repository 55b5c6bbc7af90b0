package journal

import (
	"encoding/binary"
	"hash/crc32"
)

// frameHeader is the per-frame overhead: 4-byte length + 4-byte CRC.
const frameHeader = 8

// MaxFrame bounds a single payload so a corrupt or hostile length
// prefix cannot demand an absurd allocation.
const MaxFrame = 16 << 20

// Frame encodes one payload as a length-prefixed CRC32 frame — the one
// container the trial journal and the submission WAL share.
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
