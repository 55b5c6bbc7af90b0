package stats

import (
	"bytes"
	"math"
	"testing"
)

// FuzzSketchCodec throws arbitrary bytes at DecodeSketch (the
// FuzzFrameScanner idiom from internal/journal). The invariants: the
// decoder never panics, never accepts a frame larger than
// sketchMaxEncoded, and any frame it does accept is canonical — it
// re-encodes to exactly the input bytes and answers every query without
// panicking. Canonicality is what makes encoded sketches comparable
// across runs and processes, so a decodable-but-not-re-encodable frame
// would be a real bug, not a fuzz artifact.
func FuzzSketchCodec(f *testing.F) {
	f.Add(NewSketch().Encode())
	small := NewSketch()
	for _, v := range []float64{3, 1, 2, -5, 0} {
		small.Add(v)
	}
	f.Add(small.Encode())
	big := NewSketch()
	for i := 0; i < 1000; i++ {
		big.Add(math.Exp(float64(i%40) - 20))
		big.Add(-float64(i))
	}
	f.Add(big.Encode())
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 0xde, 0xad, 0xbe, 0xef, 'x'})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	trunc := small.Encode()
	f.Add(trunc[:len(trunc)-2])
	flip := append([]byte(nil), trunc...)
	flip[len(flip)-1] ^= 0x40
	f.Add(flip)

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSketch(data)
		if err != nil {
			return // malformed input must surface as an error, never a panic
		}
		if !bytes.Equal(s.Encode(), data) {
			t.Fatalf("accepted frame is not canonical: re-encode differs")
		}
		// Queries on any accepted sketch must not panic. (Statistical
		// sanity — e.g. CI ordering — is only promised for frames the
		// encoder produced; the CRC guards transport corruption, and
		// canonicality above pins the codec itself.)
		_ = s.Median()
		_ = s.IQR()
		_, _ = s.MedianCI()
		_ = s.Quantile(0.123)
		n := 0
		s.Each(func(float64) { n++ })
		if n != s.Count() {
			t.Fatalf("Each visited %d of %d samples", n, s.Count())
		}
		// A decoded sketch must stay usable: merging it into a fresh
		// sketch keeps every sample and the canonical bytes.
		fresh := NewSketch()
		fresh.Merge(s)
		if !bytes.Equal(fresh.Encode(), data) {
			t.Fatalf("merge into an empty sketch changed the encoding")
		}
	})
}
