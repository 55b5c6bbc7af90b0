package stats

// Mergeable exact quantile summary. A Sketch is the multiset of the
// samples it was fed: one sorted buffer holding every sample, at any
// size. Every query runs the same R-7 / order-statistic code as
// Quantile and MedianCI, so its answers are bit-identical to those
// functions over the raw samples, and merging is a union, so the merge
// of any K shard sketches is byte-identical to the single sketch that
// saw the whole stream, regardless of K, of the split, and of the
// arrival order.
//
// Add appends in amortized O(1) and only notes when a sample arrived
// out of order; the first query or Encode after that sorts the buffer
// in place. A query may therefore write the sketch, which the type's
// contract (single-goroutine state, like the rest of this package)
// already covers.
//
// Encoding is one internal/journal frame whose payload is a canonical
// serialization of the sorted buffer. Encode is therefore
// byte-reproducible: equal multisets yield equal bytes. See
// docs/SKETCHES.md for the layout.

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"prudentia/internal/journal"
)

const (
	// sketchMagic stamps every encoded payload ("PSK1": Prudentia
	// SKetch, version 1).
	sketchMagic = "PSK1"

	// sketchRegimeExact tags the encoded state. It is the only regime
	// since the log-bucket one went; a frame carrying any other tag is
	// corrupt.
	sketchRegimeExact = 0

	// sketchAlpha is the relative error bound the log-bucket regime
	// once had. Its bits stay in the layout so that every sketch encodes
	// to the bytes it always did.
	sketchAlpha = 0.01

	// sketchMaxEncoded bounds DecodeSketch's accepted frame size,
	// mirroring the journal's maxRecord guard against corrupt lengths.
	sketchMaxEncoded = 1 << 20
)

// ErrSketchCorrupt reports a frame whose length, checksum, magic, or
// payload structure is invalid.
var ErrSketchCorrupt = errors.New("stats: corrupt sketch encoding")

// Sketch is a deterministic mergeable quantile summary that keeps every
// sample. The zero value is an empty sketch. Sketch is not safe for
// concurrent use, queries included: like the rest of this package it is
// single-goroutine state that the scheduler owns per pair.
type Sketch struct {
	// buf holds every sample; it is sorted unless unsorted is set.
	buf      []float64
	unsorted bool
}

// NewSketch returns an empty sketch.
func NewSketch() *Sketch { return &Sketch{} }

// Count returns the number of samples added so far.
func (s *Sketch) Count() int { return len(s.buf) }

// Add folds one sample into the sketch. NaN samples are ignored, ±Inf
// is clamped to ±MaxFloat64 and −0 is stored as +0, so every stored
// sample is finite and the sorted buffer, and its encoding, is a
// function of the multiset alone.
func (s *Sketch) Add(v float64) {
	switch {
	case math.IsNaN(v):
		return
	case math.IsInf(v, 1):
		v = math.MaxFloat64
	case math.IsInf(v, -1):
		v = -math.MaxFloat64
	case v == 0:
		v = 0
	}
	if n := len(s.buf); n > 0 && v < s.buf[n-1] {
		s.unsorted = true
	}
	s.buf = append(s.buf, v)
}

// sorted returns the buffer in ascending order, sorting it first if a
// sample arrived out of order since the last query.
func (s *Sketch) sorted() []float64 {
	if s.unsorted {
		slices.Sort(s.buf)
		s.unsorted = false
	}
	return s.buf
}

// Merge folds other into s: the union of the two multisets. Merging is
// commutative, associative, and shard-split invariant: for any
// partition of a sample stream into K shards, merging the K shard
// sketches yields a state (and therefore an encoding) identical to the
// single sketch that saw every sample. other is not modified.
func (s *Sketch) Merge(other *Sketch) {
	if other == nil || len(other.buf) == 0 {
		return
	}
	if n := len(s.buf); other.unsorted || (n > 0 && other.buf[0] < s.buf[n-1]) {
		s.unsorted = true
	}
	s.buf = append(s.buf, other.buf...)
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1), bit-identical to
// Quantile on the raw samples (R-7 rule). Empty sketches return 0,
// mirroring Quantile(nil).
func (s *Sketch) Quantile(q float64) float64 {
	if len(s.buf) == 0 {
		return 0
	}
	return quantileSorted(s.sorted(), q)
}

// Median returns the sketch median (Quantile 0.5).
func (s *Sketch) Median() float64 { return s.Quantile(0.5) }

// MedianCI returns the distribution-free ~95% confidence interval for
// the median, bit-identical to MedianCI on the raw samples.
func (s *Sketch) MedianCI() (lo, hi float64) {
	if len(s.buf) == 0 {
		return 0, 0
	}
	return medianCISorted(s.sorted())
}

// CIWithin reports whether the sketch's median CI spans at most
// ±tolerance around the median (the §3.4 stopping rule).
func (s *Sketch) CIWithin(tolerance float64) bool {
	if len(s.buf) == 0 {
		return false
	}
	lo, hi := s.MedianCI()
	m := s.Median()
	return m-lo <= tolerance && hi-m <= tolerance
}

// IQR returns the inter-quartile range (p75 − p25), Sketch's
// counterpart of IQR.
func (s *Sketch) IQR() float64 {
	return s.Quantile(0.75) - s.Quantile(0.25)
}

// Each visits every sample in ascending value order (never in the order
// they were added).
func (s *Sketch) Each(f func(v float64)) {
	for _, v := range s.sorted() {
		f(v)
	}
}

// Encoded-payload layout (all integers big-endian, floats as IEEE-754
// bits; see docs/SKETCHES.md):
//
//	magic   [4]byte "PSK1"
//	regime  uint8   0
//	alpha   float64 0.01
//	n       uint64
//	min,max float64 (present when n > 0)
//	buflen  uint32  (= n)
//	buf     [buflen]float64, ascending
//
// The payload travels in one journal.Frame.

// Encode serializes the sketch into a CRC-framed canonical binary
// form. Equal multisets produce equal bytes, so encoded sketches can be
// compared and merged without caring which worker (or how many)
// produced them.
func (s *Sketch) Encode() []byte {
	buf := s.sorted()
	payload := make([]byte, 0, 41+len(buf)*8)
	payload = append(payload, sketchMagic...)
	payload = append(payload, sketchRegimeExact)
	payload = binary.BigEndian.AppendUint64(payload, math.Float64bits(sketchAlpha))
	payload = binary.BigEndian.AppendUint64(payload, uint64(len(buf)))
	if len(buf) > 0 {
		payload = binary.BigEndian.AppendUint64(payload, math.Float64bits(buf[0]))
		payload = binary.BigEndian.AppendUint64(payload, math.Float64bits(buf[len(buf)-1]))
	}
	payload = binary.BigEndian.AppendUint32(payload, uint32(len(buf)))
	for _, v := range buf {
		payload = binary.BigEndian.AppendUint64(payload, math.Float64bits(v))
	}
	return journal.Frame(payload)
}

// DecodeSketch parses a frame produced by Encode and accepts nothing
// else: it folds the frame's samples into a fresh sketch with Add and
// requires that sketch to encode to exactly the input. So a torn or
// tampered frame, a wrong tag, count, min or max, an unsorted buffer
// and a sample Add would not store as given (NaN, ±Inf, −0) all fail
// with an ErrSketchCorrupt-wrapped error, and no frame can silently
// become a plausible sketch.
func DecodeSketch(data []byte) (*Sketch, error) {
	frames, good := journal.ScanFrames(data)
	if len(frames) != 1 || good != int64(len(data)) || len(frames[0]) > sketchMaxEncoded {
		return nil, fmt.Errorf("%w: %d bytes are not exactly one intact frame of at most %d payload bytes",
			ErrSketchCorrupt, len(data), sketchMaxEncoded)
	}
	b := frames[0]
	if len(b) < 21 {
		return nil, fmt.Errorf("%w: truncated header", ErrSketchCorrupt)
	}
	n := binary.BigEndian.Uint64(b[13:])
	if n > uint64(len(b))/8 {
		return nil, fmt.Errorf("%w: count %d exceeds the payload", ErrSketchCorrupt, n)
	}
	s := &Sketch{buf: make([]float64, 0, n)}
	for b = b[len(b)-8*int(n):]; len(b) > 0; b = b[8:] {
		s.Add(math.Float64frombits(binary.BigEndian.Uint64(b)))
	}
	if !bytes.Equal(s.Encode(), data) {
		return nil, fmt.Errorf("%w: not the canonical encoding of its %d samples", ErrSketchCorrupt, n)
	}
	return s, nil
}

// MarshalJSON encodes the sketch as a base64 string of its binary
// frame, so sketches ride unchanged through a cycle result's JSON.
func (s *Sketch) MarshalJSON() ([]byte, error) {
	enc := base64.StdEncoding.EncodeToString(s.Encode())
	return []byte(`"` + enc + `"`), nil
}

// UnmarshalJSON decodes the base64 binary frame produced by
// MarshalJSON.
func (s *Sketch) UnmarshalJSON(data []byte) error {
	if len(data) < 2 || data[0] != '"' || data[len(data)-1] != '"' {
		return fmt.Errorf("%w: sketch JSON must be a base64 string", ErrSketchCorrupt)
	}
	raw, err := base64.StdEncoding.DecodeString(string(data[1 : len(data)-1]))
	if err != nil {
		return fmt.Errorf("%w: %v", ErrSketchCorrupt, err)
	}
	dec, err := DecodeSketch(raw)
	if err != nil {
		return err
	}
	*s = *dec
	return nil
}
