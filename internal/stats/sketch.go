package stats

// Mergeable streaming quantile sketch. A Sketch summarizes an unbounded
// stream of float64 samples in O(1) space and answers quantile /
// median-CI queries without ever storing more than a bounded number of
// words, while remaining exactly mergeable: the merge of any K shard
// sketches is byte-identical to the single sketch that saw the whole
// stream, regardless of K, of the split, and of the arrival order.
//
// Design. The sketch is a hybrid of two regimes, both of which are pure
// functions of the sample *multiset* (never of arrival order):
//
//   - Exact regime (n ≤ SketchBufferCap): samples live in a sorted
//     buffer and every query runs the same R-7 / order-statistic code
//     as Quantile/MedianCI, so results are bit-identical to those
//     functions over the raw samples. Prudentia's per-pair trial
//     counts (tens) sit entirely inside this regime, so its verdict
//     matrix is that of raw-sample order statistics, byte for byte.
//
//   - Compacted regime (n > SketchBufferCap): the whole multiset is
//     folded into DDSketch-style logarithmic buckets — key(v) =
//     ⌈log_γ v⌉ with γ = (1+α)/(1−α) — guaranteeing relative quantile
//     error ≤ α. Buckets are kept as key-sorted slices, so state,
//     iteration, and encoding are all canonical.
//
// Because the state in either regime depends only on the multiset,
// Add is order-insensitive and Merge is commutative and associative by
// construction. Compaction happens exactly when n first exceeds the
// buffer cap and folds *all* samples into buckets (no recent-window
// buffer survives), so "one sketch that saw everything" and "merge of
// K shard sketches" land in identical states.
//
// Encoding is one internal/journal frame whose payload is a canonical
// serialization of the state (sorted buffer or key-ordered buckets).
// Encode is therefore byte-reproducible: equal states yield equal
// bytes. See docs/SKETCHES.md for the layout and error-bound math.

import (
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"

	"prudentia/internal/journal"
)

const (
	// SketchDefaultAlpha is the default relative quantile-error bound α
	// of the compacted regime: a reported q-quantile x̂ satisfies
	// |x̂ − x| ≤ α·|x| for the true q-quantile x. 1% keeps bucket
	// counts small while being far below any verdict tolerance.
	SketchDefaultAlpha = 0.01

	// SketchBufferCap is the exact-regime capacity: sketches holding at
	// most this many samples answer queries bit-identically to
	// Quantile/MedianCI over them. It deliberately exceeds the paper's
	// per-pair trial ceilings (MaxTrials 30/36) so seed-matrix verdicts
	// are reproduced exactly.
	SketchBufferCap = 128

	// sketchMaxBuckets caps the bucket count per sign as a hard memory
	// bound; beyond it the lowest-key buckets collapse together. With
	// α = 1% this spans ~10^17 of dynamic range per sign, so collapse
	// is a safety valve for adversarial streams, not a normal path.
	sketchMaxBuckets = 2048

	// sketchMinValue is the magnitude floor of the logarithmic buckets:
	// samples with |v| below it are counted as zeros. It bounds the key
	// range for tiny denormals.
	sketchMinValue = 1e-12

	// sketchMagic stamps every encoded payload ("PSK1": Prudentia
	// SKetch, version 1).
	sketchMagic = "PSK1"

	// sketchMaxEncoded bounds DecodeSketch's accepted frame size,
	// mirroring the journal's maxRecord guard against corrupt lengths.
	sketchMaxEncoded = 1 << 20
)

// Sketch state-regime tags used in the encoding.
const (
	sketchRegimeExact     = 0
	sketchRegimeCompacted = 1
)

// Errors returned by DecodeSketch and Merge.
var (
	// ErrSketchCorrupt reports a frame whose length, checksum, magic,
	// or payload structure is invalid.
	ErrSketchCorrupt = errors.New("stats: corrupt sketch encoding")
	// ErrSketchMismatch reports a merge between sketches built with
	// different α (incompatible bucket geometries).
	ErrSketchMismatch = errors.New("stats: cannot merge sketches with different alpha")
)

// bucket is one logarithmic bucket: count samples whose key(|v|)
// equals Key (positive and negative samples live in separate slices).
type bucket struct {
	Key   int32
	Count int64
}

// Sketch is a deterministic mergeable quantile summary. The zero value
// is not ready; use NewSketch. Sketch is not safe for concurrent use —
// like the rest of this package it is single-goroutine state that the
// scheduler owns per pair.
type Sketch struct {
	alpha   float64
	gamma   float64
	lnGamma float64

	n        int64
	min, max float64

	// Exact regime: sorted sample buffer. nil once compacted.
	buf       []float64
	compacted bool

	// Compacted regime: key-sorted buckets per sign plus a zero
	// counter (|v| < sketchMinValue).
	zero int64
	pos  []bucket
	neg  []bucket
}

// NewSketch returns an empty sketch with the default error bound α.
func NewSketch() *Sketch {
	return NewSketchAlpha(SketchDefaultAlpha)
}

// NewSketchAlpha returns an empty sketch with relative error bound
// alpha (0 < alpha < 1). All sketches that will ever be merged must
// share the same alpha.
func NewSketchAlpha(alpha float64) *Sketch {
	if !(alpha > 0 && alpha < 1) {
		alpha = SketchDefaultAlpha
	}
	gamma := (1 + alpha) / (1 - alpha)
	return &Sketch{
		alpha:   alpha,
		gamma:   gamma,
		lnGamma: math.Log(gamma),
		min:     math.Inf(1),
		max:     math.Inf(-1),
	}
}

// Alpha returns the sketch's relative quantile-error bound.
func (s *Sketch) Alpha() float64 { return s.alpha }

// Count returns the number of samples added so far.
func (s *Sketch) Count() int { return int(s.n) }

// Add folds one sample into the sketch. NaN samples are ignored and
// ±Inf is clamped to ±MaxFloat64, keeping the state finite so the
// logarithmic buckets stay well-defined; order statistics over the raw
// samples would be poisoned by non-finite input the same way.
func (s *Sketch) Add(v float64) {
	if math.IsNaN(v) {
		return
	}
	if math.IsInf(v, 1) {
		v = math.MaxFloat64
	} else if math.IsInf(v, -1) {
		v = -math.MaxFloat64
	}
	s.n++
	if v < s.min {
		s.min = v
	}
	if v > s.max {
		s.max = v
	}
	if !s.compacted {
		// Insert into the sorted buffer (≤ cap elements, so the
		// O(n) shift is trivially cheap and allocation-free once the
		// buffer reached capacity).
		i := sort.SearchFloat64s(s.buf, v)
		s.buf = append(s.buf, 0)
		copy(s.buf[i+1:], s.buf[i:])
		s.buf[i] = v
		if len(s.buf) > SketchBufferCap {
			s.compact()
		}
		return
	}
	s.addBucket(v, 1)
	s.collapse()
}

// compact folds the entire buffer into logarithmic buckets. Called
// exactly once, when n first exceeds SketchBufferCap, so the compacted
// state is a pure function of the full sample multiset.
func (s *Sketch) compact() {
	for _, v := range s.buf {
		s.addBucket(v, 1)
	}
	s.buf = nil
	s.compacted = true
	s.collapse()
}

// addBucket adds count samples of value v to the bucket state.
func (s *Sketch) addBucket(v float64, count int64) {
	mag := math.Abs(v)
	if mag < sketchMinValue {
		s.zero += count
		return
	}
	key := s.key(mag)
	if v > 0 {
		s.pos = bucketAdd(s.pos, key, count)
	} else {
		s.neg = bucketAdd(s.neg, key, count)
	}
}

// key maps a magnitude (≥ sketchMinValue) to its bucket index
// ⌈log_γ(mag)⌉, so bucket key k covers (γ^(k−1), γ^k].
func (s *Sketch) key(mag float64) int32 {
	return int32(math.Ceil(math.Log(mag) / s.lnGamma))
}

// value returns the canonical representative of bucket key k,
// 2γ^k/(γ+1), whose relative distance to any point of the bucket is at
// most α.
func (s *Sketch) value(key int32) float64 {
	return 2 * math.Pow(s.gamma, float64(key)) / (s.gamma + 1)
}

// bucketAdd inserts count into the key-sorted bucket slice.
func bucketAdd(bs []bucket, key int32, count int64) []bucket {
	i := sort.Search(len(bs), func(i int) bool { return bs[i].Key >= key })
	if i < len(bs) && bs[i].Key == key {
		bs[i].Count += count
		return bs
	}
	bs = append(bs, bucket{})
	copy(bs[i+1:], bs[i:])
	bs[i] = bucket{Key: key, Count: count}
	return bs
}

// collapse enforces the hard per-sign bucket cap by folding the
// lowest-key buckets together (the standard DDSketch safety valve:
// low quantiles lose precision first, extremes and medians keep
// theirs). Collapse is deterministic given the bucket histogram; it is
// only reachable on streams spanning more than ~10^17 of dynamic
// range, far outside any metric this repo produces.
func (s *Sketch) collapse() {
	s.pos = collapseLow(s.pos)
	s.neg = collapseLow(s.neg)
}

// collapseLow merges the lowest-key buckets until at most
// sketchMaxBuckets remain.
func collapseLow(bs []bucket) []bucket {
	if len(bs) <= sketchMaxBuckets {
		return bs
	}
	drop := len(bs) - sketchMaxBuckets
	var sum int64
	for i := 0; i <= drop; i++ {
		sum += bs[i].Count
	}
	bs = bs[drop:]
	bs[0].Count = sum
	return bs
}

// Merge folds other into s. Merging is commutative, associative, and
// shard-split invariant: for any partition of a sample stream into K
// shards, merging the K shard sketches yields a state (and therefore
// an encoding) identical to the single sketch that saw every sample.
// Merge fails only when the two sketches were built with different α.
// other is not modified.
func (s *Sketch) Merge(other *Sketch) error {
	if other == nil || other.n == 0 {
		return nil
	}
	if other.alpha != s.alpha {
		return fmt.Errorf("%w: %v vs %v", ErrSketchMismatch, s.alpha, other.alpha)
	}
	if other.min < s.min {
		s.min = other.min
	}
	if other.max > s.max {
		s.max = other.max
	}
	total := s.n + other.n
	if !s.compacted && !other.compacted && total <= SketchBufferCap {
		// Exact ∪ exact within cap: merge the sorted buffers so the
		// state stays the canonical sorted multiset.
		merged := make([]float64, 0, total)
		i, j := 0, 0
		for i < len(s.buf) && j < len(other.buf) {
			if s.buf[i] <= other.buf[j] {
				merged = append(merged, s.buf[i])
				i++
			} else {
				merged = append(merged, other.buf[j])
				j++
			}
		}
		merged = append(merged, s.buf[i:]...)
		merged = append(merged, other.buf[j:]...)
		s.buf = merged
		s.n = total
		return nil
	}
	// Any other combination lands in the compacted regime: fold both
	// sides' multisets into buckets and sum.
	if !s.compacted {
		s.compact()
	}
	s.n = total
	if other.compacted {
		s.zero += other.zero
		for _, b := range other.pos {
			s.pos = bucketAdd(s.pos, b.Key, b.Count)
		}
		for _, b := range other.neg {
			s.neg = bucketAdd(s.neg, b.Key, b.Count)
		}
	} else {
		for _, v := range other.buf {
			s.addBucket(v, 1)
		}
	}
	s.collapse()
	return nil
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1). In the exact regime it
// is bit-identical to Quantile on the raw samples (R-7 rule); in the
// compacted regime it returns a value within relative error α of the
// true quantile. Empty sketches return 0, mirroring Quantile(nil).
func (s *Sketch) Quantile(q float64) float64 {
	if s.n == 0 {
		return 0
	}
	if !s.compacted {
		return quantileSorted(s.buf, q)
	}
	if q <= 0 {
		return s.min
	}
	if q >= 1 {
		return s.max
	}
	// Nearest-rank on the bucket histogram. R-7 interpolation is
	// meaningless below bucket resolution, so the compacted regime
	// reads the order statistic at rank round(q·(n−1)).
	rank := int64(math.Round(q * float64(s.n-1)))
	return s.valueAtRank(rank)
}

// Median returns the sketch median (Quantile 0.5).
func (s *Sketch) Median() float64 { return s.Quantile(0.5) }

// MedianCI returns the distribution-free ~95% confidence interval for
// the median, using the same order-statistic ranks as MedianCI. Exact
// regime: bit-identical to MedianCI on the raw samples. Compacted
// regime: each bound is the bucket estimate of its order statistic
// (within relative error α).
func (s *Sketch) MedianCI() (lo, hi float64) {
	if s.n == 0 {
		return 0, 0
	}
	if !s.compacted {
		return medianCISorted(s.buf)
	}
	if s.n < 3 {
		return s.min, s.max
	}
	loIdx, hiIdx := medianCIRanks(int(s.n))
	return s.valueAtRank(int64(loIdx)), s.valueAtRank(int64(hiIdx))
}

// CIWithin reports whether the sketch's median CI spans at most
// ±tolerance around the median (the §3.4 stopping rule).
func (s *Sketch) CIWithin(tolerance float64) bool {
	if s.n == 0 {
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

// Each visits the sketch's contents in ascending value order: every
// retained sample individually in the exact regime, and each bucket's
// representative with its count in the compacted regime. Useful for
// replaying a sketch into downstream histograms or test oracles.
func (s *Sketch) Each(f func(v float64, count int64)) {
	if !s.compacted {
		for _, v := range s.buf {
			f(v, 1)
		}
		return
	}
	for i := len(s.neg) - 1; i >= 0; i-- {
		f(-s.value(s.neg[i].Key), s.neg[i].Count)
	}
	if s.zero > 0 {
		f(0, s.zero)
	}
	for _, b := range s.pos {
		f(s.value(b.Key), b.Count)
	}
}

// valueAtRank walks the compacted histogram in value order — negative
// buckets from most to least negative, zeros, then positive buckets —
// and returns the representative of the bucket containing the given
// 0-based rank. The exact min/max replace bucket estimates at the
// extreme ranks.
func (s *Sketch) valueAtRank(rank int64) float64 {
	if rank <= 0 {
		return s.min
	}
	if rank >= s.n-1 {
		return s.max
	}
	var cum int64
	for i := len(s.neg) - 1; i >= 0; i-- {
		cum += s.neg[i].Count
		if rank < cum {
			return -s.value(s.neg[i].Key)
		}
	}
	cum += s.zero
	if rank < cum {
		return 0
	}
	for _, b := range s.pos {
		cum += b.Count
		if rank < cum {
			return s.value(b.Key)
		}
	}
	return s.max
}

// Encoded-payload layout (all integers big-endian, floats as IEEE-754
// bits; see docs/SKETCHES.md):
//
//	magic   [4]byte "PSK1"
//	regime  uint8   0 exact | 1 compacted
//	alpha   float64
//	n       uint64
//	min,max float64 (present when n > 0)
//	exact:      buflen uint32, buf [buflen]float64 (sorted)
//	compacted:  zero uint64,
//	            npos uint32, (key int32, count uint64)... key-ascending
//	            nneg uint32, (key int32, count uint64)... key-ascending
//
// The payload travels in one journal.Frame.

// Encode serializes the sketch into a CRC-framed canonical binary
// form. Equal states produce equal bytes, so encoded sketches can be
// compared, deduplicated, and merged across fleet workers without
// caring which worker (or how many) produced them.
func (s *Sketch) Encode() []byte {
	payload := make([]byte, 0, 64+len(s.buf)*8+(len(s.pos)+len(s.neg))*12)
	payload = append(payload, sketchMagic...)
	if s.compacted {
		payload = append(payload, sketchRegimeCompacted)
	} else {
		payload = append(payload, sketchRegimeExact)
	}
	payload = be64(payload, math.Float64bits(s.alpha))
	payload = be64(payload, uint64(s.n))
	if s.n > 0 {
		payload = be64(payload, math.Float64bits(s.min))
		payload = be64(payload, math.Float64bits(s.max))
	}
	if !s.compacted {
		payload = be32(payload, uint32(len(s.buf)))
		for _, v := range s.buf {
			payload = be64(payload, math.Float64bits(v))
		}
	} else {
		payload = be64(payload, uint64(s.zero))
		payload = be32(payload, uint32(len(s.pos)))
		for _, b := range s.pos {
			payload = be32(payload, uint32(b.Key))
			payload = be64(payload, uint64(b.Count))
		}
		payload = be32(payload, uint32(len(s.neg)))
		for _, b := range s.neg {
			payload = be32(payload, uint32(b.Key))
			payload = be64(payload, uint64(b.Count))
		}
	}
	return journal.Frame(payload)
}

func be32(b []byte, v uint32) []byte {
	return append(b, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func be64(b []byte, v uint64) []byte {
	return append(b, byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// sketchReader walks an encoded payload with bounds checking.
type sketchReader struct {
	b  []byte
	ok bool
}

func (r *sketchReader) u8() byte {
	if len(r.b) < 1 {
		r.ok = false
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *sketchReader) u32() uint32 {
	if len(r.b) < 4 {
		r.ok = false
		return 0
	}
	v := binary.BigEndian.Uint32(r.b)
	r.b = r.b[4:]
	return v
}

func (r *sketchReader) u64() uint64 {
	if len(r.b) < 8 {
		r.ok = false
		return 0
	}
	v := binary.BigEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

// DecodeSketch parses a frame produced by Encode, verifying the
// length, checksum, magic, and structural invariants (sorted buffer,
// strictly ascending bucket keys, positive counts, consistent totals).
// It returns ErrSketchCorrupt-wrapped errors on any violation, so a
// torn or tampered frame can never silently become a plausible sketch.
func DecodeSketch(data []byte) (*Sketch, error) {
	frames, good := journal.ScanFrames(data)
	if len(frames) != 1 || good != int64(len(data)) || len(frames[0]) > sketchMaxEncoded {
		return nil, fmt.Errorf("%w: %d bytes are not exactly one intact frame of at most %d payload bytes",
			ErrSketchCorrupt, len(data), sketchMaxEncoded)
	}
	r := &sketchReader{b: frames[0], ok: true}
	if len(r.b) < 4 || string(r.b[:4]) != sketchMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrSketchCorrupt)
	}
	r.b = r.b[4:]
	regime := r.u8()
	alpha := math.Float64frombits(r.u64())
	if !r.ok || !(alpha > 0 && alpha < 1) {
		return nil, fmt.Errorf("%w: invalid alpha", ErrSketchCorrupt)
	}
	s := NewSketchAlpha(alpha)
	count := r.u64()
	if count > math.MaxInt64 {
		return nil, fmt.Errorf("%w: invalid count", ErrSketchCorrupt)
	}
	s.n = int64(count)
	if s.n > 0 {
		s.min = math.Float64frombits(r.u64())
		s.max = math.Float64frombits(r.u64())
		if !r.ok || math.IsNaN(s.min) || math.IsNaN(s.max) || s.min > s.max {
			return nil, fmt.Errorf("%w: invalid min/max", ErrSketchCorrupt)
		}
	}
	switch regime {
	case sketchRegimeExact:
		bl := r.u32()
		if !r.ok || int64(bl) != s.n || bl > SketchBufferCap {
			return nil, fmt.Errorf("%w: invalid buffer length", ErrSketchCorrupt)
		}
		s.buf = make([]float64, 0, bl)
		prev := math.Inf(-1)
		for i := uint32(0); i < bl; i++ {
			v := math.Float64frombits(r.u64())
			if math.IsNaN(v) || v < prev {
				return nil, fmt.Errorf("%w: buffer not sorted", ErrSketchCorrupt)
			}
			s.buf = append(s.buf, v)
			prev = v
		}
	case sketchRegimeCompacted:
		s.compacted = true
		zero := r.u64()
		if zero > math.MaxInt64 {
			return nil, fmt.Errorf("%w: invalid zero count", ErrSketchCorrupt)
		}
		s.zero = int64(zero)
		var total int64 = s.zero
		var err error
		if s.pos, total, err = decodeBuckets(r, total); err != nil {
			return nil, err
		}
		if s.neg, total, err = decodeBuckets(r, total); err != nil {
			return nil, err
		}
		if !r.ok || total != s.n {
			return nil, fmt.Errorf("%w: bucket totals disagree with count", ErrSketchCorrupt)
		}
	default:
		return nil, fmt.Errorf("%w: unknown regime %d", ErrSketchCorrupt, regime)
	}
	if !r.ok || len(r.b) != 0 {
		return nil, fmt.Errorf("%w: trailing or truncated payload", ErrSketchCorrupt)
	}
	return s, nil
}

// decodeBuckets reads one key-ascending bucket list, accumulating its
// counts into total.
func decodeBuckets(r *sketchReader, total int64) ([]bucket, int64, error) {
	n := r.u32()
	if !r.ok || n > sketchMaxBuckets {
		return nil, 0, fmt.Errorf("%w: invalid bucket count", ErrSketchCorrupt)
	}
	bs := make([]bucket, 0, n)
	prev := int64(math.MinInt64)
	for i := uint32(0); i < n; i++ {
		key := int32(r.u32())
		count := r.u64()
		if !r.ok || count == 0 || count > math.MaxInt64 || int64(key) <= prev {
			return nil, 0, fmt.Errorf("%w: invalid bucket", ErrSketchCorrupt)
		}
		bs = append(bs, bucket{Key: key, Count: int64(count)})
		prev = int64(key)
		total += int64(count)
		if total < 0 {
			return nil, 0, fmt.Errorf("%w: bucket totals overflow", ErrSketchCorrupt)
		}
	}
	return bs, total, nil
}

// MarshalJSON encodes the sketch as a base64 string of its binary
// frame, so sketches ride unchanged through checkpoint JSON and the
// fleet protocol's json.RawMessage outcomes.
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
