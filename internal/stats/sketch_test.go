package stats

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"prudentia/internal/journal"
)

// sketchOf builds a sketch from the given samples.
func sketchOf(xs []float64) *Sketch {
	s := NewSketch()
	for _, x := range xs {
		s.Add(x)
	}
	return s
}

// genSamples draws n deterministic samples from a few adversarial
// shapes keyed by dist.
func genSamples(r *rand.Rand, dist string, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		switch dist {
		case "uniform":
			xs[i] = r.Float64() * 100
		case "lognormal": // heavy right tail over ~6 decades
			xs[i] = math.Exp(r.NormFloat64() * 4)
		case "mixed-sign":
			xs[i] = r.NormFloat64() * 50
		case "duplicates": // many ties
			xs[i] = float64(r.Intn(8)) * 12.5
		case "with-zeros":
			if r.Intn(4) == 0 {
				xs[i] = 0
			} else {
				xs[i] = r.Float64()*10 + 1
			}
		case "bimodal":
			if r.Intn(2) == 0 {
				xs[i] = 1 + r.Float64()
			} else {
				xs[i] = 1e6 + r.Float64()*1e5
			}
		default:
			panic("unknown dist " + dist)
		}
	}
	return xs
}

var sketchDists = []string{"uniform", "lognormal", "mixed-sign", "duplicates", "with-zeros", "bimodal"}

// mergedShards builds a sketch by splitting xs round-robin across k
// shard sketches and merging them, so the shards arrive unsorted.
func mergedShards(xs []float64, k int) *Sketch {
	shards := make([]*Sketch, k)
	for i := range shards {
		shards[i] = NewSketch()
	}
	for i, x := range xs {
		shards[i%k].Add(x)
	}
	merged := NewSketch()
	for _, sh := range shards {
		merged.Merge(sh)
	}
	return merged
}

// TestSketchExactRegimeBitIdentical: at every size, for a sketch that
// saw the samples and for the merge of shards that together hold them,
// every query must be bit-identical (==, not approximately equal) to
// the store-everything functions — the property that makes sketch-backed
// runs reproduce the exact verdict matrix byte for byte. Sizes past 128
// are where the sketch used to fold into 1%-error buckets.
func TestSketchExactRegimeBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, dist := range sketchDists {
		for _, n := range []int{1, 2, 3, 5, 30, 36, 127, 128, 129, 130, 1000, 4096} {
			xs := genSamples(r, dist, n)
			for name, s := range map[string]*Sketch{"added": sketchOf(xs), "merged": mergedShards(xs, 3)} {
				if s.Count() != n {
					t.Fatalf("%s %s n=%d: Count %d", dist, name, n, s.Count())
				}
				for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.75, 0.95, 1} {
					if got, want := s.Quantile(q), Quantile(xs, q); got != want {
						t.Fatalf("%s %s n=%d q=%g: sketch %v != exact %v", dist, name, n, q, got, want)
					}
				}
				glo, ghi := s.MedianCI()
				wlo, whi := MedianCI(xs)
				if glo != wlo || ghi != whi {
					t.Fatalf("%s %s n=%d: MedianCI (%v,%v) != (%v,%v)", dist, name, n, glo, ghi, wlo, whi)
				}
				if got, want := s.IQR(), IQR(xs); got != want {
					t.Fatalf("%s %s n=%d: IQR %v != %v", dist, name, n, got, want)
				}
				for _, tol := range []float64{0.01, 1, 100} {
					if got, want := s.CIWithin(tol), CIWithin(xs, tol); got != want {
						t.Fatalf("%s %s n=%d tol=%g: CIWithin %v != %v", dist, name, n, tol, got, want)
					}
				}
			}
		}
	}
}

// TestSketchEdgeCases: empty, single, pair, all-equal, NaN, and ±Inf
// inputs for the sketch and the slice paths it mirrors.
func TestSketchEdgeCases(t *testing.T) {
	s := NewSketch()
	if s.Count() != 0 || s.Median() != 0 || s.Quantile(0.9) != 0 {
		t.Fatal("empty sketch must answer 0 like Quantile(nil)")
	}
	if lo, hi := s.MedianCI(); lo != 0 || hi != 0 {
		t.Fatalf("empty MedianCI = (%v,%v)", lo, hi)
	}
	if s.CIWithin(1e9) {
		t.Fatal("empty sketch cannot satisfy any tolerance")
	}
	if s.Quantile(0) != 0 || s.Quantile(1) != 0 {
		t.Fatal("empty extremes must be 0")
	}

	s.Add(math.NaN())
	if s.Count() != 0 {
		t.Fatal("NaN must be ignored, not counted")
	}

	s.Add(42)
	if s.Median() != 42 || s.Quantile(0) != 42 || s.Quantile(1) != 42 {
		t.Fatalf("n=1: median %v min %v max %v", s.Median(), s.Quantile(0), s.Quantile(1))
	}
	if lo, hi := s.MedianCI(); lo != 42 || hi != 42 {
		t.Fatalf("n=1 MedianCI = (%v,%v)", lo, hi)
	}

	s.Add(44)
	if s.Median() != 43 {
		t.Fatalf("n=2 median = %v, want interpolated 43", s.Median())
	}
	if lo, hi := s.MedianCI(); lo != 42 || hi != 44 {
		t.Fatalf("n=2 MedianCI = (%v,%v), want sample range", lo, hi)
	}

	inf := NewSketch()
	inf.Add(math.Inf(1))
	inf.Add(math.Inf(-1))
	if inf.Quantile(1) != math.MaxFloat64 || inf.Quantile(0) != -math.MaxFloat64 {
		t.Fatalf("±Inf must clamp to ±MaxFloat64, got [%v, %v]", inf.Quantile(0), inf.Quantile(1))
	}

	// −0 is stored as +0, so the order of a signed-zero pair cannot
	// reach the encoding.
	negFirst, posFirst := sketchOf([]float64{math.Copysign(0, -1), 0}), sketchOf([]float64{0, math.Copysign(0, -1)})
	if !bytes.Equal(negFirst.Encode(), posFirst.Encode()) || math.Signbit(negFirst.Quantile(0)) {
		t.Fatal("−0 must be stored as +0")
	}

	eq := NewSketch()
	for i := 0; i < 500; i++ {
		eq.Add(7.5)
	}
	if lo, hi := eq.MedianCI(); eq.Median() != 7.5 || lo != 7.5 || hi != 7.5 {
		t.Fatalf("all-equal: median %v, MedianCI (%v,%v)", eq.Median(), lo, hi)
	}
}

// TestMedianCIEdgeCases pins the slice-path degenerate behaviour the
// sequential stopper depends on: n<3 degrades to the sample range, so
// two disagreeing trials can never look converged.
func TestMedianCIEdgeCases(t *testing.T) {
	if lo, hi := MedianCI(nil); lo != 0 || hi != 0 {
		t.Fatalf("MedianCI(nil) = (%v,%v)", lo, hi)
	}
	if lo, hi := MedianCI([]float64{5}); lo != 5 || hi != 5 {
		t.Fatalf("MedianCI(n=1) = (%v,%v)", lo, hi)
	}
	if lo, hi := MedianCI([]float64{9, 1}); lo != 1 || hi != 9 {
		t.Fatalf("MedianCI(n=2) = (%v,%v), want full range", lo, hi)
	}
	all := make([]float64, 11)
	for i := range all {
		all[i] = 3.25
	}
	if lo, hi := MedianCI(all); lo != 3.25 || hi != 3.25 {
		t.Fatalf("MedianCI(all-equal) = (%v,%v)", lo, hi)
	}
	ranks := make([]float64, 200)
	for i := range ranks {
		ranks[i] = float64(i)
	}
	for n := 3; n < len(ranks); n++ {
		if lo, hi := medianCISorted(ranks[:n]); lo > hi || lo >= float64(n)/2 || hi < float64(n-1)/2 {
			t.Fatalf("n=%d: CI ranks (%v,%v) do not bracket the median", n, lo, hi)
		}
	}
}

// TestSketchAddOrderInsensitive: any permutation of the same multiset
// produces a byte-identical encoding, also when a query sorts the
// buffer halfway through the stream.
func TestSketchAddOrderInsensitive(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, n := range []int{10, 128, 1000} {
		xs := genSamples(r, "lognormal", n)
		a := sketchOf(xs)
		perm := r.Perm(len(xs))
		b := NewSketch()
		for k, i := range perm {
			if k == n/2 {
				_ = b.Median()
			}
			b.Add(xs[i])
		}
		if !bytes.Equal(a.Encode(), b.Encode()) {
			t.Fatalf("n=%d: permuted insertion changed the encoding", n)
		}
	}
}

// TestSketchMergeProperties: commutativity and associativity, verified
// on the encoded bytes (state equality, not approximate equality).
func TestSketchMergeProperties(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, n := range []int{20, 300} {
		xa := genSamples(r, "uniform", n)
		xb := genSamples(r, "lognormal", n/2)
		xc := genSamples(r, "mixed-sign", n*2)

		ab := sketchOf(xa)
		ab.Merge(sketchOf(xb))
		ba := sketchOf(xb)
		ba.Merge(sketchOf(xa))
		if !bytes.Equal(ab.Encode(), ba.Encode()) {
			t.Fatalf("n=%d: merge is not commutative", n)
		}

		abc1 := sketchOf(xa)
		abc1.Merge(sketchOf(xb))
		abc1.Merge(sketchOf(xc))
		bc := sketchOf(xb)
		bc.Merge(sketchOf(xc))
		abc2 := sketchOf(xa)
		abc2.Merge(bc)
		if !bytes.Equal(abc1.Encode(), abc2.Encode()) {
			t.Fatalf("n=%d: merge is not associative", n)
		}
	}
}

// TestSketchShardSplitInvariance: splitting one stream across K shard
// sketches and merging them yields byte-identical state to the single
// sketch that saw everything — for any K and both split geometries.
// This is the property the canonical-order merge of pairs relies on.
func TestSketchShardSplitInvariance(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for _, dist := range sketchDists {
		for _, n := range []int{60, 5000} {
			xs := genSamples(r, dist, n)
			want := sketchOf(xs).Encode()
			for _, k := range []int{1, 2, 3, 5, 7, 16} {
				for _, split := range []string{"round-robin", "contiguous"} {
					shards := make([]*Sketch, k)
					for i := range shards {
						shards[i] = NewSketch()
					}
					for i, x := range xs {
						var w int
						if split == "round-robin" {
							w = i % k
						} else {
							w = i * k / len(xs)
						}
						shards[w].Add(x)
					}
					merged := NewSketch()
					for _, sh := range shards {
						merged.Merge(sh)
					}
					if !bytes.Equal(merged.Encode(), want) {
						t.Fatalf("%s n=%d K=%d %s: merged shards != whole-stream sketch",
							dist, n, k, split)
					}
				}
			}
		}
	}
}

// TestSketchMergeEmptyAndNil: merging nil or empty sketches is a no-op.
func TestSketchMergeEmptyAndNil(t *testing.T) {
	s := sketchOf([]float64{1, 2, 3})
	before := s.Encode()
	s.Merge(nil)
	s.Merge(NewSketch())
	if !bytes.Equal(s.Encode(), before) {
		t.Fatal("merging nil/empty changed the state")
	}
	e := NewSketch()
	e.Merge(s)
	if !bytes.Equal(e.Encode(), before) {
		t.Fatal("empty ∪ s != s")
	}
}

// TestSketchFormatPinned pins the PSK1 encoding: an exact sketch,
// hex-dumped from an earlier commit's Encode, must be what the same
// samples encode to today, and must decode and re-encode to the
// identical bytes. A frame of the log-bucket regime that encoding once
// also had (200 samples, dumped the same way) must be refused.
func TestSketchFormatPinned(t *testing.T) {
	exact := sketchOf([]float64{3, 1, 2, -5, 0})
	want, err := hex.DecodeString("0000005145bb17ac50534b31003f847ae147ae147b0000000000000005c014000000000000400800000000000000000005" +
		"c01400000000000000000000000000003ff000000000000040000000000000004008000000000000")
	if err != nil {
		t.Fatal(err)
	}
	if got := exact.Encode(); !bytes.Equal(got, want) {
		t.Errorf("Encode drifted from the pinned bytes:\n got %x\nwant %x", got, want)
	}
	dec, err := DecodeSketch(want)
	if err != nil {
		t.Fatalf("pinned bytes no longer decode: %v", err)
	}
	if dec.Count() != exact.Count() || !bytes.Equal(dec.Encode(), want) {
		t.Error("decode → encode is not the identity on the pinned bytes")
	}

	compacted, err := hex.DecodeString("00000089833e610350534b31013f847ae147ae147b00000000000000c8c004000000000000400c0000000000000000" +
		"00000000000000000004ffffffde000000000000001d00000015000000000000001c0000002e000000000000001c0000003f00000000" +
		"0000001c00000003ffffffde000000000000001d00000015000000000000001d0000002e000000000000001d")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeSketch(compacted); !errors.Is(err, ErrSketchCorrupt) {
		t.Fatalf("log-bucket frame: %v, want ErrSketchCorrupt", err)
	}
}

// TestSketchEncodeDecodeRoundTrip: decode(encode(s)) reproduces both
// the bytes and every query answer, at sizes past 128 too.
func TestSketchEncodeDecodeRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for _, n := range []int{0, 1, 2, 100, 4000} {
		xs := genSamples(r, "mixed-sign", n)
		s := sketchOf(xs)
		enc := s.Encode()
		d, err := DecodeSketch(enc)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !bytes.Equal(d.Encode(), enc) {
			t.Fatalf("n=%d: re-encode differs", n)
		}
		if d.Count() != s.Count() || d.Median() != s.Median() || d.IQR() != s.IQR() {
			t.Fatalf("n=%d: decoded queries differ", n)
		}
	}
}

// TestSketchDecodeRejectsCorrupt: torn, tampered, and hostile frames
// surface ErrSketchCorrupt instead of plausible sketches or panics.
func TestSketchDecodeRejectsCorrupt(t *testing.T) {
	good := sketchOf([]float64{1, 2, 3, 4, 5}).Encode()
	cases := map[string][]byte{
		"empty":           {},
		"short frame":     good[:6],
		"truncated":       good[:len(good)-3],
		"trailing":        append(append([]byte(nil), good...), 0xff),
		"length mismatch": append([]byte{0xff}, good[1:]...),
	}
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-1] ^= 0x01
	cases["bit flip"] = flipped
	magic := append([]byte(nil), good...)
	magic[8] = 'X' // first payload byte
	cases["bad magic"] = magic
	// Intact frames whose payload is not one Encode writes. The
	// payload of five samples: magic 0-3, regime 4, alpha 5, n 13,
	// min 21, max 29, buflen 37, samples from 41.
	reframe := func(edit func(p []byte)) []byte {
		p := append([]byte(nil), good[8:]...)
		edit(p)
		return journal.Frame(p)
	}
	put := func(off int, v float64) func([]byte) {
		return func(p []byte) { binary.BigEndian.PutUint64(p[off:], math.Float64bits(v)) }
	}
	cases["regime 1"] = reframe(func(p []byte) { p[4] = 1 })
	cases["alpha 0.02"] = reframe(put(5, 0.02))
	cases["count beyond buffer"] = reframe(func(p []byte) { binary.BigEndian.PutUint64(p[13:], 6) })
	cases["count beyond payload"] = reframe(func(p []byte) { binary.BigEndian.PutUint64(p[13:], 1<<40) })
	cases["min not first sample"] = reframe(put(21, 0))
	cases["max not last sample"] = reframe(put(29, 9))
	cases["unsorted buffer"] = reframe(put(41+8, 0.5))
	cases["infinite sample"] = reframe(func(p []byte) { put(29, math.Inf(1))(p); put(41+32, math.Inf(1))(p) })
	cases["NaN sample"] = reframe(put(41+32, math.NaN()))
	cases["negative zero"] = reframe(func(p []byte) {
		put(21, math.Copysign(0, -1))(p)
		put(41, math.Copysign(0, -1))(p)
	})
	cases["truncated header"] = journal.Frame(good[8:20])
	for name, data := range cases {
		if _, err := DecodeSketch(data); !errors.Is(err, ErrSketchCorrupt) {
			t.Errorf("%s: %v, want ErrSketchCorrupt", name, err)
		}
	}
}

// TestSketchJSONRoundTrip: the base64 JSON form survives a full
// marshal/unmarshal cycle with byte-identical state — the property the
// cycle result's JSON depends on.
func TestSketchJSONRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for _, n := range []int{3, 1000} {
		s := sketchOf(genSamples(r, "uniform", n))
		blob, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		var d Sketch
		if err := json.Unmarshal(blob, &d); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(d.Encode(), s.Encode()) {
			t.Fatalf("n=%d: JSON round trip changed the state", n)
		}
	}
	var d Sketch
	if err := json.Unmarshal([]byte(`123`), &d); err == nil {
		t.Fatal("non-string sketch JSON accepted")
	}
}

// TestEvaluateSketchMatchesEvaluate: at every prefix of a random share
// series, the sketch-backed stopper (with its caller-maintained verdict
// ring) must reach the identical decision to the slice-backed stopper —
// the equivalence that keeps adaptive sketch runs byte-identical.
func TestEvaluateSketchMatchesEvaluate(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	pols := []SequentialPolicy{
		{MinTrials: 2, MaxTrials: 30, MaxCIWidth: 10, StableK: 3, FairSharePct: 80},
		{MinTrials: 1, MaxTrials: 12, MaxCIWidth: 2, StableK: 5, FairSharePct: 80},
		{MinTrials: 3, MaxTrials: 40, StableK: 2, FairSharePct: 95},
		{MinTrials: 2, MaxTrials: 8, MaxCIWidth: 25, StableK: 1, FairSharePct: 80},
	}
	for pi, pol := range pols {
		for trial := 0; trial < 50; trial++ {
			n := r.Intn(40) + 1
			s0, s1 := make([]float64, 0, n), make([]float64, 0, n)
			sk0, sk1 := NewSketch(), NewSketch()
			var ring []bool
			for i := 0; i < n; i++ {
				// Mix fair and unfair stretches so verdicts flip.
				base := 70 + 40*math.Sin(float64(i)/3+float64(trial))
				v0 := base + r.Float64()*10
				v1 := 160 - base + r.Float64()*10
				s0, s1 = append(s0, v0), append(s1, v1)
				sk0.Add(v0)
				sk1.Add(v1)
				want := pol.Evaluate(s0, s1)
				got := pol.EvaluateSketch(sk0, sk1, ring)
				if got != want {
					t.Fatalf("policy %d prefix %d: sketch %+v != slice %+v", pi, i+1, got, want)
				}
				// Maintain the ring exactly as the pair protocol does.
				if pol.StableK > 1 {
					ring = append(ring, got.Fair)
					if len(ring) > pol.StableK-1 {
						ring = ring[1:]
					}
				}
				if want.Stop {
					break
				}
			}
		}
	}
}

// TestSketchEachRoundTrip: Each visits every sample exactly once, in
// ascending order, also past 128 samples and after unsorted Adds.
func TestSketchEachRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	for _, n := range []int{3, 2000} {
		xs := genSamples(r, "mixed-sign", n)
		var got []float64
		sketchOf(xs).Each(func(v float64) { got = append(got, v) })
		slices.Sort(xs)
		if !slices.Equal(got, xs) {
			t.Fatalf("n=%d: Each visited %d values, not the %d samples sorted", n, len(got), n)
		}
	}
}
