package stats

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
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

// TestSketchExactRegimeBitIdentical: while n ≤ SketchBufferCap every
// query must be bit-identical (==, not approximately equal) to the
// store-everything functions — the property that makes sketch-backed
// seed-matrix runs reproduce the exact verdict matrix byte for byte.
func TestSketchExactRegimeBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, dist := range sketchDists {
		for _, n := range []int{1, 2, 3, 5, 30, 36, 127, SketchBufferCap} {
			xs := genSamples(r, dist, n)
			s := sketchOf(xs)
			if !s.Exact() {
				t.Fatalf("%s n=%d: sketch left exact regime below cap", dist, n)
			}
			for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.75, 0.95, 1} {
				if got, want := s.Quantile(q), Quantile(xs, q); got != want {
					t.Fatalf("%s n=%d q=%g: sketch %v != exact %v", dist, n, q, got, want)
				}
			}
			glo, ghi := s.MedianCI()
			wlo, whi := MedianCI(xs)
			if glo != wlo || ghi != whi {
				t.Fatalf("%s n=%d: MedianCI (%v,%v) != (%v,%v)", dist, n, glo, ghi, wlo, whi)
			}
			if got, want := s.IQR(), IQR(xs); got != want {
				t.Fatalf("%s n=%d: IQR %v != %v", dist, n, got, want)
			}
			for _, tol := range []float64{0.01, 1, 100} {
				if got, want := s.CIWithin(tol), CIWithin(xs, tol); got != want {
					t.Fatalf("%s n=%d tol=%g: CIWithin %v != %v", dist, n, tol, got, want)
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
	if s.Min() != 0 || s.Max() != 0 {
		t.Fatal("empty Min/Max must be 0")
	}

	s.Add(math.NaN())
	if s.Count() != 0 {
		t.Fatal("NaN must be ignored, not counted")
	}

	s.Add(42)
	if s.Median() != 42 || s.Min() != 42 || s.Max() != 42 {
		t.Fatalf("n=1: median %v min %v max %v", s.Median(), s.Min(), s.Max())
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
	if inf.Max() != math.MaxFloat64 || inf.Min() != -math.MaxFloat64 {
		t.Fatalf("±Inf must clamp to ±MaxFloat64, got [%v, %v]", inf.Min(), inf.Max())
	}

	eq := NewSketch()
	for i := 0; i < 500; i++ { // past the cap: compacted all-equal
		eq.Add(7.5)
	}
	if eq.Exact() {
		t.Fatal("500 samples must compact")
	}
	if m := eq.Median(); math.Abs(m-7.5) > 7.5*SketchDefaultAlpha {
		t.Fatalf("all-equal compacted median %v strays beyond α", m)
	}
	if lo, hi := eq.MedianCI(); lo > hi {
		t.Fatalf("MedianCI inverted: (%v,%v)", lo, hi)
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
	for n := 3; n < 200; n++ {
		lo, hi := medianCIRanks(n)
		if lo < 0 || hi > n-1 || lo > hi {
			t.Fatalf("medianCIRanks(%d) = (%d,%d) out of bounds", n, lo, hi)
		}
	}
}

// TestSketchCompactedErrorBound: past the buffer cap, every reported
// quantile must be within relative error α of the true order statistic
// at the same rank — the DDSketch guarantee, on adversarial shapes.
func TestSketchCompactedErrorBound(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	const n = 10_000
	for _, dist := range sketchDists {
		xs := genSamples(r, dist, n)
		s := sketchOf(xs)
		if s.Exact() {
			t.Fatalf("%s: n=%d did not compact", dist, n)
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		// Compare against the order statistic at the same rank the
		// sketch reads, so rank rounding is not charged against α.
		for _, q := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
			rank := int(math.Round(q * float64(n-1)))
			want := sorted[rank]
			got := s.Quantile(q)
			tol := SketchDefaultAlpha*math.Abs(want) + 1e-9
			if math.Abs(got-want) > tol {
				t.Errorf("%s q=%g: sketch %v vs true %v (err %.4g > α bound %.4g)",
					dist, q, got, want, math.Abs(got-want), tol)
			}
		}
		if s.Quantile(0) != s.Min() || s.Quantile(1) != s.Max() {
			t.Errorf("%s: extreme quantiles must return exact min/max", dist)
		}
	}
}

// TestSketchAddOrderInsensitive: any permutation of the same multiset
// produces a byte-identical encoding, in both regimes.
func TestSketchAddOrderInsensitive(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, n := range []int{10, SketchBufferCap, 1000} {
		xs := genSamples(r, "lognormal", n)
		a := sketchOf(xs)
		perm := r.Perm(len(xs))
		b := NewSketch()
		for _, i := range perm {
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
	for _, n := range []int{20, 300} { // both regimes
		xa := genSamples(r, "uniform", n)
		xb := genSamples(r, "lognormal", n/2)
		xc := genSamples(r, "mixed-sign", n*2)

		ab := sketchOf(xa)
		if err := ab.Merge(sketchOf(xb)); err != nil {
			t.Fatal(err)
		}
		ba := sketchOf(xb)
		if err := ba.Merge(sketchOf(xa)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ab.Encode(), ba.Encode()) {
			t.Fatalf("n=%d: merge is not commutative", n)
		}

		abc1 := sketchOf(xa)
		mustMerge(t, abc1, sketchOf(xb))
		mustMerge(t, abc1, sketchOf(xc))
		bc := sketchOf(xb)
		mustMerge(t, bc, sketchOf(xc))
		abc2 := sketchOf(xa)
		mustMerge(t, abc2, bc)
		if !bytes.Equal(abc1.Encode(), abc2.Encode()) {
			t.Fatalf("n=%d: merge is not associative", n)
		}
	}
}

func mustMerge(t *testing.T, dst, src *Sketch) {
	t.Helper()
	if err := dst.Merge(src); err != nil {
		t.Fatal(err)
	}
}

// TestSketchShardSplitInvariance: splitting one stream across K shard
// sketches and merging them yields byte-identical state to the single
// sketch that saw everything — for any K and both split geometries.
// This is the exact property the fleet coordinator relies on.
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
						mustMerge(t, merged, sh)
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
	mustMerge(t, s, nil)
	mustMerge(t, s, NewSketch())
	if !bytes.Equal(s.Encode(), before) {
		t.Fatal("merging nil/empty changed the state")
	}
	e := NewSketch()
	mustMerge(t, e, s)
	if !bytes.Equal(e.Encode(), before) {
		t.Fatal("empty ∪ s != s")
	}
}

// TestSketchMergeAlphaMismatch: incompatible bucket geometries refuse
// to merge instead of silently corrupting quantiles.
func TestSketchMergeAlphaMismatch(t *testing.T) {
	a := NewSketchAlpha(0.01)
	b := NewSketchAlpha(0.02)
	b.Add(1)
	if err := a.Merge(b); !errors.Is(err, ErrSketchMismatch) {
		t.Fatalf("alpha mismatch merge: %v, want ErrSketchMismatch", err)
	}
}

// TestSketchFormatPinned pins the PSK1 encoding: one exact-regime and
// one compacted sketch, hex-dumped from the parent commit's Encode,
// must be what the same samples encode to today, and must decode and
// re-encode to the identical bytes.
func TestSketchFormatPinned(t *testing.T) {
	exact := sketchOf([]float64{3, 1, 2, -5, 0})
	compacted := NewSketch()
	for i := 0; i < 200; i++ {
		compacted.Add(float64(i%7) - 2.5)
	}
	for name, tc := range map[string]struct {
		s       *Sketch
		fixture string
	}{
		"exact": {exact, "0000005145bb17ac50534b31003f847ae147ae147b0000000000000005c014000000000000400800000000000000000005" +
			"c01400000000000000000000000000003ff000000000000040000000000000004008000000000000"},
		"compacted": {compacted, "00000089833e610350534b31013f847ae147ae147b00000000000000c8c004000000000000400c0000000000000000" +
			"00000000000000000004ffffffde000000000000001d00000015000000000000001c0000002e000000000000001c0000003f00000000" +
			"0000001c00000003ffffffde000000000000001d00000015000000000000001d0000002e000000000000001d"},
	} {
		want, err := hex.DecodeString(tc.fixture)
		if err != nil {
			t.Fatal(err)
		}
		if got := tc.s.Encode(); !bytes.Equal(got, want) {
			t.Errorf("%s: Encode drifted from the pinned bytes:\n got %x\nwant %x", name, got, want)
		}
		dec, err := DecodeSketch(want)
		if err != nil {
			t.Fatalf("%s: pinned bytes no longer decode: %v", name, err)
		}
		if dec.Count() != tc.s.Count() || !bytes.Equal(dec.Encode(), want) {
			t.Errorf("%s: decode → encode is not the identity on the pinned bytes", name)
		}
	}
}

// TestSketchEncodeDecodeRoundTrip: decode(encode(s)) reproduces both
// the bytes and every query answer, in both regimes.
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
	for name, data := range cases {
		if _, err := DecodeSketch(data); !errors.Is(err, ErrSketchCorrupt) {
			t.Errorf("%s: %v, want ErrSketchCorrupt", name, err)
		}
	}
}

// TestSketchJSONRoundTrip: the base64 JSON form survives a full
// marshal/unmarshal cycle with byte-identical state — the property the
// checkpoint and fleet wire formats depend on.
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

// TestSketchEachRoundTrip: Each replays exact samples verbatim and
// compacted contents in ascending order with the right total count.
func TestSketchEachRoundTrip(t *testing.T) {
	xs := []float64{3, 1, 2}
	var got []float64
	sketchOf(xs).Each(func(v float64, c int64) {
		for i := int64(0); i < c; i++ {
			got = append(got, v)
		}
	})
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("exact Each = %v", got)
	}

	r := rand.New(rand.NewSource(29))
	big := sketchOf(genSamples(r, "mixed-sign", 2000))
	var total int64
	prev := math.Inf(-1)
	big.Each(func(v float64, c int64) {
		if v < prev {
			t.Fatalf("Each not ascending: %v after %v", v, prev)
		}
		prev = v
		total += c
	})
	if total != 2000 {
		t.Fatalf("Each total = %d, want 2000", total)
	}
}
