package stats

import (
	"testing"
	"testing/quick"

	"prudentia/internal/sim"
)

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{1, 3}, 2},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	}
	for _, c := range cases {
		if got := Median(c.in); got != c.want {
			t.Errorf("Median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	if got := Quantile(xs, 0); got != 10 {
		t.Errorf("q0 = %v", got)
	}
	if got := Quantile(xs, 1); got != 50 {
		t.Errorf("q1 = %v", got)
	}
	if got := Quantile(xs, 0.25); got != 20 {
		t.Errorf("q25 = %v", got)
	}
	if got := Quantile(xs, 0.5); got != 30 {
		t.Errorf("q50 = %v", got)
	}
	// Interpolation between order statistics.
	if got := Quantile([]float64{0, 10}, 0.75); got != 7.5 {
		t.Errorf("q75 of {0,10} = %v, want 7.5", got)
	}
}

func TestQuantileDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input mutated: %v", xs)
	}
}

func TestIQR(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if got := IQR(xs); got != 2 {
		t.Fatalf("IQR = %v, want 2", got)
	}
}

func TestMeanAndStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Fatalf("Mean = %v", got)
	}
	if Mean(nil) != 0 {
		t.Fatal("degenerate inputs")
	}
}

func TestMedianCIOrdering(t *testing.T) {
	if err := quick.Check(func(seed int64) bool {
		r := seed
		next := func() float64 {
			r = r*6364136223846793005 + 1442695040888963407
			return float64(uint64(r)>>11) / (1 << 53) * 100
		}
		n := int(uint64(seed)%40) + 1
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = next()
		}
		lo, hi := MedianCI(xs)
		m := Median(xs)
		return lo <= m && m <= hi
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMedianCITightensWithSamples(t *testing.T) {
	// Identical values: CI collapses to a point.
	xs := make([]float64, 20)
	for i := range xs {
		xs[i] = 7
	}
	lo, hi := MedianCI(xs)
	if lo != 7 || hi != 7 {
		t.Fatalf("CI of constant = [%v %v]", lo, hi)
	}
	if !sketchOf(xs).CIWithin(0.001) || !CIWithin(xs, 0.001) {
		t.Fatal("constant sample should satisfy any tolerance")
	}
}

func TestCIWithinStoppingRule(t *testing.T) {
	// A widely-dispersed small sample must fail a tight tolerance — this
	// is what forces the scheduler to escalate trials (§3.4).
	xs := []float64{1, 9, 2, 8, 3, 7, 4, 6, 5, 10}
	// Production reads the rule off a sketch; the slice oracle agrees.
	if sketchOf(xs).CIWithin(0.5) || CIWithin(xs, 0.5) {
		t.Fatal("dispersed sample should fail ±0.5 tolerance")
	}
	if !sketchOf(xs).CIWithin(10) || !CIWithin(xs, 10) {
		t.Fatal("any sample should pass a huge tolerance")
	}
	if sketchOf(nil).CIWithin(10) || CIWithin(nil, 10) {
		t.Fatal("empty sample cannot satisfy the rule")
	}
}

// The sim import keeps this test file aligned with the package's
// documented use (tolerances are Mbps values derived from sim settings).
var _ = sim.Second
