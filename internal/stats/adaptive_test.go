package stats

import "testing"

// repeat builds a share series of n copies of v.
func repeat(v float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// evaluateSeries drives the production stopper over a share series the
// way core's pair protocol does — one EvaluateSketch per counted trial,
// the verdict ring carried between calls — and returns the decision on
// the whole series.
func evaluateSeries(p SequentialPolicy, s0, s1 []float64) StopDecision {
	sk0, sk1 := NewSketch(), NewSketch()
	d := p.EvaluateSketch(sk0, sk1, nil)
	var ring []bool
	for i := range s0 {
		sk0.Add(s0[i])
		sk1.Add(s1[i])
		d = p.EvaluateSketch(sk0, sk1, ring)
		if p.StableK > 1 {
			ring = append(ring, d.Fair)
			if len(ring) > p.StableK-1 {
				ring = ring[1:]
			}
		}
	}
	return d
}

// TestSequentialPolicyTable pins the stopping rules on the production
// stopper and on the slice oracle alike.
func TestSequentialPolicyTable(t *testing.T) {
	base := SequentialPolicy{
		MinTrials:    2,
		MaxTrials:    10,
		MaxCIWidth:   5,
		StableK:      3,
		FairSharePct: 80,
	}
	noCI := base
	noCI.MaxCIWidth = 0

	cases := []struct {
		name       string
		pol        SequentialPolicy
		s0, s1     []float64
		wantStop   bool
		wantReason string
	}{
		{
			name: "empty series never stops",
			pol:  base, s0: nil, s1: nil,
			wantStop: false,
		},
		{
			name: "converges early on tight CI",
			pol:  base,
			s0:   []float64{95, 96}, s1: []float64{94, 95},
			wantStop: true, wantReason: StopCIWidth,
		},
		{
			name: "two disagreeing trials keep going",
			pol:  base,
			s0:   []float64{95, 40}, s1: []float64{40, 95},
			wantStop: false,
		},
		{
			name: "never stops below min trials",
			pol: SequentialPolicy{MinTrials: 4, MaxTrials: 10,
				MaxCIWidth: 5, FairSharePct: 80},
			s0: []float64{95, 95, 95}, s1: []float64{95, 95, 95},
			wantStop: false,
		},
		{
			name: "stops the moment min trials is reached",
			pol: SequentialPolicy{MinTrials: 4, MaxTrials: 10,
				MaxCIWidth: 5, FairSharePct: 80},
			s0: []float64{95, 95, 95, 95}, s1: []float64{95, 95, 95, 95},
			wantStop: true, wantReason: StopCIWidth,
		},
		{
			name: "verdict stable for K trials",
			pol:  noCI,
			s0:   repeat(100, 3), s1: []float64{85, 90, 90},
			wantStop: true, wantReason: StopStable,
		},
		{
			name: "verdict flip restarts the stability counter",
			pol:  noCI,
			// prefix verdicts: n=2 unfair (median 77.5), n=3..4 fair —
			// the flip at n=2 stays inside the K=3 window until n=5.
			s0: repeat(100, 4), s1: []float64{85, 70, 90, 90},
			wantStop: false,
		},
		{
			name: "stability recovers once the flip ages out",
			pol:  noCI,
			s0:   repeat(100, 5), s1: []float64{85, 70, 90, 90, 90},
			wantStop: true, wantReason: StopStable,
		},
		{
			name: "budget exhaustion stops unconverged pairs",
			pol: SequentialPolicy{MinTrials: 2, MaxTrials: 4,
				MaxCIWidth: 1, FairSharePct: 80},
			s0: []float64{95, 40, 95, 40}, s1: []float64{40, 95, 40, 95},
			wantStop: true, wantReason: StopBudget,
		},
		{
			name: "min trials clamps to a smaller budget",
			pol: SequentialPolicy{MinTrials: 5, MaxTrials: 3,
				MaxCIWidth: 1, FairSharePct: 80},
			s0: []float64{95, 40, 95}, s1: []float64{40, 95, 40},
			wantStop: true, wantReason: StopBudget,
		},
		{
			name: "no ceiling means no budget stop",
			pol: SequentialPolicy{MinTrials: 2, MaxTrials: 0,
				MaxCIWidth: 1, FairSharePct: 80},
			s0: []float64{95, 40, 95, 40}, s1: []float64{40, 95, 40, 95},
			wantStop: false,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := evaluateSeries(tc.pol, tc.s0, tc.s1)
			if d.Stop != tc.wantStop || d.Reason != tc.wantReason {
				t.Fatalf("EvaluateSketch = stop=%v reason=%q, want stop=%v reason=%q (ciWidth=%.2f fair=%v)",
					d.Stop, d.Reason, tc.wantStop, tc.wantReason, d.CIWidth, d.Fair)
			}
			if o := tc.pol.Evaluate(tc.s0, tc.s1); o != d {
				t.Fatalf("oracle Evaluate = %+v, EvaluateSketch = %+v", o, d)
			}
			// Purity: re-evaluating the same prefix must reproduce the
			// decision.
			if d2 := evaluateSeries(tc.pol, tc.s0, tc.s1); d != d2 {
				t.Fatalf("EvaluateSketch is not deterministic: %+v then %+v", d, d2)
			}
		})
	}
}

func TestCIWidth(t *testing.T) {
	for _, tc := range []struct {
		name string
		xs   []float64
		want float64
	}{
		{"nil", nil, 0},
		{"single", []float64{50}, 0},
		{"two: n < 3 degrades to the sample range", []float64{40, 50}, 10},
		{"constant", repeat(75, 20), 0},
	} {
		if w := sketchCIWidth(sketchOf(tc.xs)); w != tc.want {
			t.Fatalf("sketchCIWidth(%s) = %v, want %v", tc.name, w, tc.want)
		}
		if w := CIWidth(tc.xs); w != tc.want {
			t.Fatalf("oracle CIWidth(%s) = %v, want %v", tc.name, w, tc.want)
		}
	}
}

func TestScreenScore(t *testing.T) {
	// The losing slot drives the score; distance is symmetric around
	// the fairness boundary.
	if s := ScreenScore(100, 80, 80); s != 0 {
		t.Fatalf("boundary pair scored %v, want 0 (most contested)", s)
	}
	if s := ScreenScore(100, 30, 80); s != 50 {
		t.Fatalf("clearly unfair pair scored %v, want 50", s)
	}
	if s := ScreenScore(95, 100, 80); s != 15 {
		t.Fatalf("clearly fair pair scored %v, want 15", s)
	}
}
