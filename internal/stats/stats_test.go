package stats

import (
	"math"
	"testing"
)

func TestMeanMaxMin(t *testing.T) {
	xs := []float64{3, -1, 4, 1, 5}
	if Mean(xs) != 2.4 {
		t.Fatalf("mean = %v", Mean(xs))
	}
	if Max(xs) != 5 || Min(xs) != -1 {
		t.Fatalf("max/min = %v/%v", Max(xs), Min(xs))
	}
	if Mean(nil) != 0 {
		t.Fatal("empty mean should be 0")
	}
	if !math.IsInf(Max(nil), -1) || !math.IsInf(Min(nil), 1) {
		t.Fatal("empty max/min should be infinities")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {50, 3}, {100, 5}, {25, 2}, {75, 4}, {-5, 1}, {110, 5},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); got != c.want {
			t.Errorf("P%v = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Fatal("empty percentile should be NaN")
	}
	// Percentile must not reorder the caller's slice.
	ys := []float64{5, 1, 3}
	Percentile(ys, 50)
	if ys[0] != 5 {
		t.Fatal("input slice was mutated")
	}
}

func TestCompare(t *testing.T) {
	model := []float64{90e-12, 210e-12, 150e-12}
	ref := []float64{100e-12, 200e-12, 150e-12}
	s, err := Compare(model, ref, 1e-15)
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 3 {
		t.Fatalf("N = %d", s.N)
	}
	wantMeanAbs := (10e-12 + 10e-12 + 0) / 3
	if math.Abs(s.MeanAbsErr-wantMeanAbs) > 1e-18 {
		t.Fatalf("meanAbs = %v", s.MeanAbsErr)
	}
	if math.Abs(s.WorstAbsErr-10e-12) > 1e-20 {
		t.Fatalf("worstAbs = %v", s.WorstAbsErr)
	}
	if s.UnderestimateN != 1 || s.OverestimateN != 1 {
		t.Fatalf("under/over = %d/%d", s.UnderestimateN, s.OverestimateN)
	}
	if math.Abs(s.MeanRelErr-(0.1+0.05+0)/3) > 1e-12 {
		t.Fatalf("meanRel = %v", s.MeanRelErr)
	}
}

func TestCompareRelFloor(t *testing.T) {
	// Tiny references are excluded from relative stats.
	model := []float64{1e-15, 110e-12}
	ref := []float64{1e-18, 100e-12}
	s, err := Compare(model, ref, 1e-13)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.MeanRelErr-0.1) > 1e-12 {
		t.Fatalf("meanRel = %v (floor ignored?)", s.MeanRelErr)
	}
}

func TestCompareLengthMismatch(t *testing.T) {
	if _, err := Compare([]float64{1}, []float64{1, 2}, 0); err == nil {
		t.Fatal("expected length mismatch error")
	}
}

func TestSummaryString(t *testing.T) {
	s := ErrorSummary{N: 2, MeanAbsErr: 5e-12, WorstAbsErr: 8e-12, MeanRelErr: 0.07, WorstRelErr: 0.15}
	out := s.String()
	if out == "" {
		t.Fatal("empty string")
	}
}

func TestFloorRelErr(t *testing.T) {
	for _, tc := range []struct {
		model, ref, floor, want float64
	}{
		{110, 100, 5, 0.1},            // above the floor: plain relative error
		{-90, -100, 5, 0.1},           // sign-symmetric
		{3, 1, 5, 0.4},                // below the floor: |Δ| / floor
		{5e-12, 1e-15, 5e-12, 0.9998}, // near-zero reference stays bounded
		{0, 0, 0.01, 0},
	} {
		if got := FloorRelErr(tc.model, tc.ref, tc.floor); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("FloorRelErr(%v, %v, %v) = %v, want %v", tc.model, tc.ref, tc.floor, got, tc.want)
		}
	}
}
