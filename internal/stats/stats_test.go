package stats

import (
	"math"
	"testing"
)

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
