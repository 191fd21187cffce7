package linalg

import (
	"math"
	"math/rand"
	"testing"
)

func allFinite(xs []float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// FuzzCompactSolve checks the compacted LU solve against LU.SolveTo bit
// for bit. Each input seeds a random n×n system (n ≤ 40) with a given
// share of exact zeros and a dominant diagonal, then swaps some rows so
// partial pivoting has to swap them back. Right-hand sides are finite
// with exact (+0) zeros, like every lsim right-hand side; systems whose
// factors or solution are not finite are skipped.
func FuzzCompactSolve(f *testing.F) {
	f.Add(uint64(1), uint8(13), uint8(70), uint8(3))
	f.Add(uint64(2), uint8(39), uint8(90), uint8(12))
	f.Add(uint64(3), uint8(0), uint8(0), uint8(0))
	f.Add(uint64(4), uint8(25), uint8(40), uint8(25))
	f.Add(uint64(5), uint8(7), uint8(100), uint8(7))
	f.Fuzz(func(t *testing.T, seed uint64, size, zeroPct, swaps uint8) {
		n := 1 + int(size)%40
		zeros := int(zeroPct) % 101
		rng := rand.New(rand.NewSource(int64(seed)))
		a := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if rng.Intn(100) >= zeros {
					a.Data[i*n+j] = rng.NormFloat64()
				}
			}
			a.Data[i*n+i] += float64(n) + 1
		}
		for k := 0; k < int(swaps)%(n+1); k++ {
			p, q := rng.Intn(n), rng.Intn(n)
			for j := 0; j < n; j++ {
				a.Data[p*n+j], a.Data[q*n+j] = a.Data[q*n+j], a.Data[p*n+j]
			}
		}
		lu, err := FactorLU(a)
		if err != nil || !allFinite(lu.lu.Data) {
			return
		}
		b := make([]float64, n)
		for i := range b {
			if rng.Intn(100) >= zeros {
				b[i] = rng.NormFloat64() * math.Exp2(float64(rng.Intn(40)-20))
			}
		}
		want := make([]float64, n)
		lu.SolveTo(want, b)
		if !allFinite(want) {
			return
		}
		got := make([]float64, n)
		lu.Compact().SolveTo(got, b)
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("n=%d: x[%d] = %v, dense solve gives %v", n, i, got[i], want[i])
			}
		}
	})
}

// TestCompactSolveSwapsPivots pins the seed corpus to systems that
// exercise pivoting: a row-swapped seed must produce a nontrivial
// permutation, so the fuzz target's comparisons cover swapped rows.
func TestCompactSolveSwapsPivots(t *testing.T) {
	a := NewMatrixFrom([][]float64{
		{0, 0, 2},
		{3, 0, 0},
		{0, 4, 1},
	})
	lu, err := FactorLU(a)
	if err != nil {
		t.Fatal(err)
	}
	swapped := false
	for i, p := range lu.Piv {
		swapped = swapped || p != i
	}
	if !swapped {
		t.Fatal("fixture factors without a pivot swap")
	}
	b := []float64{2, 3, 5}
	want, got := make([]float64, 3), make([]float64, 3)
	lu.SolveTo(want, b)
	lu.Compact().SolveTo(got, b)
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("x = %v, dense solve gives %v", got, want)
		}
	}
}
