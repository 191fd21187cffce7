package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// solve factors a with partial pivoting and solves a*x = b.
func solve(a *Matrix, b []float64) ([]float64, error) {
	f, err := FactorLU(a)
	if err != nil {
		return nil, err
	}
	x := make([]float64, len(b))
	f.SolveTo(x, b)
	return x, nil
}

func TestLUSolveKnown(t *testing.T) {
	a := NewMatrixFrom([][]float64{
		{2, 1, 1},
		{4, -6, 0},
		{-2, 7, 2},
	})
	b := []float64{5, -2, 9}
	x, err := solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 1, 2}
	for i := range want {
		if !almostEq(x[i], want[i], 1e-12) {
			t.Fatalf("x = %v, want %v", x, want)
		}
	}
}

func TestLUSingular(t *testing.T) {
	a := NewMatrixFrom([][]float64{{1, 2}, {2, 4}})
	if _, err := FactorLU(a); err == nil {
		t.Fatal("expected ErrSingular")
	}
}

func TestLUNonSquare(t *testing.T) {
	a := NewMatrix(2, 3)
	if _, err := FactorLU(a); err == nil {
		t.Fatal("expected error for non-square matrix")
	}
}

func TestLUResidualProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(20)
		a := NewMatrix(n, n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		// Diagonal dominance guarantees nonsingularity.
		for i := 0; i < n; i++ {
			a.Add(i, i, float64(n)+1)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := solve(a, b)
		if err != nil {
			return false
		}
		r := a.MulVec(x)
		for i := range r {
			if math.Abs(r[i]-b[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestLUPivoting(t *testing.T) {
	// Zero leading pivot forces a row swap.
	a := NewMatrixFrom([][]float64{{0, 1}, {1, 0}})
	x, err := solve(a, []float64{3, 7})
	if err != nil {
		t.Fatal(err)
	}
	if x[0] != 7 || x[1] != 3 {
		t.Fatalf("x = %v, want [7 3]", x)
	}
}

func TestOrthonormalizeMGS(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := NewMatrix(10, 4)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	k := OrthonormalizeMGS(a, 1e-12)
	if k != 4 {
		t.Fatalf("kept %d columns, want 4", k)
	}
	for i := 0; i < k; i++ {
		for j := 0; j <= i; j++ {
			d := Dot(a.Col(i), a.Col(j))
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(d-want) > 1e-10 {
				t.Fatalf("q%d . q%d = %v, want %v", i, j, d, want)
			}
		}
	}
}

func TestOrthonormalizeDropsDependent(t *testing.T) {
	a := NewMatrix(5, 3)
	v := []float64{1, 2, 3, 4, 5}
	a.SetCol(0, v)
	a.SetCol(1, v) // duplicate column
	a.SetCol(2, []float64{1, 0, 0, 0, 0})
	k := OrthonormalizeMGS(a, 1e-10)
	if k != 2 {
		t.Fatalf("kept %d, want 2 (duplicate dropped)", k)
	}
	q := SubColumns(a, k)
	if q.Cols != 2 || q.Rows != 5 {
		t.Fatalf("SubColumns shape %dx%d", q.Rows, q.Cols)
	}
}
