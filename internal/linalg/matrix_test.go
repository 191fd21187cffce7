package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestNewMatrixFrom(t *testing.T) {
	m := NewMatrixFrom([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if m.Rows != 3 || m.Cols != 2 {
		t.Fatalf("shape = %dx%d, want 3x2", m.Rows, m.Cols)
	}
	if m.At(2, 1) != 6 || m.At(0, 0) != 1 {
		t.Fatalf("element mismatch: %v", m.Data)
	}
}

func TestNewMatrixFromRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on ragged rows")
		}
	}()
	NewMatrixFrom([][]float64{{1, 2}, {3}})
}

func TestIdentityMul(t *testing.T) {
	a := NewMatrixFrom([][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}})
	i := Identity(3)
	left := i.Mul(a)
	right := a.Mul(i)
	for k := range a.Data {
		if left.Data[k] != a.Data[k] || right.Data[k] != a.Data[k] {
			t.Fatalf("identity multiply changed matrix at %d", k)
		}
	}
}

func TestMulKnown(t *testing.T) {
	a := NewMatrixFrom([][]float64{{1, 2}, {3, 4}})
	b := NewMatrixFrom([][]float64{{5, 6}, {7, 8}})
	c := a.Mul(b)
	want := [][]float64{{19, 22}, {43, 50}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if c.At(i, j) != want[i][j] {
				t.Errorf("c[%d][%d] = %v, want %v", i, j, c.At(i, j), want[i][j])
			}
		}
	}
}

func TestMulVec(t *testing.T) {
	a := NewMatrixFrom([][]float64{{1, 2, 3}, {4, 5, 6}})
	y := a.MulVec([]float64{1, 0, -1})
	if y[0] != -2 || y[1] != -2 {
		t.Fatalf("y = %v, want [-2 -2]", y)
	}
}

func TestTranspose(t *testing.T) {
	a := NewMatrixFrom([][]float64{{1, 2, 3}, {4, 5, 6}})
	at := a.Transpose()
	if at.Rows != 3 || at.Cols != 2 {
		t.Fatalf("shape = %dx%d", at.Rows, at.Cols)
	}
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			if a.At(i, j) != at.At(j, i) {
				t.Fatalf("transpose mismatch at %d,%d", i, j)
			}
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, c := 1+rng.Intn(8), 1+rng.Intn(8)
		a := NewMatrix(r, c)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		b := a.Transpose().Transpose()
		for i := range a.Data {
			if a.Data[i] != b.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAXPY(t *testing.T) {
	a := NewMatrixFrom([][]float64{{1, 2}, {3, 4}})
	b := NewMatrixFrom([][]float64{{4, 3}, {2, 1}})
	c := a.Clone()
	c.AXPY(2, b)
	if c.At(0, 1) != 8 {
		t.Fatalf("axpy wrong: %v", c.Data)
	}
	// The clone's update leaves the original untouched.
	if a.At(0, 0) != 1 {
		t.Fatal("a was mutated")
	}
}

func TestColSetCol(t *testing.T) {
	a := NewMatrix(3, 2)
	a.SetCol(1, []float64{7, 8, 9})
	got := a.Col(1)
	if got[0] != 7 || got[2] != 9 {
		t.Fatalf("col = %v", got)
	}
	if a.At(0, 0) != 0 {
		t.Fatal("column 0 disturbed")
	}
}

func TestDotNormInf(t *testing.T) {
	if Dot([]float64{1, 2, 3}, []float64{4, 5, 6}) != 32 {
		t.Fatal("dot wrong")
	}
	if Norm2([]float64{3, 4}) != 5 {
		t.Fatal("norm2 wrong")
	}
	if NormInf([]float64{-7, 2, 5}) != 7 {
		t.Fatal("norminf wrong")
	}
}

func TestScaleZeroMaxAbs(t *testing.T) {
	a := NewMatrixFrom([][]float64{{1, -9}, {2, 3}})
	if a.MaxAbs() != 9 {
		t.Fatal("maxabs wrong")
	}
	a.Scale(2)
	if a.At(0, 1) != -18 {
		t.Fatal("scale wrong")
	}
	a.Zero()
	if a.MaxAbs() != 0 {
		t.Fatal("zero wrong")
	}
}

func TestMulAssociativityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		mk := func() *Matrix {
			m := NewMatrix(n, n)
			for i := range m.Data {
				m.Data[i] = rng.NormFloat64()
			}
			return m
		}
		a, b, c := mk(), mk(), mk()
		l := a.Mul(b).Mul(c)
		r := a.Mul(b.Mul(c))
		for i := range l.Data {
			if !almostEq(l.Data[i], r.Data[i], 1e-10) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
