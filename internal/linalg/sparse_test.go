package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// randomSPDSparse builds a random diagonally dominant (hence SPD)
// symmetric sparse matrix resembling an RC conductance stamp.
func randomSPDSparse(rng *rand.Rand, n int) (*Sparse, *Matrix) {
	dense := NewMatrix(n, n)
	b := NewSparseBuilder(n)
	stamp := func(i, j int, g float64) {
		dense.Add(i, i, g)
		dense.Add(j, j, g)
		dense.Add(i, j, -g)
		dense.Add(j, i, -g)
		b.Add(i, i, g)
		b.Add(j, j, g)
		b.Add(i, j, -g)
		b.Add(j, i, -g)
	}
	for i := 0; i < n-1; i++ {
		stamp(i, i+1, 0.1+rng.Float64())
	}
	for k := 0; k < n; k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i != j {
			stamp(i, j, 0.1+rng.Float64())
		}
	}
	// Ground conductances make it strictly SPD.
	for i := 0; i < n; i++ {
		g := 0.05 + rng.Float64()
		dense.Add(i, i, g)
		b.Add(i, i, g)
	}
	return b.Build(), dense
}

func TestSparseBuildMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s, d := randomSPDSparse(rng, 20)
	if diff := maxAbsDiffDense(s, d); diff > 1e-12 {
		t.Fatalf("sparse/dense mismatch %v", diff)
	}
	if s.NNZ() == 0 || s.NNZ() > 20*20 {
		t.Fatalf("implausible nnz %d", s.NNZ())
	}
}

func TestSparseMulVec(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s, d := randomSPDSparse(rng, 15)
	x := make([]float64, 15)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	y := make([]float64, 15)
	s.MulVec(x, y)
	want := d.MulVec(x)
	for i := range y {
		if math.Abs(y[i]-want[i]) > 1e-12 {
			t.Fatalf("mulvec mismatch at %d: %v vs %v", i, y[i], want[i])
		}
	}
}

func TestSparseDuplicatesSum(t *testing.T) {
	b := NewSparseBuilder(2)
	b.Add(0, 0, 1)
	b.Add(0, 0, 2)
	b.Add(0, 1, -1)
	b.Add(1, 1, 5)
	s := b.Build()
	x := []float64{1, 1}
	y := make([]float64, 2)
	s.MulVec(x, y)
	if y[0] != 2 || y[1] != 5 {
		t.Fatalf("y = %v", y)
	}
}

func TestSparseAddPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSparseBuilder(2).Add(2, 0, 1)
}

func TestFromDense(t *testing.T) {
	d := NewMatrixFrom([][]float64{{2, -1}, {-1, 2}})
	s := FromDense(d)
	if s.NNZ() != 4 {
		t.Fatalf("nnz = %d", s.NNZ())
	}
	if maxAbsDiffDense(s, d) != 0 {
		t.Fatal("conversion mismatch")
	}
}

// maxAbsDiffDense returns the largest entry-wise difference between a
// sparse and a dense matrix.
func maxAbsDiffDense(s *Sparse, m *Matrix) float64 {
	max := 0.0
	for r := 0; r < s.N; r++ {
		for c := 0; c < s.N; c++ {
			v := 0.0
			for i := s.rowPtr[r]; i < s.rowPtr[r+1]; i++ {
				if s.colIdx[i] == c {
					v = s.values[i]
					break
				}
			}
			if d := math.Abs(v - m.At(r, c)); d > max {
				max = d
			}
		}
	}
	return max
}
