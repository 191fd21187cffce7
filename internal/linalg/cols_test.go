package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// interleave stores columns cols[j] as one block, entry i of column j
// at i*len(cols)+j.
func interleave(cols [][]float64) []float64 {
	r := len(cols)
	out := make([]float64, len(cols[0])*r)
	for j, c := range cols {
		for i, v := range c {
			out[i*r+j] = v
		}
	}
	return out
}

// column extracts column j of an interleaved block of r columns.
func column(x []float64, r, j int) []float64 {
	out := make([]float64, len(x)/r)
	for i := range out {
		out[i] = x[i*r+j]
	}
	return out
}

// sameBits reports whether two vectors agree in every bit.
func sameBits(a, b []float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return len(a) == len(b)
}

// randomColumns draws r vectors of length n with a share of exact
// zeros, as lsim's right-hand sides have.
func randomColumns(rng *rand.Rand, n, r int) [][]float64 {
	cols := make([][]float64, r)
	for j := range cols {
		cols[j] = make([]float64, n)
		for i := range cols[j] {
			if rng.Intn(4) > 0 {
				cols[j][i] = rng.NormFloat64() * math.Exp2(float64(rng.Intn(20)-10))
			}
		}
	}
	return cols
}

// TestSolveColsMatchesSolveTo holds every width of SolveColsTo, on both
// factor kinds, to SolveTo column by column, bit for bit.
func TestSolveColsMatchesSolveTo(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	_, ladder := ladderSPD(40)
	_, small := randomSPDSparse(rng, 20)
	for _, a := range []*Matrix{small, ladder} {
		f, err := Factor(a)
		if err != nil {
			t.Fatal(err)
		}
		n := a.Rows
		for r := 1; r <= 6; r++ {
			t.Run(fmt.Sprintf("%T/r=%d", f, r), func(t *testing.T) {
				cols := randomColumns(rng, n, r)
				got := make([]float64, n*r)
				f.SolveColsTo(got, interleave(cols), r)
				for j, b := range cols {
					want := make([]float64, n)
					f.SolveTo(want, b)
					if !sameBits(column(got, r, j), want) {
						t.Fatalf("column %d of %d differs from SolveTo", j, r)
					}
				}
			})
		}
	}
}

// TestMulColsMatchesMulVec holds every width of MulCols and AddMulCols
// on a rectangular matrix to MulVec column by column, bit for bit.
func TestMulColsMatchesMulVec(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	const rows, cols = 12, 5
	d := NewMatrix(rows, cols)
	for i := range d.Data {
		if rng.Intn(3) == 0 {
			d.Data[i] = rng.NormFloat64()
		}
	}
	// Row 3 holds no entries, like the row of a node without a driver.
	for c := 0; c < cols; c++ {
		d.Set(3, c, 0)
	}
	s := FromDense(d)
	for r := 1; r <= 6; r++ {
		x := randomColumns(rng, cols, r)
		y0 := randomColumns(rng, rows, r)
		prod := make([]float64, rows*r)
		s.MulCols(prod, interleave(x), r)
		sum := interleave(y0)
		s.AddMulCols(sum, interleave(x), r)
		for j := range x {
			want := make([]float64, rows)
			s.MulVec(x[j], want)
			if !sameBits(column(prod, r, j), want) {
				t.Fatalf("r=%d: MulCols column %d differs from MulVec", r, j)
			}
			for i := range want {
				want[i] += y0[j][i]
			}
			if !sameBits(column(sum, r, j), want) {
				t.Fatalf("r=%d: AddMulCols column %d differs from MulVec plus Y", r, j)
			}
		}
	}
}
