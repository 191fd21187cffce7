package linalg

import (
	"fmt"
	"math"
	"sort"
)

// Test-only constructors and norms: the tests build their matrices
// from literal rows and coordinate triplets, and measure results with
// max-abs norms, which no solver path needs.

// NewMatrixFrom builds a matrix from a slice of rows. All rows must have
// equal length.
func NewMatrixFrom(rows [][]float64) *Matrix {
	r := len(rows)
	if r == 0 {
		return NewMatrix(0, 0)
	}
	c := len(rows[0])
	m := NewMatrix(r, c)
	for i, row := range rows {
		if len(row) != c {
			panic("linalg: ragged rows")
		}
		copy(m.Data[i*c:(i+1)*c], row)
	}
	return m
}

// MaxAbs returns the largest absolute element value.
func (m *Matrix) MaxAbs() float64 {
	max := 0.0
	for _, v := range m.Data {
		if a := math.Abs(v); a > max {
			max = a
		}
	}
	return max
}

// NormInf returns the maximum absolute element of v.
func NormInf(v []float64) float64 {
	max := 0.0
	for _, x := range v {
		if a := math.Abs(x); a > max {
			max = a
		}
	}
	return max
}

// SparseBuilder accumulates coordinate triplets; duplicates sum.
type SparseBuilder struct {
	n    int
	rows [][]coo
}

type coo struct {
	col int
	val float64
}

// NewSparseBuilder prepares an n x n accumulation.
func NewSparseBuilder(n int) *SparseBuilder {
	return &SparseBuilder{n: n, rows: make([][]coo, n)}
}

// Add accumulates v at (r, c).
func (b *SparseBuilder) Add(r, c int, v float64) {
	if r < 0 || r >= b.n || c < 0 || c >= b.n {
		panic(fmt.Sprintf("linalg: sparse add (%d, %d) outside %d", r, c, b.n))
	}
	b.rows[r] = append(b.rows[r], coo{col: c, val: v})
}

// Build compacts the accumulator into CSR form.
func (b *SparseBuilder) Build() *Sparse {
	s := &Sparse{N: b.n, cols: b.n, rowPtr: make([]int, b.n+1)}
	for r := range b.rows {
		row := b.rows[r]
		sort.Slice(row, func(i, j int) bool { return row[i].col < row[j].col })
		for i := 0; i < len(row); {
			c := row[i].col
			v := 0.0
			for ; i < len(row) && row[i].col == c; i++ {
				v += row[i].val
			}
			if v == 0 && c != r {
				continue
			}
			s.colIdx = append(s.colIdx, c)
			s.values = append(s.values, v)
		}
		s.rowPtr[r+1] = len(s.values)
	}
	return s
}

// NNZ returns the number of stored entries.
func (s *Sparse) NNZ() int { return len(s.values) }
