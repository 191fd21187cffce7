package linalg

import (
	"fmt"
	"sort"
)

// Sparse is a compressed-sparse-row matrix, built through a coordinate
// accumulator. The linear simulator applies its explicit trapezoidal
// matrix in this form every step, and Factor reorders and bands large
// systems through it (the paper's motivation: a single victim cluster
// can carry thousands of RC elements).
type Sparse struct {
	N      int
	rowPtr []int
	colIdx []int
	values []float64
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
	s := &Sparse{N: b.n, rowPtr: make([]int, b.n+1)}
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

// MulVec computes y = A*x.
func (s *Sparse) MulVec(x, y []float64) {
	if len(x) != s.N || len(y) != s.N {
		panic("linalg: sparse mulvec dimension mismatch")
	}
	for r := 0; r < s.N; r++ {
		sum := 0.0
		for i := s.rowPtr[r]; i < s.rowPtr[r+1]; i++ {
			sum += s.values[i] * x[s.colIdx[i]]
		}
		y[r] = sum
	}
}

// FromDense converts a dense matrix (dropping exact zeros).
func FromDense(m *Matrix) *Sparse {
	b := NewSparseBuilder(m.Rows)
	for r := 0; r < m.Rows; r++ {
		for c := 0; c < m.Cols; c++ {
			if v := m.At(r, c); v != 0 {
				b.Add(r, c, v)
			}
		}
	}
	return b.Build()
}
