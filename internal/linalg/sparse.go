package linalg

import (
	"fmt"
	"sort"
)

// Sparse is a compressed-sparse-row matrix, built through a coordinate
// accumulator or from a dense matrix. The linear simulator applies its
// explicit trapezoidal matrix and its input matrix in this form every
// step, and Factor reorders and bands large systems through it (the
// paper's motivation: a single victim cluster can carry thousands of RC
// elements). N is the number of rows; only FromDense builds a
// rectangular one.
type Sparse struct {
	N      int
	cols   int
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

// MulVec computes y = A*x.
func (s *Sparse) MulVec(x, y []float64) {
	if len(x) != s.cols || len(y) != s.N {
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

// MulCols computes Y = A*X for k >= 1 columns stored interleaved, entry
// i of column j at i*k+j. Every column's row sum starts at +0 and adds
// the row's stored terms in column order, as MulVec's does, so each
// column gets MulVec's bits. A dense product over the same matrix gets
// them too when X is finite: its skipped 0*x terms are ±0, and adding
// ±0 leaves a sum that started at +0 unchanged, since such a sum is
// never -0.
//
//lint:hot
func (s *Sparse) MulCols(y, x []float64, k int) {
	if k == 1 {
		s.MulVec(x, y)
		return
	}
	if k < 1 || len(x) != s.cols*k || len(y) != s.N*k {
		panic(fmt.Sprintf("linalg: sparse product of %d columns: lengths x=%d y=%d, want %d and %d", k, len(x), len(y), s.cols*k, s.N*k))
	}
	for r := 0; r < s.N; r++ {
		vals := s.values[s.rowPtr[r]:s.rowPtr[r+1]]
		cols := s.colIdx[s.rowPtr[r]:s.rowPtr[r+1]]
		cols = cols[:len(vals)]
		for j := 0; j < k; j++ {
			sum := 0.0
			for i, v := range vals {
				sum += v * x[cols[i]*k+j]
			}
			y[r*k+j] = sum
		}
	}
}

// AddMulCols adds A*X to Y for k >= 1 interleaved columns, as MulCols
// lays them out. Each row's product is summed from +0 first, as MulCols
// sums it, and then added to Y; a row without stored entries leaves Y
// as it is, which is what adding its +0 product does to any Y entry but
// -0.
//
//lint:hot
func (s *Sparse) AddMulCols(y, x []float64, k int) {
	if k < 1 || len(x) != s.cols*k || len(y) != s.N*k {
		panic(fmt.Sprintf("linalg: sparse product of %d columns: lengths x=%d y=%d, want %d and %d", k, len(x), len(y), s.cols*k, s.N*k))
	}
	for r := 0; r < s.N; r++ {
		lo, hi := s.rowPtr[r], s.rowPtr[r+1]
		if lo == hi {
			continue
		}
		for j := 0; j < k; j++ {
			sum := 0.0
			for i := lo; i < hi; i++ {
				sum += s.values[i] * x[s.colIdx[i]*k+j]
			}
			y[r*k+j] += sum
		}
	}
}

// FromDense converts a dense matrix, square or not, dropping exact
// zeros. It sizes the row storage from a count of the nonzeros, so the
// conversion costs a fixed number of allocations.
func FromDense(m *Matrix) *Sparse {
	nnz := 0
	for _, v := range m.Data {
		if v != 0 {
			nnz++
		}
	}
	s := &Sparse{
		N:      m.Rows,
		cols:   m.Cols,
		rowPtr: make([]int, m.Rows+1),
		colIdx: make([]int, 0, nnz),
		values: make([]float64, 0, nnz),
	}
	for r := 0; r < m.Rows; r++ {
		for c, v := range m.Data[r*m.Cols : (r+1)*m.Cols] {
			if v != 0 {
				s.colIdx = append(s.colIdx, c)
				s.values = append(s.values, v)
			}
		}
		s.rowPtr[r+1] = len(s.values)
	}
	return s
}
