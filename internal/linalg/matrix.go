// Package linalg provides the linear-algebra kernel used by the circuit
// simulation engines: dense matrices, LU factorization with partial
// pivoting, a banded Cholesky for large RC systems, and modified
// Gram-Schmidt QR. Factor is the one rule that picks a factorization
// for the linear engines.
//
// Circuit matrices in this repository are small (tens to a few hundred
// nodes after reduction), so a cache-friendly dense row-major layout is
// both simpler and faster than a sparse representation.
package linalg

import (
	"fmt"
	"math"
	"strings"
)

// Matrix is a dense row-major matrix of float64.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols, Data[r*Cols+c]
}

// NewMatrix returns a zeroed rows x cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: invalid dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// Identity returns the n x n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// At returns element (r, c).
func (m *Matrix) At(r, c int) float64 { return m.Data[r*m.Cols+c] }

// Set assigns element (r, c).
func (m *Matrix) Set(r, c int, v float64) { m.Data[r*m.Cols+c] = v }

// Add accumulates v into element (r, c).
func (m *Matrix) Add(r, c int, v float64) { m.Data[r*m.Cols+c] += v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Zero resets every element to 0 in place.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Scale multiplies every element by s in place and returns m.
func (m *Matrix) Scale(s float64) *Matrix {
	for i := range m.Data {
		m.Data[i] *= s
	}
	return m
}

// AXPY performs m += s*o in place.
func (m *Matrix) AXPY(s float64, o *Matrix) {
	m.checkSameShape(o)
	for i := range m.Data {
		m.Data[i] += s * o.Data[i]
	}
}

func (m *Matrix) checkSameShape(o *Matrix) {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		panic(fmt.Sprintf("linalg: shape mismatch %dx%d vs %dx%d", m.Rows, m.Cols, o.Rows, o.Cols))
	}
}

// Mul returns the matrix product m*o.
func (m *Matrix) Mul(o *Matrix) *Matrix {
	if m.Cols != o.Rows {
		panic(fmt.Sprintf("linalg: mul shape mismatch %dx%d * %dx%d", m.Rows, m.Cols, o.Rows, o.Cols))
	}
	out := NewMatrix(m.Rows, o.Cols)
	for i := 0; i < m.Rows; i++ {
		mi := m.Data[i*m.Cols : (i+1)*m.Cols]
		oi := out.Data[i*out.Cols : (i+1)*out.Cols]
		for k, a := range mi {
			if a == 0 {
				continue
			}
			ok := o.Data[k*o.Cols : (k+1)*o.Cols]
			for j, b := range ok {
				oi[j] += a * b
			}
		}
	}
	return out
}

// MulVec returns the matrix-vector product m*x.
func (m *Matrix) MulVec(x []float64) []float64 {
	out := make([]float64, m.Rows)
	m.MulVecTo(out, x)
	return out
}

// MulVecTo computes dst = m*x without allocating. dst must not alias x.
//
//lint:hot
func (m *Matrix) MulVecTo(dst, x []float64) {
	if m.Cols != len(x) || m.Rows != len(dst) {
		panic(fmt.Sprintf("linalg: mulvec shape mismatch %dx%d * %d -> %d", m.Rows, m.Cols, len(x), len(dst)))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		s := 0.0
		for j, a := range row {
			s += a * x[j]
		}
		dst[i] = s
	}
}

// Transpose returns m^T.
func (m *Matrix) Transpose() *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

// Col returns a copy of column c.
func (m *Matrix) Col(c int) []float64 {
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		out[i] = m.At(i, c)
	}
	return out
}

// SetCol assigns column c from v.
func (m *Matrix) SetCol(c int, v []float64) {
	if len(v) != m.Rows {
		panic("linalg: SetCol length mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		m.Set(i, c, v[i])
	}
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	var b strings.Builder
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			fmt.Fprintf(&b, "% .6e ", m.At(i, j))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("linalg: dot length mismatch")
	}
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}
