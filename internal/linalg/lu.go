package linalg

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/noiseerr"
)

// ErrSingular is returned when a factorization encounters a pivot that is
// numerically zero.
var ErrSingular = errors.New("linalg: matrix is singular to working precision")

// LU is an LU factorization with partial pivoting: P*A = L*U, stored
// packed (L unit-lower, U upper) with the row permutation in Piv.
type LU struct {
	lu  *Matrix
	Piv []int
	n   int
}

// FactorLU computes the LU factorization of the square matrix a.
// a is not modified.
func FactorLU(a *Matrix) (*LU, error) {
	if a.Rows != a.Cols {
		return nil, noiseerr.Invalidf("linalg: LU of non-square %dx%d matrix", a.Rows, a.Cols)
	}
	f := NewLUWorkspace(a.Rows)
	if err := f.Refactor(a); err != nil {
		return nil, err
	}
	return f, nil
}

// NewLUWorkspace returns an empty LU sized for n x n systems. The
// workspace is invalid until a successful Refactor; it exists so tight
// simulation loops can factor repeatedly without allocating.
func NewLUWorkspace(n int) *LU {
	return &LU{lu: NewMatrix(n, n), Piv: make([]int, n), n: n}
}

// Refactor recomputes the factorization from a, reusing the receiver's
// storage (no allocation). a must match the workspace dimension and is
// not modified. On error the workspace contents are undefined and the
// factorization must not be used until a later Refactor succeeds.
func (f *LU) Refactor(a *Matrix) error {
	if a.Rows != a.Cols || a.Rows != f.n {
		return noiseerr.Invalidf("linalg: refactor of %dx%d matrix in %d-dim LU workspace", a.Rows, a.Cols, f.n)
	}
	n := f.n
	lu := f.lu
	copy(lu.Data, a.Data)
	piv := f.Piv
	for i := range piv {
		piv[i] = i
	}
	d := lu.Data
	for k := 0; k < n; k++ {
		// Partial pivoting: find the row with the largest magnitude in
		// column k at or below the diagonal.
		p := k
		max := math.Abs(d[k*n+k])
		for i := k + 1; i < n; i++ {
			if a := math.Abs(d[i*n+k]); a > max {
				max, p = a, i
			}
		}
		if max == 0 {
			return ErrSingular
		}
		if p != k {
			rowK := d[k*n : (k+1)*n]
			rowP := d[p*n : (p+1)*n]
			for j := range rowK {
				rowK[j], rowP[j] = rowP[j], rowK[j]
			}
			piv[k], piv[p] = piv[p], piv[k]
		}
		pivot := d[k*n+k]
		for i := k + 1; i < n; i++ {
			m := d[i*n+k] / pivot
			d[i*n+k] = m
			if m == 0 {
				continue
			}
			rowI := d[i*n+k+1 : (i+1)*n]
			rowK := d[k*n+k+1 : (k+1)*n]
			for j := range rowK {
				rowI[j] -= m * rowK[j]
			}
		}
	}
	return nil
}

// Solve solves A*x = b for a single right-hand side. b is not modified.
func (f *LU) Solve(b []float64) []float64 {
	x := make([]float64, f.n)
	f.SolveTo(x, b)
	return x
}

// SolveTo solves A*x = b into dst without allocating. dst must not
// alias b: the pivot permutation reads b while writing dst.
//
//lint:hot
func (f *LU) SolveTo(dst, b []float64) {
	if len(b) != f.n || len(dst) != f.n {
		panic(fmt.Sprintf("linalg: LU solve lengths dst=%d b=%d, want %d", len(dst), len(b), f.n))
	}
	if f.n > 0 && &dst[0] == &b[0] {
		panic("linalg: LU SolveTo dst must not alias b")
	}
	for i, p := range f.Piv {
		dst[i] = b[p]
	}
	f.SolveInPlace(dst)
}

// SolveInPlace solves A*x = b where b is already permuted by Piv and is
// overwritten with the solution. Most callers want Solve; this entry point
// avoids allocation in tight simulation loops where the caller applies the
// permutation itself.
//
//lint:hot
func (f *LU) SolveInPlace(x []float64) {
	n := f.n
	d := f.lu.Data
	// Forward substitution with unit-lower L.
	for i := 1; i < n; i++ {
		s := x[i]
		row := d[i*n : i*n+i]
		for j, m := range row {
			s -= m * x[j]
		}
		x[i] = s
	}
	// Back substitution with U.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		row := d[i*n+i+1 : (i+1)*n]
		for j, u := range row {
			s -= u * x[i+1+j]
		}
		x[i] = s / d[i*n+i]
	}
}

// CompactLU is a read-only copy of an LU factorization that keeps only
// the entries a solve can use: each row's nonzero columns of L and of U
// in ascending order, plus the diagonal of U. Its solve performs the
// dense SolveTo's operations in the same order and skips only the terms
// whose coefficient is exactly zero, so for finite right-hand sides
// without -0 entries it returns the same bits (see SolveTo).
type CompactLU struct {
	n    int
	piv  []int
	lPtr []int // row i of L: lIdx/lVal[lPtr[i]:lPtr[i+1]]
	lIdx []int
	lVal []float64
	uPtr []int // row i of U right of the diagonal: uIdx/uVal[uPtr[i]:uPtr[i+1]]
	uIdx []int
	uVal []float64
	diag []float64
}

// Compact copies the factorization into its compacted form. The copy
// is independent of the receiver, which may be refactored afterwards.
func (f *LU) Compact() *CompactLU {
	n := f.n
	d := f.lu.Data
	c := &CompactLU{
		n:    n,
		piv:  append([]int(nil), f.Piv...),
		lPtr: make([]int, n+1),
		uPtr: make([]int, n+1),
		diag: make([]float64, n),
	}
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			if v := d[i*n+j]; v != 0 {
				c.lIdx = append(c.lIdx, j)
				c.lVal = append(c.lVal, v)
			}
		}
		c.lPtr[i+1] = len(c.lVal)
		c.diag[i] = d[i*n+i]
		for j := i + 1; j < n; j++ {
			if v := d[i*n+j]; v != 0 {
				c.uIdx = append(c.uIdx, j)
				c.uVal = append(c.uVal, v)
			}
		}
		c.uPtr[i+1] = len(c.uVal)
	}
	return c
}

// SolveTo solves A*x = b into dst without allocating; dst must not
// alias b. It matches LU.SolveTo bit for bit whenever every value the
// solve touches is finite and b holds no -0: each dense partial sum
// then starts at a value other than -0 and can never become -0, so
// subtracting a skipped 0*x term (±0) leaves it unchanged.
//
//lint:hot
func (c *CompactLU) SolveTo(dst, b []float64) {
	if len(b) != c.n || len(dst) != c.n {
		panic(fmt.Sprintf("linalg: compact LU solve lengths dst=%d b=%d, want %d", len(dst), len(b), c.n))
	}
	if c.n > 0 && &dst[0] == &b[0] {
		panic("linalg: compact LU SolveTo dst must not alias b")
	}
	for i, p := range c.piv {
		dst[i] = b[p]
	}
	// Forward substitution with unit-lower L.
	for i := 1; i < c.n; i++ {
		vals := c.lVal[c.lPtr[i]:c.lPtr[i+1]]
		idx := c.lIdx[c.lPtr[i]:c.lPtr[i+1]]
		idx = idx[:len(vals)]
		s := dst[i]
		for k, m := range vals {
			s -= m * dst[idx[k]]
		}
		dst[i] = s
	}
	// Back substitution with U.
	for i := c.n - 1; i >= 0; i-- {
		vals := c.uVal[c.uPtr[i]:c.uPtr[i+1]]
		idx := c.uIdx[c.uPtr[i]:c.uPtr[i+1]]
		idx = idx[:len(vals)]
		s := dst[i]
		for k, u := range vals {
			s -= u * dst[idx[k]]
		}
		dst[i] = s / c.diag[i]
	}
}

// SolveMatrix solves A*X = B column by column.
func (f *LU) SolveMatrix(b *Matrix) *Matrix {
	if b.Rows != f.n {
		panic("linalg: LU SolveMatrix shape mismatch")
	}
	out := NewMatrix(b.Rows, b.Cols)
	for c := 0; c < b.Cols; c++ {
		out.SetCol(c, f.Solve(b.Col(c)))
	}
	return out
}

// Det returns the determinant of the factored matrix.
func (f *LU) Det() float64 {
	det := 1.0
	n := f.n
	for i := 0; i < n; i++ {
		det *= f.lu.Data[i*n+i]
	}
	// Sign of the permutation.
	seen := make([]bool, n)
	for i := 0; i < n; i++ {
		if seen[i] {
			continue
		}
		// Count cycle length.
		l := 0
		for j := i; !seen[j]; j = f.Piv[j] {
			seen[j] = true
			l++
		}
		if l%2 == 0 {
			det = -det
		}
	}
	return det
}

// Solve is a convenience wrapper: factor a and solve a*x = b.
func Solve(a *Matrix, b []float64) ([]float64, error) {
	f, err := FactorLU(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b), nil
}

// Inverse returns a^-1 (for small matrices and tests; simulation code
// keeps factorizations instead).
func Inverse(a *Matrix) (*Matrix, error) {
	f, err := FactorLU(a)
	if err != nil {
		return nil, err
	}
	return f.SolveMatrix(Identity(a.Rows)), nil
}
