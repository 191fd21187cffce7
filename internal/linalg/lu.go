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
	n := f.n
	d := f.lu.Data
	// Forward substitution with unit-lower L.
	for i := 1; i < n; i++ {
		s := dst[i]
		row := d[i*n : i*n+i]
		for j, m := range row {
			s -= m * dst[j]
		}
		dst[i] = s
	}
	// Back substitution with U.
	for i := n - 1; i >= 0; i-- {
		s := dst[i]
		row := d[i*n+i+1 : (i+1)*n]
		for j, u := range row {
			s -= u * dst[i+1+j]
		}
		dst[i] = s / d[i*n+i]
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
// Each slice is sized from a count of the nonzeros, so the copy costs
// a fixed number of allocations whatever its fill.
func (f *LU) Compact() *CompactLU {
	n := f.n
	d := f.lu.Data
	nl, nu := 0, 0
	for i := 0; i < n; i++ {
		for j, v := range d[i*n : (i+1)*n] {
			if v != 0 && j < i {
				nl++
			} else if v != 0 && j > i {
				nu++
			}
		}
	}
	c := &CompactLU{
		n:    n,
		piv:  append([]int(nil), f.Piv...),
		lPtr: make([]int, n+1),
		lIdx: make([]int, 0, nl),
		lVal: make([]float64, 0, nl),
		uPtr: make([]int, n+1),
		uIdx: make([]int, 0, nu),
		uVal: make([]float64, 0, nu),
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
