package linalg

// Solver is a factored matrix A, kept for repeated solves.
type Solver interface {
	// SolveTo solves A*x = b into dst without allocating. dst must not
	// alias b. A solve may use scratch owned by the factor, so one
	// Solver must not solve on two goroutines at once.
	SolveTo(dst, b []float64)
}

// bandedMin is the system size from which Factor considers the banded
// Cholesky: below it the dense factor is cheaper than the sparsity
// analysis. Reduced-order models and typical victim nets live there.
const bandedMin = 32

// Factor factors the square matrix a. It is the one factorization rule
// of the linear solves: the trapezoidal step of lsim, the DC point of
// mna and the block-Krylov recurrence of mor all call it. Below
// bandedMin states it returns a dense LU with partial pivoting,
// compacted to its nonzeros. From there it orders the matrix with
// reverse Cuthill-McKee and returns a banded Cholesky factor when the
// reordered half-bandwidth bw keeps the O(n·bw) solve clearly under the
// dense O(n²) one, 4·(bw+1) ≤ n, as it does for RC interconnect. A band
// too wide, or a matrix the Cholesky rejects as not positive definite,
// takes the dense LU too, which rejects a non-square matrix and returns
// ErrSingular for a singular one.
func Factor(a *Matrix) (Solver, error) {
	if n := a.Rows; n >= bandedMin && a.Cols == n {
		sp := FromDense(a)
		perm := sp.rcm()
		if 4*(sp.bandwidth(perm)+1) <= n {
			if f, err := factorBandedChol(sp, perm); err == nil {
				return f, nil
			}
		}
	}
	lu, err := FactorLU(a)
	if err != nil {
		return nil, err
	}
	return lu.Compact(), nil
}
