package nlsim

import "repro/internal/linalg"

// Cache modes: a factorization built for the DC system (keyed by the
// gmin rung) must never be reused for a transient step (keyed by the
// timestep), and vice versa.
const (
	cacheDC = iota
	cacheTransient
)

// maxFactorAge bounds how many Newton updates one factorization may
// serve. For linear circuits the trapezoidal Jacobian is constant at a
// fixed timestep, so reuse is exact and the bound is just a backstop
// against pathological cycling; nonlinear circuits invalidate much
// earlier through the contraction safeguard.
const maxFactorAge = 256

// staleContraction is the minimum per-iteration shrink factor a stale
// factorization must keep delivering: when a damped Newton update fails
// to contract below this fraction of the previous update, the cache is
// invalidated and the next iteration refactors with a fresh Jacobian.
const staleContraction = 0.5

// factorCache owns one reusable LU workspace and decides when the
// factorization inside it may serve another Newton solve (modified
// Newton). It is the factor-once/solve-many seam of the nonlinear
// engine: within a Newton loop it skips the O(n³) refactor while the
// iteration keeps contracting, and across trapezoidal steps it carries
// the last accepted factorization forward while the timestep is
// unchanged.
type factorCache struct {
	lu    *linalg.LU
	valid bool
	mode  uint8   // cacheDC or cacheTransient
	key   float64 // gmin (DC) or timestep (transient) the factor was built under
	age   int     // Newton updates served since the last refactor
	// jacNorm is the infinity norm of the Jacobian this factorization
	// was built from. A stale factorization may report a deceptively
	// small update at a state whose residual is still large, so
	// reuse-converged iterations are additionally required to satisfy
	// ||F||∞ ≤ jacNorm · vTol · residSafety — the same residual scale a
	// fresh-Jacobian update below vTol implies.
	jacNorm float64
}

// residSafety relaxes the residual acceptance of reuse-converged
// iterations: a fresh Newton update below vTol implies a residual of
// roughly ||J||∞·vTol, and contraction inflates that by a small factor.
const residSafety = 4.0

func newFactorCache(n int) factorCache {
	return factorCache{lu: linalg.NewLUWorkspace(n)}
}

// sameKeyEps reports whether two cache keys match. Keys are copied
// verbatim between set and test — never recomputed — so exact
// comparison is the right tolerance: a timestep differing in the last
// ulp invalidates the factorization, which only costs one refactor.
func sameKeyEps(a, b float64) bool { return a == b }

// usable reports whether the cached factorization may serve one more
// solve for the given mode and key.
func (c *factorCache) usable(mode uint8, key float64) bool {
	return c.valid && c.mode == mode && sameKeyEps(c.key, key) && c.age < maxFactorAge
}

// refactor rebuilds the factorization from jac in place (no
// allocation) and stamps it with the mode and key. On error the cache
// is left invalid.
func (c *factorCache) refactor(jac *linalg.Matrix, mode uint8, key float64) error {
	c.valid = false
	c.jacNorm = infNorm(jac)
	if err := c.lu.Refactor(jac); err != nil {
		return err
	}
	c.valid = true
	c.mode = mode
	c.key = key
	c.age = 0
	return nil
}

// infNorm returns the infinity norm (max absolute row sum) of a.
func infNorm(a *linalg.Matrix) float64 {
	max := 0.0
	for r := 0; r < a.Rows; r++ {
		row := a.Data[r*a.Cols : (r+1)*a.Cols]
		sum := 0.0
		for _, v := range row {
			if v < 0 {
				sum -= v
			} else {
				sum += v
			}
		}
		if sum > max {
			max = sum
		}
	}
	return max
}

// vecInfNorm returns the infinity norm of v.
func vecInfNorm(v []float64) float64 {
	max := 0.0
	for _, x := range v {
		if x < 0 {
			x = -x
		}
		if x > max {
			max = x
		}
	}
	return max
}

// invalidate drops the cached factorization; the next Newton iteration
// will assemble and factor a fresh Jacobian.
func (c *factorCache) invalidate() { c.valid = false }
