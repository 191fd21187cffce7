package thevenin

import (
	"math"
	"testing"
)

// oldRampRC is rampRC as it was before the post-ramp constant moved out
// of it: every call past the ramp recomputes yEnd.
func oldRampRC(dt, tau, t float64) float64 {
	if t <= 0 {
		return 0
	}
	if tau <= 0 {
		// Degenerate: pure ramp.
		if t >= dt {
			return 1
		}
		return t / dt
	}
	if t <= dt {
		return (t - tau*(1-math.Exp(-t/tau))) / dt
	}
	yEnd := (dt - tau*(1-math.Exp(-dt/tau))) / dt
	return 1 + (yEnd-1)*math.Exp(-(t-dt)/tau)
}

// oldRampRCCross is rampRCCross over oldRampRC, verbatim.
func oldRampRCCross(dt, tau, frac float64) float64 {
	lo, hi := 0.0, dt+40*tau+dt
	for hi-lo > 1e-18+1e-12*(dt+tau) {
		mid := 0.5 * (lo + hi)
		if oldRampRC(dt, tau, mid) < frac {
			lo = mid
		} else {
			hi = mid
		}
	}
	return 0.5 * (lo + hi)
}

// TestRampRCCrossBitExact pins rampRCCross, which computes the
// post-ramp constant once per search, to the search that recomputed it
// on every evaluation: the response values past the ramp and the
// crossings must agree bit for bit over tau/dt from 1e-3 to 60, at the
// normalized dt the fit searches and at the scaled ones it returns, for
// the 10%, 50% and 90% levels.
func TestRampRCCrossBitExact(t *testing.T) {
	searches := 0
	for _, dt := range []float64{1, 2.5e-10, 7.3e-11, 1.9e-9} {
		for rho := 1e-3; rho <= 60; rho *= 1.07 {
			tau := rho * dt
			yEnd := rampEnd(dt, tau)
			for k := 1; k <= 64; k++ {
				tt := dt * (1 + float64(k)*rho/8)
				if got, want := rampRC(dt, tau, yEnd, tt), oldRampRC(dt, tau, tt); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("dt %g, tau/dt %g, t %g: response %v, want %v", dt, rho, tt, got, want)
				}
			}
			for _, frac := range []float64{0.1, 0.5, 0.9} {
				got, want := rampRCCross(dt, tau, frac), oldRampRCCross(dt, tau, frac)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("dt %g, tau/dt %g, level %g: crossing %v, want %v", dt, rho, frac, got, want)
				}
				searches++
			}
		}
	}
	t.Logf("%d searches bit-equal", searches)
}
