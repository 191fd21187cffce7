package device

import "math"

// sharedPow raises one base to several exponents. The alpha-power law
// needs vgst^α, vgst^(α/2), vgst^(α-1) and vgst^(α/2-1) at every
// evaluation; four math.Pow calls would take the logarithm of the same
// number four times. sharedPow takes Log(x) and Frexp(x) once and then
// replays, per exponent, the rest of the standard library's portable
// pow algorithm: Modf of |y|, Exp(yf·Log x) for the fractional part,
// repeated squaring of the Frexp mantissa for the integer bits, and a
// final Ldexp. Every operation and its order match math.Pow, so each
// result is bit-identical to math.Pow(x, y) wherever math.Pow runs that
// portable algorithm (every GOARCH but s390x, which has an assembly
// Pow). The special bases and exponents pow treats before the general
// path fall back to math.Pow itself.
type sharedPow struct {
	x    float64
	lx   float64 // math.Log(x)
	frac float64 // math.Frexp mantissa of x
	exp  int     // math.Frexp exponent of x
	// general is false when x is not a finite positive number other
	// than 1; pow then defers every exponent to math.Pow.
	general bool
}

func newSharedPow(x float64) sharedPow {
	sp := sharedPow{x: x}
	if x > 0 && x != 1 && x <= math.MaxFloat64 {
		sp.general = true
		sp.lx = math.Log(x)
		sp.frac, sp.exp = math.Frexp(x)
	}
	return sp
}

// pow returns x**y, bit-identical to math.Pow(x, y).
//
//lint:hot
func (sp *sharedPow) pow(y float64) float64 {
	if !sp.general || y == 0 || y == 1 || y == 0.5 || y == -0.5 || math.IsNaN(y) || math.IsInf(y, 0) {
		return math.Pow(sp.x, y)
	}
	yi, yf := math.Modf(math.Abs(y))
	if yi >= 1<<63 {
		return math.Pow(sp.x, y)
	}

	// ans = a1 * 2**ae (= 1 for now).
	a1 := 1.0
	ae := 0

	// ans *= x**yf
	if yf != 0 {
		if yf > 0.5 {
			yf--
			yi++
		}
		a1 = math.Exp(yf * sp.lx)
	}

	// ans *= x**yi by multiplying in successive squarings of x according
	// to the bits of yi, accumulating powers of two into ae.
	x1, xe := sp.frac, sp.exp
	for i := int64(yi); i != 0; i >>= 1 {
		if xe < -1<<12 || 1<<12 < xe {
			// xe would overflow the shift below; Ldexp under- or
			// overflows to 0 or Inf from this lower bound on ae.
			ae += xe
			break
		}
		if i&1 == 1 {
			a1 *= x1
			ae += xe
		}
		x1 *= x1
		xe <<= 1
		if x1 < .5 {
			x1 += x1
			xe--
		}
	}

	// ans = a1*2**ae; for y < 0, ans = 1/ans, in the opposite order.
	if y < 0 {
		a1 = 1 / a1
		ae = -ae
	}
	return math.Ldexp(a1, ae)
}
