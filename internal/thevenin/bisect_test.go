package thevenin

import (
	"math"
	"testing"

	"repro/internal/noiseerr"
	"repro/internal/waveform"
)

// fitWaveform80 is FitWaveform as it was before its shape bisection
// learned to stop once it stalls: the fixed 80-iteration loop, kept
// verbatim as the reference of TestFitWaveformStallStopBitExact.
func fitWaveform80(out *waveform.PWL, vdd, ceff float64, outRising bool) (Model, error) {
	if ceff <= 0 {
		return Model{}, noiseerr.Invalidf("thevenin: ceff must be positive, got %g", ceff)
	}
	cross := func(frac float64) (float64, error) {
		th := frac * vdd
		if outRising {
			return out.CrossRising(th)
		}
		return out.CrossFalling((1 - frac) * vdd)
	}
	t10, err := cross(0.1)
	if err != nil {
		return Model{}, noiseerr.Numericalf("thevenin: no 10%% crossing: %w", err)
	}
	t50, err := cross(0.5)
	if err != nil {
		return Model{}, noiseerr.Numericalf("thevenin: no 50%% crossing: %w", err)
	}
	t90, err := cross(0.9)
	if err != nil {
		return Model{}, noiseerr.Numericalf("thevenin: no 90%% crossing: %w", err)
	}
	a := t50 - t10
	b := t90 - t50
	if a <= 0 || b <= 0 {
		return Model{}, noiseerr.Numericalf("thevenin: non-monotone crossings (a=%g, b=%g)", a, b)
	}
	ratio := b / a
	// Bisection on the increasing branch of shapeRatio for rho = tau/dt.
	var rho float64
	switch {
	case ratio <= shapeRatioMin:
		rho = shapeRatioArgmin
	case ratio >= 0.999*maxShapeRatio:
		rho = 50 // effectively exponential
	default:
		lo, hi := shapeRatioArgmin, 50.0
		for i := 0; i < 80; i++ {
			mid := math.Sqrt(lo * hi)
			if shapeRatio(mid) < ratio {
				lo = mid
			} else {
				hi = mid
			}
		}
		rho = math.Sqrt(lo * hi)
	}
	// Scale (dt, tau) so the normalized 10-50 interval matches a.
	dtUnit := 1.0
	aUnit := rampRCCross(dtUnit, rho, 0.5) - rampRCCross(dtUnit, rho, 0.1)
	scale := a / aUnit
	dt := dtUnit * scale
	tau := rho * scale
	// Shift so the model's 50% crossing lands on the measured t50.
	t50Unit := rampRCCross(dt, tau, 0.5)
	t0 := t50 - t50Unit
	return Model{T0: t0, Dt: dt, Rth: tau / ceff, Vdd: vdd, Rising: outRising}, nil
}

// crossingWave is a transition through the 10/50/90% levels at t10,
// t10+a and t10+a+b, in the direction FitWaveform reads.
func crossingWave(vdd, t10, a, b float64, rising bool) *waveform.PWL {
	t := []float64{0, t10, t10 + a, t10 + a + b, t10 + a + b + 1e-9}
	v := []float64{0, 0.1 * vdd, 0.5 * vdd, 0.9 * vdd, vdd}
	if !rising {
		v = []float64{vdd, (1 - 0.1) * vdd, (1 - 0.5) * vdd, (1 - 0.9) * vdd, 0}
	}
	return waveform.New(t, v)
}

// measuredRatio is the shape ratio FitWaveform measures on w.
func measuredRatio(w *waveform.PWL, vdd float64, rising bool) float64 {
	cross := func(frac float64) float64 {
		var c float64
		if rising {
			c, _ = w.CrossRising(frac * vdd)
		} else {
			c, _ = w.CrossFalling((1 - frac) * vdd)
		}
		return c
	}
	t10, t50, t90 := cross(0.1), cross(0.5), cross(0.9)
	return (t90 - t50) / (t50 - t10)
}

// TestFitWaveformStallStopBitExact holds FitWaveform, whose shape
// bisection stops at the first iteration that moves neither bound, to
// the fixed 80-iteration loop: the Model bits must agree over a sweep
// of crossing triples in both directions and at several time scales.
// The ratios span the bisection's whole branch, and the sweep nudges
// triples onto both sides of its ends: shapeRatioMin and
// 0.999·maxShapeRatio.
func TestFitWaveformStallStopBitExact(t *testing.T) {
	const vdd, ceff = 1.8, 40e-15
	top := 0.999 * maxShapeRatio
	var ratios []float64
	for k := 0; k <= 60; k++ {
		ratios = append(ratios, shapeRatioMin*math.Pow(top/shapeRatioMin, float64(k)/60))
	}
	for _, r := range []float64{shapeRatioMin, top} {
		for _, f := range []float64{1 - 1e-9, 1 - 1e-14, 1 + 1e-14, 1 + 1e-9} {
			ratios = append(ratios, r*f)
		}
	}
	var atMin, overMin, underTop, atTop int
	for _, rising := range []bool{true, false} {
		for _, a := range []float64{3e-12, 47e-12, 610e-12} {
			for _, r := range ratios {
				w := crossingWave(vdd, 1e-10, a, r*a, rising)
				got, gotErr := FitWaveform(w, vdd, ceff, rising)
				want, wantErr := fitWaveform80(w, vdd, ceff, rising)
				if (gotErr != nil) != (wantErr != nil) {
					t.Fatalf("ratio %v rising %v a %g: errors differ: %v vs %v", r, rising, a, gotErr, wantErr)
				}
				for i, pair := range [][2]float64{{got.T0, want.T0}, {got.Dt, want.Dt}, {got.Rth, want.Rth}} {
					if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
						t.Fatalf("ratio %v rising %v a %g: model field %d is %v, the 80-iteration loop's %v", r, rising, a, i, pair[0], pair[1])
					}
				}
				switch m := measuredRatio(w, vdd, rising); {
				case m <= shapeRatioMin:
					atMin++
				case m < shapeRatioMin*(1+1e-8):
					overMin++
				case m >= top:
					atTop++
				case m > top*(1-1e-8):
					underTop++
				}
			}
		}
	}
	if atMin == 0 || overMin == 0 || underTop == 0 || atTop == 0 {
		t.Fatalf("sweep misses an end of the bisection: %d at or under shapeRatioMin, %d just over, %d just under 0.999·maxShapeRatio, %d at or over",
			atMin, overMin, underTop, atTop)
	}
}
