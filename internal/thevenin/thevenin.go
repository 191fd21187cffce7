// Package thevenin fits the classic linear driver model of the
// superposition flow: a saturated-ramp voltage source (t0, dt) behind a
// Thevenin resistance Rth, chosen so the linear model reproduces the
// nonlinear gate's 10%, 50% and 90% output crossing times into its
// effective load (paper ref [3], Dartu-Menezes-Pileggi).
package thevenin

import (
	"context"
	"fmt"
	"math"

	"repro/internal/device"
	"repro/internal/gatesim"
	"repro/internal/noiseerr"
	"repro/internal/waveform"
)

// Model is a fitted Thevenin driver.
type Model struct {
	T0  float64 // ramp start time, s
	Dt  float64 // ramp duration (0-100%), s
	Rth float64 // Thevenin resistance, ohm
	Vdd float64
	// Rising is the direction of the *output* transition the model
	// represents (the source ramps 0->Vdd when true).
	Rising bool
}

// SourceWaveform returns the PWL ramp of the Thevenin voltage source.
func (m Model) SourceWaveform() *waveform.PWL {
	if m.Rising {
		return waveform.Ramp(m.T0, m.Dt, 0, m.Vdd)
	}
	return waveform.Ramp(m.T0, m.Dt, m.Vdd, 0)
}

// rampRC evaluates the normalized response (0 -> 1) at time t (measured
// from the ramp start) of a unit saturated ramp of duration dt driving an
// RC with time constant tau. yEnd is the response at the end of the
// ramp, rampEnd(dt, tau), which a caller evaluating many times at one
// (dt, tau) computes once.
func rampRC(dt, tau, yEnd, t float64) float64 {
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
	return 1 + (yEnd-1)*math.Exp(-(t-dt)/tau)
}

// rampEnd is the ramp-RC response at the end of the ramp (t = dt, with
// tau > 0).
func rampEnd(dt, tau float64) float64 {
	return (dt - tau*(1-math.Exp(-dt/tau))) / dt
}

// rampRCCross returns the time (from ramp start) at which the normalized
// ramp-RC response crosses frac.
func rampRCCross(dt, tau, frac float64) float64 {
	yEnd := rampEnd(dt, tau)
	lo, hi := 0.0, dt+40*tau+dt
	for hi-lo > 1e-18+1e-12*(dt+tau) {
		mid := 0.5 * (lo + hi)
		if rampRC(dt, tau, yEnd, mid) < frac {
			lo = mid
		} else {
			hi = mid
		}
	}
	return 0.5 * (lo + hi)
}

// shapeRatio returns (t90-t50)/(t50-t10) for tau/dt ratio rho. It starts
// at 1 for a pure ramp (rho -> 0), dips slightly below 1 around rho ~
// 0.15, and then increases monotonically toward ln(5)/ln(1.8) (pure
// exponential). The fit searches only the increasing branch rho >=
// shapeRatioArgmin: the small-rho branch would yield unphysically small
// Thevenin resistances for the same observable crossings.
func shapeRatio(rho float64) float64 {
	dt := 1.0
	tau := rho
	t10 := rampRCCross(dt, tau, 0.1)
	t50 := rampRCCross(dt, tau, 0.5)
	t90 := rampRCCross(dt, tau, 0.9)
	return (t90 - t50) / (t50 - t10)
}

// maxShapeRatio is the pure-exponential limit of shapeRatio.
var maxShapeRatio = math.Log(5) / math.Log(1.8)

// shapeRatioArgmin/-Min locate the dip of shapeRatio, computed once.
var shapeRatioArgmin, shapeRatioMin = func() (float64, float64) {
	bestRho, bestR := 0.15, math.Inf(1)
	for rho := 0.02; rho <= 0.6; rho *= 1.05 {
		if r := shapeRatio(rho); r < bestR {
			bestRho, bestR = rho, r
		}
	}
	return bestRho, bestR
}()

// FitWaveform fits (T0, Dt, Rth) so the model driving ceff reproduces the
// 10/50/90% crossings of the measured output waveform out (a full-swing
// transition between 0 and vdd). outRising selects the transition
// direction to fit.
func FitWaveform(out *waveform.PWL, vdd, ceff float64, outRising bool) (Model, error) {
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
	// It stops at 80 iterations or at the first one that moves neither
	// bound: every later iteration would repeat it, so rho is the 80th's.
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
				if mid == lo {
					break
				}
				lo = mid
			} else {
				if mid == hi {
					break
				}
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

// Fit characterizes a cell: it simulates the nonlinear cell driving ceff
// with the given input slew and direction and fits the Thevenin model to
// the resulting output transition. It returns the model and the
// nonlinear output waveform, which ends where the settled-tail
// certificate stopped the drive (see FitContext).
func Fit(cell *device.Cell, inSlew float64, inRising bool, ceff float64) (Model, *waveform.PWL, error) {
	return FitContext(context.Background(), cell, inSlew, inRising, ceff)
}

// FitContext is Fit with cancellation support for the underlying
// nonlinear drive simulation. The fit reads only the 10/50/90%
// crossings, so the drive is gatesim.DriveSettled: each attempt stops
// at a certified settled tail and the model is the full drive's. The
// returned waveform ends at that stop rather than at the horizon; every
// caller in this module discards it.
func FitContext(ctx context.Context, cell *device.Cell, inSlew float64, inRising bool, ceff float64) (Model, *waveform.PWL, error) {
	r, err := gatesim.DriveSettled(cell, inSlew, inRising, ceff, gatesim.Options{Ctx: ctx})
	if err != nil {
		return Model{}, nil, err
	}
	outRising := cell.OutputRisingFor(inRising)
	m, err := FitWaveform(r.Out, cell.Tech.Vdd, ceff, outRising)
	if err != nil {
		return Model{}, nil, fmt.Errorf("thevenin: fitting %s (slew=%g, ceff=%g): %w", cell.Name, inSlew, ceff, err)
	}
	return m, r.Out, nil
}
