// Package holdres implements the paper's Section 2: the transient
// holding resistance Rtr that replaces the Thevenin resistance Rth for
// the shorted (grounded) victim driver in the superposition flow.
//
// Rth models the driver's aggregate resistance over a whole transition,
// but aggressor noise is injected during a short window in which the
// victim driver's small-signal conductance differs wildly from that
// aggregate. Rtr is chosen so a linear R-C model reproduces the *area*
// of the noise response observed on the real nonlinear driver:
//
//  1. From the linear superposition run (with Rth holding the victim),
//     take the total noise voltage Vn at the victim driver output.
//  2. Convert it to the injected noise current
//     In = Vn/Rth + Cload * dVn/dt (Figure 4(a)).
//  3. Simulate the nonlinear victim driver switching into Cload twice:
//     without injection (V1) and with In injected (V2); the nonlinear
//     noise response is V'n = V2 - V1.
//  4. Set Rtr = integral(V'n) / integral(In), the value for which the
//     linear model's noise area matches the nonlinear one.
package holdres

import (
	"context"
	"fmt"
	"math"

	"repro/internal/device"
	"repro/internal/gatesim"
	"repro/internal/noiseerr"
	"repro/internal/waveform"
)

// Result carries the computed transient holding resistance and the
// intermediate waveforms, which the experiment harness plots.
type Result struct {
	Rtr float64 // transient holding resistance, ohm
	Rth float64 // the Thevenin resistance it replaces

	In        *waveform.PWL // injected noise current (step 2)
	Noiseless *waveform.PWL // V1: nonlinear driver output without noise
	Noisy     *waveform.PWL // V2: with injected noise
	NoiseNL   *waveform.PWL // V'n = V2 - V1
	AreaVn    float64       // integral of V'n, V*s
	AreaIn    float64       // integral of In, A*s
}

// Bounds clamp Rtr relative to Rth: the transient conductance of a
// switching driver can be much smaller than the aggregate (larger R), but
// run-away values indicate a degenerate noise waveform.
const (
	minRatio = 0.05
	maxRatio = 50.0
)

// Compute derives the transient holding resistance for a victim driver.
//
//	cell      - victim driver cell
//	inSlew    - victim driver input transition time
//	inRising  - victim driver input direction
//	ceff      - victim driver effective load (from C-effective iterations)
//	rth       - victim driver Thevenin resistance
//	vn        - total aggressor-induced noise voltage at the victim driver
//	            output from the linear superposition run with Rth holding
//
// The returned Result includes the nonlinear noise waveform so callers
// can report the model-vs-nonlinear comparison.
func Compute(cell *device.Cell, inSlew float64, inRising bool, ceff, rth float64, vn *waveform.PWL) (*Result, error) {
	return ComputeContext(context.Background(), cell, inSlew, inRising, ceff, rth, vn)
}

// ComputeContext is Compute with cancellation support for the
// nonlinear driver simulations: the noiseless run of Noiseless followed
// by FromNoiseless.
func ComputeContext(ctx context.Context, cell *device.Cell, inSlew float64, inRising bool, ceff, rth float64, vn *waveform.PWL) (*Result, error) {
	if err := Check(ceff, rth, vn); err != nil {
		return nil, err
	}
	first, err := Noiseless(ctx, cell, inSlew, inRising, ceff)
	if err != nil {
		return nil, err
	}
	return FromNoiseless(ctx, cell, inSlew, inRising, ceff, rth, vn, first)
}

// Check validates the inputs of a holding-resistance derivation.
func Check(ceff, rth float64, vn *waveform.PWL) error {
	if ceff <= 0 || rth <= 0 {
		return noiseerr.Invalidf("holdres: ceff and rth must be positive (got %g, %g)", ceff, rth)
	}
	if vn.Len() < 3 {
		return noiseerr.Invalidf("holdres: noise waveform too short")
	}
	return nil
}

// Noiseless is step 3's first simulation: the victim driver switching
// into ceff without injection, at its own settled horizon. It depends
// only on the operating point (cell, slew, direction, ceff), not on the
// noise, so a caller deriving Rtr for many noise waveforms at one
// operating point can run it once and pass it to FromNoiseless.
func Noiseless(ctx context.Context, cell *device.Cell, inSlew float64, inRising bool, ceff float64) (gatesim.DriveResult, error) {
	first, err := gatesim.DriveWithHorizon(cell, inSlew, inRising, ceff, nil, gatesim.Options{Ctx: ctx})
	if err != nil {
		return gatesim.DriveResult{}, fmt.Errorf("holdres: noiseless driver sim: %w", err)
	}
	return first, nil
}

// FromNoiseless is ComputeContext given the operating point's noiseless
// run, as Noiseless returns it; the result is the same bit for bit.
// When the run is reused, Result.Noiseless is first.Out itself.
func FromNoiseless(ctx context.Context, cell *device.Cell, inSlew float64, inRising bool, ceff, rth float64, vn *waveform.PWL, first gatesim.DriveResult) (*Result, error) {
	if err := Check(ceff, rth, vn); err != nil {
		return nil, err
	}
	// Step 2: In = Vn/Rth + Cload * dVn/dt, sampled on a dense grid so
	// the PWL derivative is well behaved.
	in := injectedCurrent(vn, rth, ceff)

	// Step 3: nonlinear driver with and without the injected current.
	v1 := first.Out
	// Both runs must share a horizon so the difference is well defined.
	opt := gatesim.Options{Ctx: ctx, Horizon: v1.End()}
	if in.End() > opt.Horizon {
		opt.Horizon = in.End() + 100e-12
	}
	// V1 rerun at the shared horizon repeats the first run bit for bit
	// when the injection fits inside it, the first run settled, and its
	// waveform ends exactly at the horizon it ran to. Only otherwise is
	// the rerun needed.
	if !first.Settled || in.End() > v1.End() || math.Float64bits(v1.End()) != math.Float64bits(first.Horizon) {
		var err error
		v1, err = gatesim.Drive(cell, inSlew, inRising, ceff, nil, opt)
		if err != nil {
			return nil, fmt.Errorf("holdres: noiseless driver rerun at the shared horizon: %w", err)
		}
	}
	v2, err := gatesim.Drive(cell, inSlew, inRising, ceff, in, opt)
	if err != nil {
		return nil, fmt.Errorf("holdres: noisy driver sim: %w", err)
	}

	// Step 4: area matching.
	noiseNL := waveform.Sub(v2, v1)
	areaVn := noiseNL.Integral()
	areaIn := in.Integral()
	res := &Result{
		Rth: rth, In: in,
		Noiseless: v1, Noisy: v2, NoiseNL: noiseNL,
		AreaVn: areaVn, AreaIn: areaIn,
	}
	if !isFinite(areaIn) || !isFinite(areaVn) || math.Abs(areaIn) < 1e-30 {
		// Degenerate injection: keep the Thevenin value.
		res.Rtr = rth
		return res, nil
	}
	rtr := areaVn / areaIn
	if rtr <= 0 || !isFinite(rtr) {
		// Area cancellation (strongly bipolar noise); fall back to Rth.
		rtr = rth
	}
	if rtr < minRatio*rth {
		rtr = minRatio * rth
	}
	if rtr > maxRatio*rth {
		rtr = maxRatio * rth
	}
	res.Rtr = rtr
	return res, nil
}

// injectedCurrent computes In = Vn/Rth + C*dVn/dt. Within each PWL
// segment of Vn the current is itself linear (v/R linear plus a constant
// derivative term); across breakpoints dVn/dt jumps, which is represented
// by a pair of breakpoints an infinitesimal step apart. The result is an
// exact PWL representation of In.
func injectedCurrent(vn *waveform.PWL, rth, c float64) *waveform.PWL {
	n := vn.Len()
	t := make([]float64, 0, 2*n)
	v := make([]float64, 0, 2*n)
	add := func(ti, ii float64) {
		if len(t) > 0 && ti <= t[len(t)-1] {
			ti = math.Nextafter(t[len(t)-1], math.Inf(1))
		}
		t = append(t, ti)
		v = append(v, ii)
	}
	for i := 1; i < n; i++ {
		t0, t1 := vn.T[i-1], vn.T[i]
		if t1-t0 < 1e-16 {
			continue // degenerate segment: no area, unstable slope
		}
		slope := (vn.V[i] - vn.V[i-1]) / (t1 - t0)
		eps := 1e-9 * (t1 - t0)
		add(t0+eps, vn.V[i-1]/rth+c*slope)
		add(t1-eps, vn.V[i]/rth+c*slope)
	}
	return waveform.New(t, v)
}

// isFinite reports whether x is neither NaN nor infinite.
func isFinite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
