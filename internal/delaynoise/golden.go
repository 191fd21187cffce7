package delaynoise

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/nlsim"
	"repro/internal/noiseerr"
	"repro/internal/waveform"
)

// GoldenResult is the outcome of full nonlinear reference simulations.
type GoldenResult struct {
	QuietDelay float64 // combined delay with aggressors quiet, s
	// DelayNoise is the extra combined delay at the evaluated (or worst
	// found) aggressor shift.
	DelayNoise float64
	// Shift is the common time offset applied to all aggressor inputs
	// relative to their nominal start times.
	Shift float64
	// Sweep holds (shift, delayNoise) pairs for exhaustive searches.
	Sweep []GoldenPoint
}

// GoldenPoint is one exhaustive-search sample.
type GoldenPoint struct {
	Shift      float64
	DelayNoise float64
}

// goldenCircuit assembles the full nonlinear circuit: interconnect,
// transistor-level victim and aggressor drivers, and the receiver.
// aggShifts gives each aggressor's input-start offset from nominal;
// quiet aggressors (aggOn false) hold their initial input level.
func (c *Case) goldenCircuit(aggShifts []float64, aggOn bool) (*nlsim.Circuit, error) {
	vdd := c.vdd()
	ckt := nlsim.NewCircuit()
	ckt.ImportLinear(c.loadedInterconnect())

	vin := c.Victim.inputWaveform(vdd)
	in := ckt.Fixed("__vicin", vin)
	ckt.AddCell(c.Victim.Cell, "uvic", in, ckt.Node(c.Net.VictimIn))

	for k, a := range c.Aggressors {
		var w *waveform.PWL
		if aggOn {
			w = a.inputWaveform(vdd).Shift(aggShifts[k])
		} else {
			w = waveform.Constant(a.inputWaveform(vdd).At(0))
		}
		ain := ckt.Fixed(fmt.Sprintf("__aggin%d", k), w)
		ckt.AddCell(a.Cell, fmt.Sprintf("uagg%d", k), ain, ckt.Node(c.Net.AggIn[k]))
	}

	rin := ckt.Node(c.sink())
	rout := ckt.Node("__recvout")
	ckt.AddCell(c.Receiver, "urecv", rin, rout)
	if c.ReceiverLoad > 0 {
		ckt.AddC(rout, nlsim.Ground, c.ReceiverLoad)
	}
	return ckt, nil
}

// goldenDelay runs one full nonlinear simulation and returns the 50%
// crossing times of the victim driver output and the receiver output
// (final crossings, robust to noise glitches). Delay noise is the shift
// of the receiver-output crossing between noisy and quiet runs with the
// victim input fixed; the driver-output crossing of the *quiet* run
// anchors the combined-delay measurement.
func (c *Case) goldenDelay(ctx context.Context, aggShifts []float64, aggOn bool, horizon, step float64) (drv50, out50 float64, err error) {
	ckt, err := c.goldenCircuit(aggShifts, aggOn)
	if err != nil {
		return 0, 0, err
	}
	res, err := nlsim.Run(ckt, nlsim.Options{TStop: horizon, Step: step, Ctx: ctx})
	if err != nil {
		return 0, 0, fmt.Errorf("delaynoise: golden sim: %w", err)
	}
	vdd := c.vdd()
	drv, err := res.Voltage(c.Net.VictimIn)
	if err != nil {
		return 0, 0, err
	}
	out, err := res.Voltage("__recvout")
	if err != nil {
		return 0, 0, err
	}
	if c.Victim.OutputRising {
		drv50, err = drv.LastCrossRising(vdd / 2)
	} else {
		drv50, err = drv.LastCrossFalling(vdd / 2)
	}
	if err == nil {
		if c.Receiver.OutputRisingFor(c.Victim.OutputRising) {
			out50, err = out.LastCrossRising(vdd / 2)
		} else {
			out50, err = out.LastCrossFalling(vdd / 2)
		}
	}
	if err != nil {
		return 0, 0, noiseerr.Numericalf("delaynoise: golden crossings: %w", err)
	}
	return drv50, out50, nil
}

// goldenHorizon estimates the simulation window.
func (c *Case) goldenHorizon(maxShift float64) (horizon, step float64) {
	end := c.Victim.InputStart + c.Victim.InputSlew
	for _, a := range c.Aggressors {
		if t := a.InputStart + a.InputSlew + maxShift; t > end {
			end = t
		}
	}
	horizon = end + 2.5e-9
	step = 1e-12
	return horizon, step
}

// GoldenAtShifts evaluates the nonlinear delay noise with aggressor k's
// input offset by shifts[k] from its nominal start time (use equal
// entries to move all aggressors together, or per-aggressor values to
// realize a peak-aligned composite at a chosen time).
func GoldenAtShifts(c *Case, shifts []float64) (*GoldenResult, error) {
	return GoldenAtShiftsContext(context.Background(), c, shifts)
}

// GoldenAtShiftsContext is GoldenAtShifts with cancellation support for
// the two full nonlinear simulations.
func GoldenAtShiftsContext(ctx context.Context, c *Case, shifts []float64) (*GoldenResult, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if len(shifts) != len(c.Aggressors) {
		return nil, noiseerr.Invalidf("delaynoise: %d shifts for %d aggressors", len(shifts), len(c.Aggressors))
	}
	maxShift := 0.0
	for _, s := range shifts {
		if a := math.Abs(s); a > maxShift {
			maxShift = a
		}
	}
	horizon, step := c.goldenHorizon(maxShift)
	drvQ, outQ, err := c.goldenDelay(ctx, shifts, false, horizon, step)
	if err != nil {
		return nil, err
	}
	_, outN, err := c.goldenDelay(ctx, shifts, true, horizon, step)
	if err != nil {
		return nil, err
	}
	return &GoldenResult{QuietDelay: outQ - drvQ, DelayNoise: outN - outQ, Shift: shifts[0]}, nil
}

// GoldenWorstCase exhaustively searches the common aggressor shift for
// the maximum nonlinear delay noise (the Fig 14 x-axis reference). The
// search spans [-span, +span] around the nominal alignment with nGrid
// points plus one refinement pass.
func GoldenWorstCase(c *Case, span float64, nGrid int) (*GoldenResult, error) {
	return GoldenWorstCaseContext(context.Background(), c, span, nGrid)
}

// GoldenWorstCaseContext is GoldenWorstCase with cancellation support,
// checked at every search grid point and inside each simulation.
func GoldenWorstCaseContext(ctx context.Context, c *Case, span float64, nGrid int) (*GoldenResult, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if nGrid < 5 {
		nGrid = 5
	}
	horizon, step := c.goldenHorizon(span)
	drvQ, outQ, err := c.goldenDelay(ctx, make([]float64, len(c.Aggressors)), false, horizon, step)
	if err != nil {
		return nil, err
	}
	eval := func(shift float64) (float64, error) {
		shifts := make([]float64, len(c.Aggressors))
		for k := range shifts {
			shifts[k] = shift
		}
		_, outN, err := c.goldenDelay(ctx, shifts, true, horizon, step)
		if err != nil {
			return 0, err
		}
		return outN - outQ, nil
	}
	res := &GoldenResult{QuietDelay: outQ - drvQ}
	best, bestShift := math.Inf(-1), 0.0
	stepSize := 2 * span / float64(nGrid-1)
	for i := 0; i < nGrid; i++ {
		shift := -span + float64(i)*stepSize
		dn, err := eval(shift)
		if err != nil {
			if errors.Is(err, noiseerr.ErrCanceled) {
				return nil, err
			}
			continue
		}
		res.Sweep = append(res.Sweep, GoldenPoint{Shift: shift, DelayNoise: dn})
		if dn > best {
			best, bestShift = dn, shift
		}
	}
	if math.IsInf(best, -1) {
		return nil, noiseerr.Convergencef("delaynoise: golden search found no valid alignment")
	}
	for _, shift := range []float64{bestShift - stepSize/2, bestShift + stepSize/2} {
		dn, err := eval(shift)
		if err != nil {
			if errors.Is(err, noiseerr.ErrCanceled) {
				return nil, err
			}
			continue
		}
		res.Sweep = append(res.Sweep, GoldenPoint{Shift: shift, DelayNoise: dn})
		if dn > best {
			best, bestShift = dn, shift
		}
	}
	res.DelayNoise = best
	res.Shift = bestShift
	return res, nil
}

// GoldenWaveforms runs the full nonlinear circuit twice (aggressors
// switching at the given shifts, then quiet) and returns the noisy and
// quiet receiver-input waveforms.
func GoldenWaveforms(c *Case, shifts []float64) (noisy, quiet *waveform.PWL, err error) {
	return GoldenWaveformsContext(context.Background(), c, shifts)
}

// GoldenWaveformsContext is GoldenWaveforms with cancellation support.
func GoldenWaveformsContext(ctx context.Context, c *Case, shifts []float64) (noisy, quiet *waveform.PWL, err error) {
	if err := c.Validate(); err != nil {
		return nil, nil, err
	}
	if len(shifts) != len(c.Aggressors) {
		return nil, nil, noiseerr.Invalidf("delaynoise: %d shifts for %d aggressors", len(shifts), len(c.Aggressors))
	}
	maxShift := 0.0
	for _, s := range shifts {
		if a := math.Abs(s); a > maxShift {
			maxShift = a
		}
	}
	horizon, step := c.goldenHorizon(maxShift)
	run := func(aggOn bool) (*waveform.PWL, error) {
		ckt, err := c.goldenCircuit(shifts, aggOn)
		if err != nil {
			return nil, err
		}
		res, err := nlsim.Run(ckt, nlsim.Options{TStop: horizon, Step: step, Ctx: ctx})
		if err != nil {
			return nil, err
		}
		return res.Voltage(c.sink())
	}
	if noisy, err = run(true); err != nil {
		return nil, nil, err
	}
	if quiet, err = run(false); err != nil {
		return nil, nil, err
	}
	return noisy, quiet, nil
}

// PeakShifts converts a chosen composite peak time into per-aggressor
// input shifts: noise moves one-for-one with the aggressor source in an
// LTI network, so shifting aggressor k by tPeak minus its nominal noise
// peak time places every individual peak at tPeak (the peak-aligned
// composite of §3.1). nominalPeaks are the receiver-input noise peak
// times from the linear analysis at nominal aggressor timing.
func PeakShifts(nominalPeaks []float64, tPeak float64) []float64 {
	out := make([]float64, len(nominalPeaks))
	for k, p := range nominalPeaks {
		out[k] = tPeak - p
	}
	return out
}
