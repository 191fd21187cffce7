package align

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/device"
	"repro/internal/gatesim"
	"repro/internal/metrics"
	"repro/internal/noiseerr"
	"repro/internal/spare"
	"repro/internal/waveform"
)

// Objective evaluates the paper's alignment objective: the delay through
// the victim receiver gate, measured at the receiver *output* 50%
// crossing. The receiver is simulated nonlinearly with the noisy
// superposed waveform prescribed at its input (Figure 1(d)).
type Objective struct {
	Receiver *device.Cell
	Load     float64 // receiver output load capacitance, F
	// VictimRising is the direction of the noiseless victim transition at
	// the receiver input; the output direction follows the receiver
	// cell's polarity.
	VictimRising bool
	// Sims, when non-nil, is incremented once per nonlinear receiver
	// simulation, by Output and by OutputSettled (every exhaustive-search
	// grid point and delay evaluation funnels through it by way of
	// OutputCross).
	Sims *metrics.Counter
	// Settled, when non-nil, is incremented once per OutputSettled
	// simulation that the settled-tail certificate ended before its
	// horizon (see gatesim.ReceiveSettled).
	Settled *metrics.Counter
	// Ctx, when non-nil, cancels the receiver simulations and the
	// exhaustive searches (checked at every grid point).
	Ctx context.Context
}

// outputRising returns the receiver output transition direction.
func (o Objective) outputRising() bool {
	return o.Receiver.OutputRisingFor(o.VictimRising)
}

// Vdd returns the supply of the receiver's technology.
func (o Objective) Vdd() float64 { return o.Receiver.Tech.Vdd }

// Output simulates the receiver with input waveform in and returns the
// receiver output waveform.
func (o Objective) Output(in *waveform.PWL) (*waveform.PWL, error) {
	o.Sims.Inc()
	return gatesim.Receive(o.Receiver, in, o.Load, gatesim.Options{Ctx: o.Ctx})
}

// OutputSettled simulates the receiver with input waveform in and
// returns the receiver output waveform up to a certified settled tail
// (gatesim.ReceiveSettled): the full run's first rows, holding every
// crossing of Vdd/2 and the first crossings of the 20% and 80% levels
// the full run has. A caller that reads only those crossings (the
// output's last 50% crossing, a path handoff's arrival and 20-80% slew)
// gets the full run's bits, or its error.
func (o Objective) OutputSettled(in *waveform.PWL) (*waveform.PWL, error) {
	o.Sims.Inc()
	out, stopped, err := gatesim.ReceiveSettled(o.Receiver, in, o.Load, gatesim.Options{Ctx: o.Ctx})
	if err != nil {
		return nil, err
	}
	if stopped {
		o.Settled.Inc()
	}
	return out, nil
}

// OutputCross simulates the receiver with input waveform in and returns
// the time of the final 50% crossing of the output transition: the
// Cross of OutputSettled's run, which is the full run's crossing, or
// the full run's error when there is none.
func (o Objective) OutputCross(in *waveform.PWL) (float64, error) {
	out, err := o.OutputSettled(in)
	if err != nil {
		return 0, err
	}
	return o.Cross(out)
}

// Cross returns the final 50% crossing of a receiver output waveform —
// the crossing OutputCross reports, split out so callers that retain
// the output waveform (path-level propagation) measure it identically.
func (o Objective) Cross(out *waveform.PWL) (float64, error) {
	half := o.Vdd() / 2
	if o.outputRising() {
		return out.LastCrossRising(half)
	}
	// Delay is set by the last crossing: noise can cause multiple.
	return out.LastCrossFalling(half)
}

// OutputRising reports the receiver output transition direction.
func (o Objective) OutputRising() bool { return o.outputRising() }

// NoisyInput positions the noise pulse (peak at t = 0 by convention) so
// its peak occurs at tPeak and superposes it on the noiseless input.
func NoisyInput(noiseless, noise *waveform.PWL, tPeak float64) *waveform.PWL {
	return waveform.SumShifted([]*waveform.PWL{noiseless, noise}, []float64{0, tPeak})
}

// InputCross returns the final 50% crossing of the noisy waveform at the
// receiver *input* — the interconnect-only delay objective the paper
// argues against (used by the Fig 3 and Fig 14 baselines).
func (o Objective) InputCross(in *waveform.PWL) (float64, error) {
	half := o.Vdd() / 2
	if o.VictimRising {
		return in.LastCrossRising(half)
	}
	return in.LastCrossFalling(half)
}

// SearchWindow is the sweep range for exhaustive alignment searches,
// derived from the noiseless transition and the pulse width.
func SearchWindow(noiseless, noise *waveform.PWL, vdd float64, rising bool) (lo, hi float64, err error) {
	var t5, t95 float64
	if rising {
		t5, err = noiseless.CrossRising(0.05 * vdd)
		if err == nil {
			t95, err = noiseless.CrossRising(0.95 * vdd)
		}
	} else {
		t5, err = noiseless.CrossFalling(0.95 * vdd)
		if err == nil {
			t95, err = noiseless.CrossFalling(0.05 * vdd)
		}
	}
	if err != nil {
		return 0, 0, noiseerr.Numericalf("align: noiseless waveform has no full transition: %w", err)
	}
	p, err := Params(noise)
	if err != nil {
		return 0, 0, err
	}
	pad := 2 * p.Width
	return t5 - pad, t95 + 2*pad, nil
}

// WorstResult is the outcome of an exhaustive alignment search.
type WorstResult struct {
	TPeak float64 // pulse-peak time of the worst case
	TOut  float64 // receiver output 50% crossing at the worst case
	// Va is the alignment voltage: the noiseless receiver-input value at
	// TPeak (the quantity the pre-characterization tables store).
	Va float64
}

// ExhaustiveWorst sweeps the pulse peak over the search window with nGrid
// points plus two 5-point refinement passes, maximizing the receiver
// output crossing time. This is the expensive search the paper's
// pre-characterization replaces.
func (o Objective) ExhaustiveWorst(noiseless, noise *waveform.PWL, nGrid int) (WorstResult, error) {
	return o.sweep(noiseless, noise, nGrid, true)
}

// ExhaustiveBest is the speed-up dual of ExhaustiveWorst: it sweeps the
// pulse peak to *minimize* the receiver output crossing time. Same-
// direction aggressors accelerate the victim transition; the minimum
// bounds the early edge of downstream timing windows.
func (o Objective) ExhaustiveBest(noiseless, noise *waveform.PWL, nGrid int) (WorstResult, error) {
	return o.sweep(noiseless, noise, nGrid, false)
}

// sweep is the exhaustive search behind ExhaustiveWorst (latest true:
// maximize the output crossing) and ExhaustiveBest (minimize it): nGrid
// points over the search window, then two refinement passes of four
// points around the incumbent at a step 2.5 times finer each. The
// points of the grid, and of each pass, are independent receiver
// simulations, run as the parts of one fork (spare.Do) and folded in
// order, so the incumbent is the one a point-by-point search keeps.
func (o Objective) sweep(noiseless, noise *waveform.PWL, nGrid int, latest bool) (WorstResult, error) {
	if nGrid < 5 {
		nGrid = 5
	}
	lo, hi, err := SearchWindow(noiseless, noise, o.Vdd(), o.VictimRising)
	if err != nil {
		return WorstResult{}, err
	}
	bestT, bestOut := lo, math.Inf(1)
	if latest {
		bestOut = math.Inf(-1)
	}
	var lastErr error
	// try evaluates the alignments tps and keeps, in order, each one
	// that beats the incumbent; only cancellation aborts the search,
	// since some alignments may never cross (pathological noise).
	try := func(tps []float64) error {
		outs := make([]float64, len(tps))
		errs := make([]error, len(tps))
		err := spare.Do(len(tps), func(i int) error {
			if err := o.canceled(); err != nil {
				return err
			}
			outs[i], errs[i] = o.OutputCross(NoisyInput(noiseless, noise, tps[i]))
			if errors.Is(errs[i], noiseerr.ErrCanceled) {
				return errs[i]
			}
			return nil
		})
		if err != nil {
			return err
		}
		for i, tp := range tps {
			switch {
			case errs[i] != nil:
				lastErr = errs[i]
			case (latest && outs[i] > bestOut) || (!latest && outs[i] < bestOut):
				bestT, bestOut = tp, outs[i]
			}
		}
		return nil
	}
	step := (hi - lo) / float64(nGrid-1)
	grid := make([]float64, nGrid)
	for i := range grid {
		grid[i] = lo + float64(i)*step
	}
	if err := try(grid); err != nil {
		return WorstResult{}, err
	}
	if math.IsInf(bestOut, 0) {
		return WorstResult{}, noiseerr.Convergencef("align: no alignment produced an output crossing (last: %w)", lastErr)
	}
	// Two refinement passes around the incumbent.
	for pass := 0; pass < 2; pass++ {
		step /= 2.5
		if err := try([]float64{bestT - 2*step, bestT - step, bestT + step, bestT + 2*step}); err != nil {
			return WorstResult{}, err
		}
	}
	return WorstResult{TPeak: bestT, TOut: bestOut, Va: noiseless.At(bestT)}, nil
}

// canceled converts a fired search context into a classified error.
func (o Objective) canceled() error {
	if o.Ctx == nil {
		return nil
	}
	if err := o.Ctx.Err(); err != nil {
		return noiseerr.Canceled(fmt.Errorf("align: search canceled: %w", err))
	}
	return nil
}

// ReceiverInputSpeedup is the speed-up analog of ReceiverInputAlignment:
// the pulse peak is placed where the noiseless transition reaches
// Vdd/2 - Vp (rising victim, helping pulse), which maximizes the
// interconnect-delay *decrease*.
func ReceiverInputSpeedup(noiseless *waveform.PWL, height, vdd float64, rising bool) (float64, error) {
	vp := math.Abs(height)
	if rising {
		target := vdd/2 - vp
		_, min := noiseless.Min()
		if target <= min {
			target = min + 1e-9
		}
		return noiseless.CrossRising(target)
	}
	target := vdd/2 + vp
	_, max := noiseless.Max()
	if target >= max {
		target = max - 1e-9
	}
	return noiseless.CrossFalling(target)
}

// ReceiverInputAlignment is the baseline alignment of refs [5][6]: the
// composite pulse peak is placed where the noiseless transition reaches
// Vdd/2 + Vp (rising victim; Vdd/2 - Vp falling), which maximizes the
// *interconnect* delay alone. height is the signed pulse peak.
func ReceiverInputAlignment(noiseless *waveform.PWL, height, vdd float64, rising bool) (float64, error) {
	vp := math.Abs(height)
	if rising {
		target := vdd/2 + vp
		_, max := noiseless.Max()
		if target >= max {
			// The pulse is taller than the remaining swing; latest useful
			// point is just before the transition completes.
			target = max - 1e-9
		}
		return noiseless.CrossRising(target)
	}
	target := vdd/2 - vp
	_, min := noiseless.Min()
	if target <= min {
		target = min + 1e-9
	}
	return noiseless.CrossFalling(target)
}
