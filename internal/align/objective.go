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
	// simulation, by Output and by OutputSettled. Every grid point an
	// exhaustive search evaluates, every refinement point and every delay
	// evaluation funnels through it by way of OutputCross, so a search
	// adds the points its climb needed (see sweep), not the whole grid.
	Sims *metrics.Counter
	// Settled, when non-nil, is incremented once per OutputSettled
	// simulation that the settled-tail certificate ended before its
	// horizon (see gatesim.ReceiveSettled).
	Settled *metrics.Counter
	// Ctx, when non-nil, cancels the receiver simulations and the
	// exhaustive searches (checked before every point a search
	// evaluates).
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

// ExhaustiveWorst searches the pulse peak over the search window for the
// latest receiver output crossing: an nGrid-point grid, climbed from the
// receiver-input alignment of refs [5][6], then two 4-point refinement
// passes (see sweep for the rule and its contract). This is the
// expensive search the paper's pre-characterization replaces. At grid
// 21 it costs 18 receiver simulations on the first default workload
// net, and 29, the whole grid and both passes, when the noise is not a
// single pulse or the grid shows a flat top.
func (o Objective) ExhaustiveWorst(noiseless, noise *waveform.PWL, nGrid int) (WorstResult, error) {
	return o.sweep(noiseless, noise, nGrid, true)
}

// ExhaustiveBest is the speed-up dual of ExhaustiveWorst: it searches the
// pulse peak to *minimize* the receiver output crossing time, climbing
// from the receiver-input speed-up alignment (ReceiverInputSpeedup).
// Same-direction aggressors accelerate the victim transition; the
// minimum bounds the early edge of downstream timing windows.
func (o Objective) ExhaustiveBest(noiseless, noise *waveform.PWL, nGrid int) (WorstResult, error) {
	return o.sweep(noiseless, noise, nGrid, false)
}

// The climb's constants (see sweep). None is settable.
const (
	// climbReach is the half-width of every neighbourhood the search
	// evaluates: the grid points within ±climbReach of the start, and of
	// each incumbent that has an unevaluated neighbour.
	climbReach = 2
	// probeStride spaces the first round's probes of the whole window:
	// every probeStride-th grid point, plus the last.
	probeStride = 4
	// flatTop is the crossing-time distance within which another
	// evaluated point ties the incumbent and sends the search to the
	// whole grid.
	flatTop = 0.01e-12
	// noPeak is the crossing-time distance from the first grid point's
	// crossing within which the incumbent is no peak, only the receiver
	// simulation's step jitter, and sends the search to the whole grid.
	noPeak = 1e-12
)

// sweep is the search behind ExhaustiveWorst (latest true: maximize the
// output crossing) and ExhaustiveBest (minimize it). Its grid is nGrid
// points over the search window, lo + i·step. Its incumbent is the best
// evaluated point, the first in grid order among equals, whatever round
// evaluated it: the fold of a point-by-point search that keeps only a
// strictly better point. Points that fail only feed the error of a
// search that finds no crossing. It evaluates only the grid points a
// climb needs:
//
//  1. First round: if the noise is a single pulse (|noise| is at or
//     above half its peak on one interval only, with one maximum on
//     it), the points within ±climbReach of the one nearest the
//     receiver-input alignment, every probeStride-th point and the
//     last; otherwise the whole grid.
//  2. Climb: while the incumbent has an unevaluated grid neighbour,
//     evaluate the unevaluated points within ±climbReach of it.
//  3. The rest of the grid, when no evaluated point crossed (a failing
//     search fails with the whole grid's error), or on a flat top, where
//     the grid optimum is a rounding artifact only the whole grid
//     reproduces: another evaluated point's crossing lies within
//     flatTop of the incumbent's, or the incumbent's lies within noPeak
//     of the first grid point's, whose pulse peaks two widths before
//     the transition's 5% crossing (the pulse then moves the crossing
//     no further than the simulation's step jitter).
//
// Then two refinement passes of four points around the incumbent, at a
// step 2.5 times finer each. Every round and every pass is one fork
// (spare.Do) of independent receiver simulations.
//
// The contract: the result is the whole grid's, bit for bit, wherever
// the climb reaches the grid optimum. That held on every net, table
// and figure measured: 480 nets of eight populations, 78 tables on
// three corners and the full figures output, and FuzzClimb holds it to
// a copy of the whole-grid search. Each rule was needed for it, as
// removing it showed:
//
//   - Without the probes, FuzzClimb found within seconds a tall pulse
//     whose climb settled on a late local peak.
//   - Without the single-pulse rule, Fig 6's staggered two-pulse
//     composites moved three printed values, by up to 0.92 ps. Without
//     its one-maximum condition, FuzzClimb found two pulses that meet at
//     exactly half their peak, whose climb stopped on the lower of
//     their two delay peaks.
//   - Without the flatTop ties, 41 of 60 nets whose aggressors switch
//     with the victim moved their peak time, and their delay noise by
//     up to 0.0007 ps. Without the noPeak test, FuzzClimb found a pulse
//     that can only speed the victim, whose crossings after the
//     transition jitter by ±0.35 ps with the simulation's steps; the
//     climb settled on another jitter maximum.
//
// Searches of single-pulse nets take about 38% fewer receiver
// simulations than the whole grid; flat tops take as many.
func (o Objective) sweep(noiseless, noise *waveform.PWL, nGrid int, latest bool) (WorstResult, error) {
	if nGrid < 5 {
		nGrid = 5
	}
	lo, hi, err := SearchWindow(noiseless, noise, o.Vdd(), o.VictimRising)
	if err != nil {
		return WorstResult{}, err
	}
	better := func(a, b float64) bool { return (latest && a > b) || (!latest && a < b) }
	none := math.Inf(1)
	if latest {
		none = math.Inf(-1)
	}
	// try evaluates the alignments tps as the parts of one fork; only
	// cancellation aborts it, since some alignments may never cross
	// (pathological noise).
	try := func(tps []float64) ([]float64, []error, error) {
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
		return outs, errs, err
	}

	step := (hi - lo) / float64(nGrid-1)
	grid := make([]float64, nGrid)
	for i := range grid {
		grid[i] = lo + float64(i)*step
	}
	outs := make([]float64, nGrid)
	errs := make([]error, nGrid)
	done := make([]bool, nGrid)
	// visit evaluates, as one round, the unevaluated grid points i for
	// which pick(i) holds.
	visit := func(pick func(i int) bool) error {
		var idx []int
		var tps []float64
		for i, tp := range grid {
			if !done[i] && pick(i) {
				idx, tps = append(idx, i), append(tps, tp)
			}
		}
		got, fails, err := try(tps)
		if err != nil {
			return err
		}
		for k, i := range idx {
			outs[i], errs[i], done[i] = got[k], fails[k], true
		}
		return nil
	}
	// incumbent folds the evaluated points in grid order; -1 when none
	// crossed.
	incumbent := func() int {
		b, bOut := -1, none
		for i := range grid {
			if done[i] && errs[i] == nil && better(outs[i], bOut) {
				b, bOut = i, outs[i]
			}
		}
		return b
	}
	near := func(c int) func(i int) bool {
		return func(i int) bool { return i >= c-climbReach && i <= c+climbReach }
	}
	all := func(int) bool { return true }

	first := all
	if t, ok := o.start(noiseless, noise, latest); ok {
		c := int(clamp(math.Round((t-lo)/step), 0, float64(nGrid-1)))
		first = func(i int) bool { return near(c)(i) || i%probeStride == 0 || i == nGrid-1 }
	}
	if err := visit(first); err != nil {
		return WorstResult{}, err
	}
	b := incumbent()
	for b >= 0 && (b > 0 && !done[b-1] || b < nGrid-1 && !done[b+1]) {
		if err := visit(near(b)); err != nil {
			return WorstResult{}, err
		}
		b = incumbent()
	}
	flat := func() bool {
		if done[0] && errs[0] == nil && math.Abs(outs[b]-outs[0]) <= noPeak {
			return true
		}
		for i := range grid {
			if i != b && done[i] && errs[i] == nil && math.Abs(outs[i]-outs[b]) <= flatTop {
				return true
			}
		}
		return false
	}
	if b < 0 || flat() {
		if err := visit(all); err != nil {
			return WorstResult{}, err
		}
		b = incumbent()
	}
	if b < 0 {
		var lastErr error
		for _, e := range errs {
			if e != nil {
				lastErr = e
			}
		}
		return WorstResult{}, noiseerr.Convergencef("align: no alignment produced an output crossing (last: %w)", lastErr)
	}

	// Two refinement passes around the incumbent.
	bestT, bestOut := grid[b], outs[b]
	for pass := 0; pass < 2; pass++ {
		step /= 2.5
		tps := []float64{bestT - 2*step, bestT - step, bestT + step, bestT + 2*step}
		got, fails, err := try(tps)
		if err != nil {
			return WorstResult{}, err
		}
		for i, tp := range tps {
			if fails[i] == nil && better(got[i], bestOut) {
				bestT, bestOut = tp, got[i]
			}
		}
	}
	return WorstResult{TPeak: bestT, TOut: bestOut, Va: noiseless.At(bestT)}, nil
}

// start returns the alignment the climb starts from, the receiver-input
// alignment of refs [5][6] (ReceiverInputAlignment for the latest
// crossing, ReceiverInputSpeedup for the earliest), and false when the
// first round must be the whole grid: the noise is not a single pulse,
// or that alignment has no time on the noiseless transition.
func (o Objective) start(noiseless, noise *waveform.PWL, latest bool) (float64, bool) {
	p, err := Params(noise)
	if err != nil || !singlePulse(noise, p.Height) {
		return 0, false
	}
	at := ReceiverInputSpeedup
	if latest {
		at = ReceiverInputAlignment
	}
	t, err := at(noiseless, p.Height, o.Vdd(), o.VictimRising)
	return t, err == nil
}

// singlePulse reports whether |noise| is at or above half of |peak| on
// one interval only, and has one maximum there: it does not rise again
// after falling. A segment whose ends are both below the level stays
// below it, one whose ends are both above it dips below it when it
// changes sign, and otherwise |noise| is monotone along it.
func singlePulse(noise *waveform.PWL, peak float64) bool {
	half := math.Abs(peak) / 2
	runs, falling := 0, false
	for i, v := range noise.V {
		a := math.Abs(v)
		switch {
		case a < half:
		case i == 0 || math.Abs(noise.V[i-1]) < half || (noise.V[i-1] < 0) != (v < 0):
			runs, falling = runs+1, false
		case a < math.Abs(noise.V[i-1]):
			falling = true
		case a > math.Abs(noise.V[i-1]) && falling:
			return false
		}
	}
	return runs == 1
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
