// Package sweep is the sensitivity-analysis harness: it varies one
// parameter of a reference case across a range, re-runs the delay-noise
// analysis per point (optionally with the nonlinear reference), and
// tabulates how the noise and the model errors move. This is how the
// repository's workload profile was tuned and how a user explores which
// parameter their own nets are most sensitive to.
package sweep

import (
	"context"
	"fmt"
	"io"

	"repro/internal/delaynoise"
	"repro/internal/noiseerr"
	"repro/internal/rcnet"
)

// Param identifies the swept parameter.
type Param int

const (
	// CouplingRatio scales every aggressor's coupling capacitance
	// relative to the reference case.
	CouplingRatio Param = iota
	// VictimSlew sets the victim driver's input transition time.
	VictimSlew
	// AggressorSlew sets every aggressor's input transition time.
	AggressorSlew
	// ReceiverLoad sets the receiver output load capacitance.
	ReceiverLoad
)

// String names the swept parameter for reports.
func (p Param) String() string {
	switch p {
	case CouplingRatio:
		return "coupling-ratio"
	case VictimSlew:
		return "victim-slew"
	case AggressorSlew:
		return "aggressor-slew"
	default:
		return "receiver-load"
	}
}

// Point is one swept sample.
type Point struct {
	Value      float64 // the swept parameter's value
	DelayNoise float64 // linear flow (transient holding R), s
	Thevenin   float64 // linear flow (Thevenin holding R), s
	Golden     float64 // nonlinear reference at the flow's alignment, s (0 if skipped)
	PulseV     float64 // composite pulse height, V (signed)
	RtrOverRth float64
}

// Result is a completed sweep.
type Result struct {
	Param  Param
	Points []Point
}

// Options configure the sweep.
type Options struct {
	// Golden enables the nonlinear reference per point (the expensive
	// part).
	Golden bool
	// Analysis forwards engine knobs; Hold/Align are managed by the
	// sweep itself.
	Analysis delaynoise.Options
}

// Run sweeps param over values, rebuilding the case at each point.
// The reference case is not modified.
func Run(ref *delaynoise.Case, param Param, values []float64, opt Options) (*Result, error) {
	return RunContext(context.Background(), ref, param, values, opt)
}

// RunContext is Run with cancellation support: the context is threaded
// into every per-point analysis (and the nonlinear reference when
// enabled) and checked between points.
func RunContext(ctx context.Context, ref *delaynoise.Case, param Param, values []float64, opt Options) (*Result, error) {
	if err := ref.Validate(); err != nil {
		return nil, err
	}
	if len(values) == 0 {
		return nil, noiseerr.Invalidf("sweep: no values")
	}
	res := &Result{Param: param}
	for _, v := range values {
		if err := ctx.Err(); err != nil {
			return nil, noiseerr.Canceled(fmt.Errorf("sweep: canceled at %v=%g: %w", param, v, err))
		}
		c, err := applyParam(ref, param, v)
		if err != nil {
			return nil, err
		}
		aOpt := opt.Analysis
		aOpt.Hold = delaynoise.HoldTransient
		aOpt.Align = delaynoise.AlignExhaustive
		rtr, err := delaynoise.AnalyzeContext(ctx, c, aOpt)
		if err != nil {
			return nil, fmt.Errorf("sweep: %v=%g: %w", param, v, err)
		}
		aOpt.Hold = delaynoise.HoldThevenin
		thev, err := delaynoise.AnalyzeContext(ctx, c, aOpt)
		if err != nil {
			return nil, fmt.Errorf("sweep: %v=%g (thevenin): %w", param, v, err)
		}
		p := Point{
			Value:      v,
			DelayNoise: rtr.DelayNoise,
			Thevenin:   thev.DelayNoise,
			PulseV:     rtr.Pulse.Height,
			RtrOverRth: rtr.VictimRtr / rtr.VictimRth,
		}
		if opt.Golden {
			g, err := delaynoise.GoldenAtShiftsContext(ctx, c, delaynoise.PeakShifts(rtr.NoisePeakTimes, rtr.TPeak))
			if err != nil {
				return nil, fmt.Errorf("sweep: %v=%g (golden): %w", param, v, err)
			}
			p.Golden = g.DelayNoise
		}
		res.Points = append(res.Points, p)
	}
	return res, nil
}

// applyParam clones the reference case with the parameter set to v.
func applyParam(ref *delaynoise.Case, param Param, v float64) (*delaynoise.Case, error) {
	out := *ref
	out.Aggressors = append([]delaynoise.DriverSpec(nil), ref.Aggressors...)
	switch param {
	case CouplingRatio:
		if v <= 0 {
			return nil, noiseerr.Invalidf("sweep: coupling ratio must be positive, got %g", v)
		}
		spec := ref.Net.Spec
		spec.Aggressors = append([]rcnet.AggressorSpec(nil), spec.Aggressors...)
		for i := range spec.Aggressors {
			spec.Aggressors[i].CCouple *= v
		}
		out.Net = rcnet.Build(spec)
	case VictimSlew:
		if v <= 0 {
			return nil, noiseerr.Invalidf("sweep: victim slew must be positive, got %g", v)
		}
		out.Victim.InputSlew = v
	case AggressorSlew:
		if v <= 0 {
			return nil, noiseerr.Invalidf("sweep: aggressor slew must be positive, got %g", v)
		}
		for i := range out.Aggressors {
			out.Aggressors[i].InputSlew = v
		}
	case ReceiverLoad:
		if v < 0 {
			return nil, noiseerr.Invalidf("sweep: receiver load must be non-negative, got %g", v)
		}
		out.ReceiverLoad = v
	default:
		return nil, noiseerr.Invalidf("sweep: unknown parameter %d", param)
	}
	return &out, nil
}

// Print renders the sweep as an aligned table. Parameter values are
// shown in natural units (ratio, or ps/fF).
func (r *Result) Print(w io.Writer) {
	scale, unit := 1.0, ""
	switch r.Param {
	case VictimSlew, AggressorSlew:
		scale, unit = 1e12, "ps"
	case ReceiverLoad:
		scale, unit = 1e15, "fF"
	}
	fmt.Fprintf(w, "# sweep: %v\n", r.Param)
	fmt.Fprintf(w, "%-14s %-12s %-14s %-12s %-10s %-10s\n",
		fmt.Sprintf("value(%s)", orDash(unit)), "rtr(ps)", "thevenin(ps)", "golden(ps)", "pulse(V)", "Rtr/Rth")
	for _, p := range r.Points {
		golden := "-"
		if p.Golden != 0 {
			golden = fmt.Sprintf("%.2f", p.Golden*1e12)
		}
		fmt.Fprintf(w, "%-14.3g %-12.2f %-14.2f %-12s %-10.3f %-10.2f\n",
			p.Value*scale, p.DelayNoise*1e12, p.Thevenin*1e12, golden, p.PulseV, p.RtrOverRth)
	}
}

func orDash(s string) string {
	if s == "" {
		return "ratio"
	}
	return s
}
