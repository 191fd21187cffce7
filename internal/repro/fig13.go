package repro

import (
	"fmt"
	"io"

	"repro/internal/delaynoise"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Fig13Point is one net of the Figure 13 scatter: extra delay from the
// two linear driver models against the full nonlinear reference.
type Fig13Point struct {
	Net      int
	Golden   float64 // nonlinear-model extra delay (x axis), s
	Thevenin float64 // linear flow with Rth holding (y axis, baseline)
	Rtr      float64 // linear flow with transient holding R (y axis, ours)
	RthValue float64
	RtrValue float64
}

// Fig13Result is the full experiment outcome.
type Fig13Result struct {
	Points   []Fig13Point
	Thevenin stats.ErrorSummary // vs golden
	Rtr      stats.ErrorSummary // vs golden
	Skipped  int                // nets with no measurable golden delay noise
}

// Fig13 reproduces Figure 13: over a population of coupled nets, compare
// the extra delay computed by the linear superposition flow using (a) the
// traditional Thevenin holding resistance and (b) the paper's transient
// holding resistance, against full nonlinear simulation. The paper
// reports 48.63% average error for (a), 7.41% for (b), with (a) always
// underestimating.
func Fig13(ctx *Context) (*Fig13Result, error) {
	return fig13(ctx, eachNet)
}

// fig13 is Fig13 with the per-net loop supplied: nets are generated in
// order, analyzed by each, and assembled in net order.
func fig13(ctx *Context, each func(n int, fn func(i int))) (*Fig13Result, error) {
	cases, err := population(ctx, workload.NewGenerator(ctx.Lib, workload.DefaultProfile(), ctx.Seed))
	if err != nil {
		return nil, err
	}
	points := make([]*Fig13Point, len(cases))
	each(len(cases), func(i int) {
		// Individual degenerate nets (e.g. noise too small to measure)
		// are skipped, mirroring how a production tool filters nets
		// below its noise floor.
		points[i], _ = fig13Net(cases[i])
	})
	res := &Fig13Result{}
	for i, p := range points {
		if p == nil {
			res.Skipped++
			continue
		}
		p.Net = i
		res.Points = append(res.Points, *p)
	}
	if len(res.Points) == 0 {
		return nil, fmt.Errorf("repro: fig13 produced no valid nets")
	}
	golden := make([]float64, len(res.Points))
	thev := make([]float64, len(res.Points))
	rtr := make([]float64, len(res.Points))
	for i, p := range res.Points {
		golden[i], thev[i], rtr[i] = p.Golden, p.Thevenin, p.Rtr
	}
	const floor = 1e-12 // 1 ps relative-error floor
	if res.Thevenin, err = stats.Compare(thev, golden, floor); err != nil {
		return nil, err
	}
	if res.Rtr, err = stats.Compare(rtr, golden, floor); err != nil {
		return nil, err
	}
	return res, nil
}

func fig13Net(c *delaynoise.Case) (*Fig13Point, error) {
	rtr, err := delaynoise.Analyze(c, delaynoise.Options{
		Hold: delaynoise.HoldTransient, Align: delaynoise.AlignExhaustive,
	})
	if err != nil {
		return nil, err
	}
	thev, err := delaynoise.Analyze(c, delaynoise.Options{
		Hold: delaynoise.HoldThevenin, Align: delaynoise.AlignExhaustive,
	})
	if err != nil {
		return nil, err
	}
	// Reference: nonlinear simulation at the alignment the flow chose.
	shifts := delaynoise.PeakShifts(rtr.NoisePeakTimes, rtr.TPeak)
	golden, err := delaynoise.GoldenAtShifts(c, shifts)
	if err != nil {
		return nil, err
	}
	if golden.DelayNoise < 2e-12 {
		return nil, fmt.Errorf("repro: golden delay noise below floor")
	}
	return &Fig13Point{
		Golden:   golden.DelayNoise,
		Thevenin: thev.DelayNoise,
		Rtr:      rtr.DelayNoise,
		RthValue: rtr.VictimRth,
		RtrValue: rtr.VictimRtr,
	}, nil
}

// Print renders the scatter and the summary lines the paper quotes.
func (r *Fig13Result) Print(w io.Writer) {
	fmt.Fprintln(w, "# Figure 13: linear-model extra delay vs non-linear simulation")
	fmt.Fprintf(w, "%-6s %-14s %-14s %-14s %-10s %-10s\n",
		"net", "golden(ps)", "thevenin(ps)", "rtr(ps)", "Rth(ohm)", "Rtr(ohm)")
	for _, p := range r.Points {
		fmt.Fprintf(w, "%-6d %-14.2f %-14.2f %-14.2f %-10.0f %-10.0f\n",
			p.Net, p.Golden*1e12, p.Thevenin*1e12, p.Rtr*1e12, p.RthValue, p.RtrValue)
	}
	fmt.Fprintf(w, "\nThevenin holding R: %v\n", r.Thevenin)
	fmt.Fprintf(w, "Transient holding R: %v\n", r.Rtr)
	fmt.Fprintf(w, "paper: avg error 48.63%% (Thevenin) vs 7.41%% (transient), Thevenin always underestimates\n")
	fmt.Fprintf(w, "skipped nets: %d\n", r.Skipped)
}
