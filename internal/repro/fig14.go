package repro

import (
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/align"
	"repro/internal/delaynoise"
	"repro/internal/device"
	"repro/internal/memo"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Fig14Point is one net of the Figure 14 scatter: delay noise at the
// predicted alignments against the exhaustive worst-case search.
type Fig14Point struct {
	Net        int
	Exhaustive float64 // golden worst-case delay noise (x axis), s
	Ours       float64 // golden delay noise at the prechar-table alignment, s
	Baseline   float64 // golden delay noise at the [5] receiver-input alignment, s
}

// Fig14Result is the full experiment outcome.
type Fig14Result struct {
	Points   []Fig14Point
	Ours     stats.ErrorSummary
	Baseline stats.ErrorSummary
	Skipped  int
	// GlitchRegime counts nets excluded because the exhaustive search's
	// worst case sat at the late edge of the sweep window: there the
	// composite pulse lands after the transition and re-crosses the
	// receiver (the functional-noise failure mode the paper's Figure 3
	// distinguishes from delay noise; it grows without bound as the pulse
	// moves later, so no finite alignment is "worst").
	GlitchRegime int
}

// Fig14 reproduces Figure 14: over a net population, compare the delay
// noise realized by (a) the paper's pre-characterized receiver-output
// alignment and (b) the [5] receiver-input alignment against an
// exhaustive worst-case search, all evaluated with full nonlinear
// simulations. The paper reports worst-case errors of ~15 ps (ours) vs
// ~31 ps ([5]).
func Fig14(ctx *Context) (*Fig14Result, error) {
	return fig14(ctx, eachNet)
}

// fig14Table keys the alignment tables: one per receiver cell and
// victim direction.
type fig14Table struct {
	cell   string
	rising bool
}

// fig14 is Fig14 with the per-net loop supplied: nets are generated in
// order, analyzed by each, and assembled in net order. Nets that share
// a receiver and direction share its table, built once under single
// flight.
func fig14(ctx *Context, each func(n int, fn func(i int))) (*Fig14Result, error) {
	cases, err := population(ctx, workload.NewGenerator(ctx.Lib, workload.DefaultProfile(), ctx.Seed+1))
	if err != nil {
		return nil, err
	}
	tables := memo.New[fig14Table, *align.Table](nil)
	tableFor := func(cell *device.Cell, rising bool) (*align.Table, error) {
		t, _, err := tables.Do(fig14Table{cell.Name, rising}, func() (*align.Table, error) {
			cfg := align.DefaultConfig(ctx.Tech)
			cfg.Grid = 17
			return align.Precharacterize(cell, rising, cfg)
		})
		return t, err
	}
	points := make([]*Fig14Point, len(cases))
	errs := make([]error, len(cases))
	tabErrs := make([]error, len(cases)) // a failed table build fails the figure
	each(len(cases), func(i int) {
		c := cases[i]
		tab, err := tableFor(c.Receiver, c.Victim.OutputRising)
		if err != nil {
			tabErrs[i] = err
			return
		}
		points[i], errs[i] = fig14Net(c, tab)
	})
	res := &Fig14Result{}
	for i, p := range points {
		switch {
		case tabErrs[i] != nil:
			return nil, tabErrs[i]
		case p != nil:
			p.Net = i
			res.Points = append(res.Points, *p)
		case errors.Is(errs[i], errGlitchRegime):
			res.GlitchRegime++
		default:
			res.Skipped++
		}
	}
	if len(res.Points) == 0 {
		return nil, fmt.Errorf("repro: fig14 produced no valid nets")
	}
	exh := make([]float64, len(res.Points))
	ours := make([]float64, len(res.Points))
	base := make([]float64, len(res.Points))
	for i, p := range res.Points {
		exh[i], ours[i], base[i] = p.Exhaustive, p.Ours, p.Baseline
	}
	if res.Ours, err = stats.Compare(ours, exh, 1e-12); err != nil {
		return nil, err
	}
	if res.Baseline, err = stats.Compare(base, exh, 1e-12); err != nil {
		return nil, err
	}
	return res, nil
}

func fig14Net(c *delaynoise.Case, tab *align.Table) (*Fig14Point, error) {
	// Linear flow once with each alignment method to get the predicted
	// pulse positions.
	ours, err := delaynoise.Analyze(c, delaynoise.Options{
		Hold: delaynoise.HoldTransient, Align: delaynoise.AlignPrechar, Table: tab,
	})
	if err != nil {
		return nil, err
	}
	base, err := delaynoise.Analyze(c, delaynoise.Options{
		Hold: delaynoise.HoldTransient, Align: delaynoise.AlignReceiverInput,
	})
	if err != nil {
		return nil, err
	}
	// Realize each predicted alignment in the nonlinear circuit.
	goldenAt := func(r *delaynoise.Result) (float64, error) {
		g, err := delaynoise.GoldenAtShifts(c, delaynoise.PeakShifts(r.NoisePeakTimes, r.TPeak))
		if err != nil {
			return 0, err
		}
		return g.DelayNoise, nil
	}
	oursGolden, err := goldenAt(ours)
	if err != nil {
		return nil, err
	}
	baseGolden, err := goldenAt(base)
	if err != nil {
		return nil, err
	}
	// Exhaustive worst case over a common aggressor shift window wide
	// enough to cover the whole victim transition.
	span := c.Victim.InputSlew + 400e-12
	worst, err := delaynoise.GoldenWorstCase(c, span, 13)
	if err != nil {
		return nil, err
	}
	if worst.DelayNoise < 2e-12 {
		return nil, fmt.Errorf("repro: exhaustive delay noise below floor")
	}
	// Worst case at the late window edge = the re-crossing (functional
	// noise) regime, outside the delay-noise alignment problem.
	step := 2 * span / 12
	if worst.Shift >= span-step {
		return nil, errGlitchRegime
	}
	// Predictions cannot beat the (finite-grid) exhaustive search by much;
	// clamp tiny overshoots from grid resolution.
	exh := math.Max(worst.DelayNoise, math.Max(oursGolden, baseGolden))
	return &Fig14Point{Exhaustive: exh, Ours: oursGolden, Baseline: baseGolden}, nil
}

// Print renders the scatter and summary.
func (r *Fig14Result) Print(w io.Writer) {
	fmt.Fprintln(w, "# Figure 14: predicted alignment vs exhaustive worst-case search (nonlinear)")
	fmt.Fprintf(w, "%-6s %-14s %-14s %-16s\n", "net", "exhaust(ps)", "ours(ps)", "align-0.5Vdd(ps)")
	for _, p := range r.Points {
		fmt.Fprintf(w, "%-6d %-14.2f %-14.2f %-16.2f\n",
			p.Net, p.Exhaustive*1e12, p.Ours*1e12, p.Baseline*1e12)
	}
	fmt.Fprintf(w, "\nours (receiver-output objective, 8-point table): %v\n", r.Ours)
	fmt.Fprintf(w, "baseline [5] (receiver-input objective): %v\n", r.Baseline)
	fmt.Fprintf(w, "paper: worst error 15 ps (ours) vs 31 ps ([5])\n")
	fmt.Fprintf(w, "skipped nets: %d; glitch-regime nets excluded: %d\n", r.Skipped, r.GlitchRegime)
}

// errGlitchRegime marks nets whose exhaustive worst case is a late
// re-crossing rather than a delay-noise alignment.
var errGlitchRegime = errors.New("repro: exhaustive worst case in the glitch regime")
