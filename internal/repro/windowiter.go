package repro

import (
	"fmt"
	"io"

	"repro/internal/delaynoise"
	"repro/internal/rcnet"
	"repro/internal/sta"
)

// WindowIterationResult captures the refs [8][9] flow: the timing-window
// / delay-noise fixpoint over a small block.
type WindowIterationResult struct {
	Iterations int
	Converged  bool
	Nets       []sta.NetResult
}

// WindowIteration builds a three-stage block (one window-constrained
// aggressor) and runs the fixpoint.
//
//lint:ignore noiselint/testonly paper entry point (refs [8][9] window/noise iteration) that only BenchmarkSTAWindowIteration in bench_test.go drives
func WindowIteration(ctx *Context) (*WindowIterationResult, error) {
	mk := func(prefix, victim, agg, recv string) (*delaynoise.Case, error) {
		vic, err := ctx.Lib.Cell(victim)
		if err != nil {
			return nil, err
		}
		ag, err := ctx.Lib.Cell(agg)
		if err != nil {
			return nil, err
		}
		rc, err := ctx.Lib.Cell(recv)
		if err != nil {
			return nil, err
		}
		net := rcnet.Build(rcnet.CoupledSpec{
			Victim: rcnet.LineSpec{Name: prefix + ".v", Segments: 5, RTotal: 350, CGround: 35e-15},
			Aggressors: []rcnet.AggressorSpec{
				{Line: rcnet.LineSpec{Name: prefix + ".a", Segments: 5, RTotal: 250, CGround: 30e-15},
					CCouple: 28e-15, From: 0, To: 1},
			},
		})
		return &delaynoise.Case{
			Net: net,
			Victim: delaynoise.DriverSpec{Cell: vic, InputSlew: 300e-12,
				OutputRising: true, InputStart: 200e-12},
			Aggressors: []delaynoise.DriverSpec{
				{Cell: ag, InputSlew: 80e-12, OutputRising: false, InputStart: 400e-12},
			},
			Receiver:     rc,
			ReceiverLoad: 10e-15,
		}, nil
	}
	c0, err := mk("w0", "INVX2", "INVX8", "INVX2")
	if err != nil {
		return nil, err
	}
	c1, err := mk("w1", "INVX2", "INVX16", "INVX4")
	if err != nil {
		return nil, err
	}
	c2, err := mk("w2", "INVX4", "INVX16", "INVX2")
	if err != nil {
		return nil, err
	}
	block := &sta.Block{Nets: []sta.NetDef{
		{Name: "n0", Case: c0, FanIn: -1,
			InputWindow: sta.Window{Lo: 200e-12, Hi: 320e-12}, AggWindows: []int{-1}},
		{Name: "n1", Case: c1, FanIn: 0, AggWindows: []int{-1}},
		{Name: "n2", Case: c2, FanIn: 1, AggWindows: []int{0}},
	}}
	res, err := sta.Analyze(block, sta.Options{})
	if err != nil {
		return nil, err
	}
	return &WindowIterationResult{
		Iterations: res.Iterations,
		Converged:  res.Converged,
		Nets:       res.Nets,
	}, nil
}

// Print renders the block outcome.
//
//lint:ignore noiselint/testonly renders WindowIteration, which only bench_test.go drives
func (r *WindowIterationResult) Print(w io.Writer) {
	fmt.Fprintln(w, "# Refs [8][9] flow: timing-window / delay-noise fixpoint")
	fmt.Fprintf(w, "converged=%v after %d iterations\n", r.Converged, r.Iterations)
	for _, n := range r.Nets {
		fmt.Fprintf(w, "%-4s window [%.1f, %.1f]ps -> [%.1f, %.1f]ps, noise %.2fps, constrained=%v\n",
			n.Name, n.Window.Lo*1e12, n.Window.Hi*1e12,
			n.OutWindow.Lo*1e12, n.OutWindow.Hi*1e12, n.DelayNoise*1e12, n.Constrained)
	}
}
