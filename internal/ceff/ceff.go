// Package ceff implements effective-capacitance iterations (paper refs
// [3][4]): the lumped load a driver "sees" is reduced below the total net
// capacitance by resistive shielding. The iteration alternates between
// fitting a Thevenin model at the current Ceff and matching the charge
// the model delivers into the real RC network against the charge it would
// deliver into the lumped load, up to the driver-output 50% crossing.
package ceff

import (
	"context"
	"fmt"
	"math"

	"repro/internal/device"
	"repro/internal/lsim"
	"repro/internal/mna"
	"repro/internal/netlist"
	"repro/internal/noiseerr"
	"repro/internal/thevenin"
)

// Result bundles the converged effective load and its Thevenin model.
type Result struct {
	Ceff       float64
	Model      thevenin.Model
	CTotal     float64
	Iterations int
}

// Options tune the iteration.
type Options struct {
	Tol     float64 // relative Ceff convergence tolerance (default 1%)
	MaxIter int     // iteration cap (default 10)
}

func (o *Options) defaults() {
	if o.Tol == 0 {
		o.Tol = 0.01
	}
	if o.MaxIter == 0 {
		o.MaxIter = 10
	}
}

// Compute runs C-effective iterations for cell driving the net at
// driveNode with the given input slew/direction. The net must not contain
// a driver at driveNode (the Thevenin model is added internally).
func Compute(cell *device.Cell, inSlew float64, inRising bool, net *netlist.Circuit, driveNode string, opt Options) (Result, error) {
	return ComputeContext(context.Background(), cell, inSlew, inRising, net, driveNode, opt)
}

// ComputeContext is Compute with cancellation support, threaded into the
// Thevenin fits and linear charge-matching runs of every iteration.
func ComputeContext(ctx context.Context, cell *device.Cell, inSlew float64, inRising bool, net *netlist.Circuit, driveNode string, opt Options) (Result, error) {
	opt.defaults()
	cTotal := totalNetCap(net)
	if cTotal <= 0 {
		return Result{}, noiseerr.Invalidf("ceff: net has no capacitance")
	}
	vdd := cell.Tech.Vdd
	ceff := cTotal
	var model thevenin.Model
	for iter := 1; iter <= opt.MaxIter; iter++ {
		m, _, err := thevenin.FitContext(ctx, cell, inSlew, inRising, ceff)
		if err != nil {
			return Result{}, fmt.Errorf("ceff: iteration %d: %w", iter, err)
		}
		model = m
		// Simulate the Thevenin model driving the full net and measure
		// the charge delivered up to the driver-output 50% crossing.
		ckt := net.Clone()
		ckt.AddDriver("__drv", driveNode, m.SourceWaveform(), m.Rth)
		sys, err := mna.Build(ckt)
		if err != nil {
			return Result{}, fmt.Errorf("ceff: %w", err)
		}
		horizon := m.T0 + m.Dt + 30*m.Rth*cTotal
		run := lsim.Options{TStop: horizon, Step: horizon / 3000, InitDC: true, Ctx: ctx}
		// The charge integral reads the driver output only up to its
		// 50% crossing, so the run stops at the step that crosses; its
		// rows are the full-horizon run's first rows.
		res, err := lsim.RunToCrossing(sys, run, driveNode, vdd/2, m.Rising)
		if err != nil {
			return Result{}, fmt.Errorf("ceff: %w", err)
		}
		vOut, err := res.Voltage(driveNode)
		if err != nil {
			return Result{}, fmt.Errorf("ceff: iteration %d: driver output: %w", iter, err)
		}
		var t50 float64
		if m.Rising {
			t50, err = vOut.CrossRising(vdd / 2)
		} else {
			t50, err = vOut.CrossFalling(vdd / 2)
		}
		if err != nil {
			// The driver never got the net to 50%: no shielding estimate
			// possible; keep the total cap.
			ceff = cTotal
			break
		}
		// Charge into the net through Rth up to t50: integral of
		// (Vsrc - Vout)/Rth. For a falling output the delivered charge is
		// negative; use its magnitude.
		src := m.SourceWaveform()
		diff := src.Resample(res.Times[0], t50, 1500)
		if diff.End() > vOut.End() {
			// The grid's last point rounded past the crossing step (t50
			// within an ulp of it): the full-horizon waveform interpolates
			// there, so finish the run to read the same value.
			if res, err = lsim.Run(sys, run); err != nil {
				return Result{}, fmt.Errorf("ceff: %w", err)
			}
			if vOut, err = res.Voltage(driveNode); err != nil {
				return Result{}, fmt.Errorf("ceff: iteration %d: driver output: %w", iter, err)
			}
		}
		var hint int
		iA := (diff.V[0] - vOut.AtHint(diff.T[0], &hint)) / m.Rth
		q := 0.0
		for i := 1; i < diff.Len(); i++ {
			iB := (diff.V[i] - vOut.AtHint(diff.T[i], &hint)) / m.Rth
			q += 0.5 * (iA + iB) * (diff.T[i] - diff.T[i-1])
			iA = iB
		}
		// The lumped model at its own 50% crossing has delivered
		// Ceff * Vdd/2 of charge (plus the same sign convention).
		next := math.Abs(q) / (vdd / 2)
		if next > cTotal {
			next = cTotal
		}
		if next < 1e-18 {
			next = 1e-18
		}
		if math.Abs(next-ceff) <= opt.Tol*ceff {
			return Result{Ceff: next, Model: model, CTotal: cTotal, Iterations: iter}, nil
		}
		ceff = next
	}
	// Return the last iterate even if the tolerance was not met: the
	// remaining error is small in practice and the caller's flow iterates
	// further anyway.
	m, _, err := thevenin.FitContext(ctx, cell, inSlew, inRising, ceff)
	if err != nil {
		return Result{}, fmt.Errorf("ceff: final fit at Ceff=%g: %w", ceff, err)
	}
	return Result{Ceff: ceff, Model: m, CTotal: cTotal, Iterations: opt.MaxIter}, nil
}

// totalNetCap sums all capacitance in the net (grounded and coupling),
// the standard pessimistic lumped value used to start the iteration.
func totalNetCap(net *netlist.Circuit) float64 {
	s := 0.0
	for _, c := range net.Capacitors {
		s += c.C
	}
	return s
}
