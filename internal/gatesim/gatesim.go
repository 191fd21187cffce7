// Package gatesim wraps the nonlinear simulator with the gate-level
// simulations the characterization flows need: a cell driving a lumped
// load, optionally with an injected noise current at its output, and a
// cell driving a full linear interconnect. The simulation horizon adapts
// until the output transition is complete.
package gatesim

import (
	"context"
	"fmt"
	"math"

	"repro/internal/device"
	"repro/internal/netlist"
	"repro/internal/nlsim"
	"repro/internal/noiseerr"
	"repro/internal/waveform"
)

// InputStart is the conventional start time of the switching input ramp.
// Keeping a positive pad before the edge gives every simulation a clean
// settled prefix.
const InputStart = 100e-12

// cellInstance is the instance name of the cell in every cell-level
// circuit; its internal nodes are named cellInstance + "." + local.
const cellInstance = "u"

// Input builds the standard input ramp for a characterization run.
// slew is the full 0-100% transition time of the saturated ramp.
func Input(tech *device.Technology, slew float64, rising bool) *waveform.PWL {
	if rising {
		return waveform.Ramp(InputStart, slew, 0, tech.Vdd)
	}
	return waveform.Ramp(InputStart, slew, tech.Vdd, 0)
}

// Options tune the adaptive runs.
type Options struct {
	Step    float64 // integration step (default: horizon/4000, min 0.1 ps)
	Horizon float64 // initial horizon guess (default: estimated)
	// Ctx, when non-nil, cancels the underlying nonlinear runs (see
	// nlsim.Options.Ctx).
	Ctx context.Context
}

// estimateHorizon guesses how long the cell needs to finish driving cload
// plus the input transition, from a crude drive-resistance estimate.
func estimateHorizon(cell *device.Cell, slew, cload float64) float64 {
	// Effective drive resistance ~ Vdd/2 / Idsat of the weaker polarity.
	tech := cell.Tech
	rEst := 0.0
	for _, f := range cell.FETs {
		if f.G != device.PinIn {
			continue
		}
		idsat, _, _ := f.Params.Eval(f.W, tech.Vdd, tech.Vdd, false)
		if idsat > 0 {
			r := tech.Vdd / 2 / idsat
			if r > rEst {
				rEst = r
			}
		}
	}
	if rEst == 0 {
		rEst = 1e3
	}
	c := cload + cell.OutputCap()
	return InputStart + slew + 25*rEst*c + 200e-12
}

// step returns the integration step for a horizon.
func (o Options) step(horizon float64) float64 {
	if o.Step > 0 {
		return o.Step
	}
	st := horizon / 4000
	if st < 0.1e-12 {
		st = 0.1e-12
	}
	return st
}

// Drive simulates the cell driving a lumped capacitor, with an optional
// current injection inj at the output (nil for none), and returns the
// output waveform. The horizon doubles until the output has settled to
// within 1% of a rail (up to 4 doublings).
func Drive(cell *device.Cell, slew float64, inRising bool, cload float64, inj *waveform.PWL, opt Options) (*waveform.PWL, error) {
	r, err := DriveWithHorizon(cell, slew, inRising, cload, inj, opt)
	return r.Out, err
}

// DriveResult is the outcome of Drive's adaptive horizon search.
type DriveResult struct {
	Out     *waveform.PWL
	Horizon float64 // horizon of the final attempt
	// Settled is false when the doubling cap, not a settled output,
	// ended the search.
	Settled bool
}

// DriveWithHorizon is Drive reporting how its horizon search ended. When
// the result settled, a Drive with the same inputs started at Horizon
// repeats the final attempt and returns Out bit for bit.
func DriveWithHorizon(cell *device.Cell, slew float64, inRising bool, cload float64, inj *waveform.PWL, opt Options) (DriveResult, error) {
	return drive(cell, slew, inRising, cload, inj, opt, false)
}

// DriveSettled is DriveWithHorizon without an injection, each attempt
// stopped at a certified settled tail: once the input ramp has ended
// and the output and every gate-driving internal node sit within 0.5%
// of Vdd of the DC operating point at the final input rail, before
// settled's window opens. Horizon, Settled and the 10/50/90% crossings
// of Out are the full search's; Out itself ends at the stop, so it
// serves callers that read only those crossings (the Thevenin fit).
func DriveSettled(cell *device.Cell, slew float64, inRising bool, cload float64, opt Options) (DriveResult, error) {
	return drive(cell, slew, inRising, cload, nil, opt, true)
}

// drive runs the horizon search; stopTail arms the drive certificate
// on every attempt.
func drive(cell *device.Cell, slew float64, inRising bool, cload float64, inj *waveform.PWL, opt Options, stopTail bool) (DriveResult, error) {
	tech := cell.Tech
	horizon := opt.Horizon
	if horizon == 0 {
		horizon = estimateHorizon(cell, slew, cload)
	}
	if inj != nil && inj.End() > horizon {
		horizon = inj.End() + 100e-12
	}
	outRising := cell.OutputRisingFor(inRising)
	for attempt := 0; ; attempt++ {
		c, out := cellCircuit(cell, Input(tech, slew, inRising), inj, cload)
		step := opt.step(horizon)
		nopt := nlsim.Options{TStop: horizon, Step: step, Ctx: opt.Ctx}
		var tail *driveTail
		if stopTail {
			tail = newDriveTail(opt.Ctx, c, out, cell, slew, inRising, 0.9*horizon-step)
			nopt.Stop = tail.stop
		}
		res, err := nlsim.Run(c, nopt)
		if err != nil {
			return DriveResult{}, fmt.Errorf("gatesim: drive sim failed: %w", err)
		}
		v, err := res.Voltage("out")
		if err != nil {
			return DriveResult{}, err
		}
		if tail != nil && tail.stopped {
			return DriveResult{Out: v, Horizon: horizon, Settled: true}, nil
		}
		if ok := settled(v, tech.Vdd, outRising); ok || attempt >= 4 {
			return DriveResult{Out: v, Horizon: horizon, Settled: ok}, nil
		}
		horizon *= 2
	}
}

// settled reports whether the waveform has completed a transition toward
// the rail implied by outRising and stays there over the final 10% of the
// window. When a noise injection is present the waveform may end slightly
// off-rail; the 2% band absorbs that.
func settled(v *waveform.PWL, vdd float64, outRising bool) bool {
	end := v.End()
	start := v.Start()
	checkFrom := end - 0.1*(end-start)
	target := 0.0
	if outRising {
		target = vdd
	}
	for _, frac := range []float64{0, 0.25, 0.5, 0.75, 1} {
		t := checkFrom + frac*(end-checkFrom)
		if math.Abs(v.At(t)-target) > 0.02*vdd {
			return false
		}
	}
	return true
}

// Receive simulates a receiver cell whose input is prescribed by the
// waveform in (the paper's Figure 1(d) receiver simulation: the noisy
// superposed waveform drives the gate directly) into a lumped output
// load, and returns the receiver output waveform. The horizon extends
// beyond the input waveform's end to let the output settle.
func Receive(cell *device.Cell, in *waveform.PWL, cload float64, opt Options) (*waveform.PWL, error) {
	out, _, err := receive(cell, in, cload, opt, false)
	return out, err
}

// ReceiveSettled is Receive stopped at a certified settled tail: the
// first step from which the input stays within 2% of Vdd of one rail
// to the end of the run, and at which the output and every internal
// node driving a FET gate sit within 2% of Vdd of the DC operating
// point at that rail. The opposite network is then cut off, so no later
// step can carry the output back to Vdd/2. The returned waveform is
// Receive's first rows and holds every output crossing of the full run
// (the last one included); stopped reports whether the certificate
// ended the run before its horizon.
func ReceiveSettled(cell *device.Cell, in *waveform.PWL, cload float64, opt Options) (out *waveform.PWL, stopped bool, err error) {
	return receive(cell, in, cload, opt, true)
}

// receive runs one receiver simulation; stopTail arms the receiver
// certificate.
func receive(cell *device.Cell, in *waveform.PWL, cload float64, opt Options, stopTail bool) (*waveform.PWL, bool, error) {
	horizon := opt.Horizon
	if horizon == 0 {
		est := estimateHorizon(cell, 0, cload)
		horizon = in.End() + (est - InputStart)
	}
	c, out := cellCircuit(cell, in, nil, cload)
	nopt := nlsim.Options{TStop: horizon, Step: opt.step(horizon), Ctx: opt.Ctx}
	var tail *receiverTail
	if stopTail {
		tail = newReceiverTail(opt.Ctx, c, out, cell, in)
		nopt.Stop = tail.stop
	}
	res, err := nlsim.Run(c, nopt)
	if err != nil {
		return nil, false, fmt.Errorf("gatesim: receiver sim failed: %w", err)
	}
	v, err := res.Voltage("out")
	return v, tail != nil && tail.stopped, err
}

// cellCircuit builds the circuit of every cell-level run: the cell with
// its input prescribed by in, driving cload and, when inj is non-nil,
// an injected current at its output. The certificates build the same
// circuit around a constant input, so the state indices agree.
func cellCircuit(cell *device.Cell, in, inj *waveform.PWL, cload float64) (*nlsim.Circuit, nlsim.Ref) {
	c := nlsim.NewCircuit()
	inRef := c.Fixed("in", in)
	out := c.Node("out")
	c.AddCell(cell, cellInstance, inRef, out)
	if cload > 0 {
		c.AddC(out, nlsim.Ground, cload)
	}
	if inj != nil {
		c.AddI(out, inj)
	}
	return c, out
}

// SwitchingThreshold returns the DC input voltage at which the cell's
// output crosses Vdd/2 — the static switching point that determines how
// deep an input noise pulse must dip to disturb the output.
func SwitchingThreshold(cell *device.Cell) (float64, error) {
	return SwitchingThresholdContext(context.Background(), cell)
}

// SwitchingThresholdContext is SwitchingThreshold with cancellation
// support for the DC bisection sweep.
func SwitchingThresholdContext(ctx context.Context, cell *device.Cell) (float64, error) {
	vdd := cell.Tech.Vdd
	outAt := func(vin float64) (float64, error) {
		c := nlsim.NewCircuit()
		in := c.Fixed("in", waveform.Constant(vin))
		out := c.Node("out")
		c.AddCell(cell, "u", in, out)
		x, err := nlsim.DCContext(ctx, c, 0, nil)
		if err != nil {
			return 0, err
		}
		return nlsim.StateOf(c, x, out)
	}
	lo, hi := 0.0, vdd
	vLo, err := outAt(lo)
	if err != nil {
		return 0, fmt.Errorf("gatesim: threshold sweep: %w", err)
	}
	vHi, err := outAt(hi)
	if err != nil {
		return 0, fmt.Errorf("gatesim: threshold sweep: %w", err)
	}
	if (vLo-vdd/2)*(vHi-vdd/2) > 0 {
		return 0, noiseerr.Numericalf("gatesim: %s output never crosses Vdd/2", cell.Name)
	}
	falling := vLo > vHi // inverting cell: output falls as input rises
	for i := 0; i < 40; i++ {
		mid := 0.5 * (lo + hi)
		v, err := outAt(mid)
		if err != nil {
			return 0, err
		}
		if (v > vdd/2) == falling {
			lo = mid
		} else {
			hi = mid
		}
	}
	return 0.5 * (lo + hi), nil
}

// DriveNet simulates the cell driving the named node of a linear netlist
// (the full interconnect) and returns the voltage waveforms at the
// requested probe nodes plus the driver output node itself.
func DriveNet(cell *device.Cell, slew float64, inRising bool, nl *netlist.Circuit, outNode string, horizon, step float64, probes ...string) (map[string]*waveform.PWL, error) {
	return DriveNetContext(context.Background(), cell, slew, inRising, nl, outNode, horizon, step, probes...)
}

// DriveNetContext is DriveNet with cancellation support.
func DriveNetContext(ctx context.Context, cell *device.Cell, slew float64, inRising bool, nl *netlist.Circuit, outNode string, horizon, step float64, probes ...string) (map[string]*waveform.PWL, error) {
	tech := cell.Tech
	c := nlsim.NewCircuit()
	in := c.Fixed("in", Input(tech, slew, inRising))
	out := c.Node(outNode)
	c.ImportLinear(nl)
	c.AddCell(cell, "u", in, out)
	res, err := nlsim.Run(c, nlsim.Options{TStop: horizon, Step: step, Ctx: ctx})
	if err != nil {
		return nil, fmt.Errorf("gatesim: net sim failed: %w", err)
	}
	outMap := map[string]*waveform.PWL{}
	for _, p := range append([]string{outNode}, probes...) {
		v, err := res.Voltage(p)
		if err != nil {
			return nil, err
		}
		outMap[p] = v
	}
	return outMap, nil
}
