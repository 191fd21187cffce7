package gatesim

import (
	"context"
	"math"
	"slices"

	"repro/internal/device"
	"repro/internal/nlsim"
	"repro/internal/waveform"
)

// Settled-tail certificates: the nlsim.Options.Stop hooks behind
// ReceiveSettled and DriveSettled. Each ends a run at a step from which
// no later step can move a crossing its caller reads, so the stopped
// rows hold everything the full run would have given that caller. The
// bands are fractions of Vdd.
const (
	// receiverBand is the receiver certificate's band: the input pinned
	// within it of a rail, the watched nodes within it of their DC
	// values there.
	receiverBand = 0.02
	// driveBand is the Thevenin-fit drive certificate's band for the
	// watched nodes, tighter than settled's 2% so that a stopped attempt
	// is one settled would have accepted.
	driveBand = 0.005
)

// tailWatch compares the watched nodes of a run, the output and every
// internal node that drives a FET gate (BUFX4's x), against the DC
// operating point of the same cell with its input held at a rail. Stack
// nodes such as NAND2's mid drive no gate, so they are not watched.
type tailWatch struct {
	cell *device.Cell
	ctx  context.Context // may be nil, as Options.Ctx may
	idx  []int           // state indices of the watched nodes, output first
	dc   [2][]float64    // their DC values with the input at 0 and at Vdd, solved on first use
	band float64         // volts
	// stopped records that the certificate ended the run.
	stopped bool
}

func newTailWatch(ctx context.Context, c *nlsim.Circuit, out nlsim.Ref, cell *device.Cell, frac float64) tailWatch {
	w := tailWatch{cell: cell, ctx: ctx, idx: []int{c.StateIndex(out)}, band: frac * cell.Tech.Vdd}
	for _, f := range cell.FETs {
		switch f.G {
		case device.PinIn, device.PinOut, device.PinVdd, device.PinGnd:
			continue
		}
		if i := c.StateIndex(c.Node(cellInstance + "." + f.G)); !slices.Contains(w.idx, i) {
			w.idx = append(w.idx, i)
		}
	}
	return w
}

// dcAt returns the watched nodes' DC values with the input at rail (0
// for ground, 1 for Vdd), solving once per run. Capacitors carry no DC
// current, so the load is left out. A failed solve gives NaN, which
// near never accepts: without an operating point the run goes full.
func (w *tailWatch) dcAt(rail int) []float64 {
	if w.dc[rail] == nil {
		c, _ := cellCircuit(w.cell, waveform.Constant(float64(rail)*w.cell.Tech.Vdd), nil, 0)
		var x []float64
		var err error
		if w.ctx != nil {
			x, err = nlsim.DCContext(w.ctx, c, 0, nil)
		} else {
			x, err = nlsim.DC(c, 0, nil)
		}
		v := make([]float64, len(w.idx))
		for k, i := range w.idx {
			v[k] = math.NaN()
			if err == nil {
				v[k] = x[i]
			}
		}
		w.dc[rail] = v
	}
	return w.dc[rail]
}

// near reports whether every watched node of state x sits within the
// band of its DC value at rail.
func (w *tailWatch) near(rail int, x []float64) bool {
	for k, v := range w.dcAt(rail) {
		if !(math.Abs(x[w.idx[k]]-v) <= w.band) {
			return false
		}
	}
	return true
}

// receiverTail is the receiver certificate. A step qualifies when the
// input stays within the band of one rail from the step to the end of
// the run and the watched nodes sit within the band of their DC values
// at that rail. The opposite network is then cut off and the output
// only relaxes toward its rail, so the run's last Vdd/2 crossing is
// already in the rows.
type receiverTail struct {
	tailWatch
	in *waveform.PWL
	// pinned[r] is the first breakpoint of in from which every value
	// lies within the band of rail r, len(in.V) when the last does not.
	// A segment between two in-band breakpoints stays in band.
	pinned [2]int
	seg    int // last breakpoint at or before the latest step
}

func newReceiverTail(ctx context.Context, c *nlsim.Circuit, out nlsim.Ref, cell *device.Cell, in *waveform.PWL) *receiverTail {
	r := &receiverTail{tailWatch: newTailWatch(ctx, c, out, cell, receiverBand), in: in}
	for rail := range r.pinned {
		level := float64(rail) * cell.Tech.Vdd
		k := len(in.V)
		for k > 0 && math.Abs(in.V[k-1]-level) <= r.band {
			k--
		}
		r.pinned[rail] = k
	}
	return r
}

// stop is the nlsim.Options.Stop hook. Step times only advance, so the
// segment walk is amortized over the run.
func (r *receiverTail) stop(t float64, x []float64) bool {
	for r.seg+1 < len(r.in.T) && r.in.T[r.seg+1] <= t {
		r.seg++
	}
	for rail, from := range r.pinned {
		if r.seg >= from && r.near(rail, x) {
			r.stopped = true
			return true
		}
	}
	return false
}

// driveTail is the Thevenin-fit drive certificate. A step qualifies
// once the input ramp has ended (the input is then exactly the final
// rail), the DC output at that rail lies within the band of settled's
// target, and the watched nodes sit within the band of their DC values.
// Only steps up to until qualify, which ends before settled's window
// (the last 10% of the horizon), so every point settled would test lies
// in the relaxing tail: a stopped attempt is one the full attempt's
// settled accepts.
type driveTail struct {
	tailWatch
	rail           int     // final input rail
	target         float64 // settled's target for the output
	rampEnd, until float64
}

func newDriveTail(ctx context.Context, c *nlsim.Circuit, out nlsim.Ref, cell *device.Cell, slew float64, inRising bool, until float64) *driveTail {
	d := &driveTail{tailWatch: newTailWatch(ctx, c, out, cell, driveBand), rampEnd: InputStart + slew, until: until}
	if inRising {
		d.rail = 1
	}
	if cell.OutputRisingFor(inRising) {
		d.target = cell.Tech.Vdd
	}
	return d
}

// stop is the nlsim.Options.Stop hook.
func (d *driveTail) stop(t float64, x []float64) bool {
	if t < d.rampEnd || t > d.until {
		return false
	}
	if !(math.Abs(d.dcAt(d.rail)[0]-d.target) <= d.band) || !d.near(d.rail, x) {
		return false
	}
	d.stopped = true
	return true
}
