package pathnoise

import (
	"repro/internal/delaynoise"
	"repro/internal/noiseerr"
	"repro/internal/waveform"
)

// Stage chaining. Every stage simulates in its own local time frame —
// the victim input ramp starts at the case's nominal InputStart, so the
// engine never integrates the dead time a long path accumulates — and
// a per-chain frame shift maps local times to path-absolute ones:
//
//	absolute(t) = t + Shift
//
// Two chains cross each stage boundary. The quiet chain carries the
// noiseless receiver output (delaynoise.Result.QuietRecvOut of the
// stage's quiet analysis); the noisy chain carries the noisy receiver
// output, delaynoise.Result.NoisyRecvOut: the analysis's own noisy
// report run, whose crossing it reports. The quiet chain never reads a
// window, so from pass 2 on a stage takes its quiet result from the
// path's pass-1 record of the same stage instead of analyzing it again.
// At the boundary the downstream victim's input ramp is *derived* from
// the chain's waveform: its slew is measured from the 20-80% interval
// of the handed-off edge (rescaled to the full-swing ramp the driver
// model takes), and its path-absolute 50% point is the chain's arrival.
// Collapsing the waveform to a ramp at the gate input is the
// Nazarian/Pedram-style bounding step. It reads only the first 20% and
// 80% crossings and the final 50% crossing, and the settled-tail
// certificate keeps all of them in a stopped run, so both handoffs end
// where their receiver runs stopped (align.Objective.OutputSettled)
// rather than at the horizon. The waveform is retained in the stage
// record, up to that stop, for resume, inspection and the golden reuse
// test.

// Handoff is one chain's state at a stage boundary: the receiver-output
// waveform of the upstream stage (local frame), its direction, its
// final 50% crossing (local frame), and the local-to-absolute shift.
type Handoff struct {
	Wave   *waveform.PWL
	Rising bool
	Cross  float64 // 50% crossing of Wave, local frame
	Shift  float64 // local -> path-absolute offset
}

// Arrival returns the chain's path-absolute arrival at the boundary.
func (h Handoff) Arrival() float64 { return h.Cross + h.Shift }

// slewFrac is the measured fraction of the swing used to estimate the
// handed-off edge's transition time: the 20-80% interval, rescaled by
// 1/(0.8-0.2) to the full-swing (0-100%) ramp duration DriverSpec
// expects. Receiver outputs approach the rails asymptotically within
// the simulation horizon, so the central interval is the robust
// measurement; 10-90% fails on edges that reach 89% of Vdd at the
// horizon.
const (
	slewLoFrac = 0.2
	slewHiFrac = 0.8
)

// derivedSlew measures the equivalent full-swing input slew of a
// handed-off edge. A degenerate waveform (no measurable transition)
// falls back to the nominal slew the workload assigned the stage.
func derivedSlew(h Handoff, vdd, nominal float64) float64 {
	v0, v1 := 0.0, vdd
	if !h.Rising {
		v0, v1 = vdd, 0
	}
	s, err := h.Wave.Slew(v0, v1, slewLoFrac, slewHiFrac)
	if err != nil || s <= 0 {
		return nominal
	}
	return s / (slewHiFrac - slewLoFrac)
}

// stageInput derives one chain's victim input for a downstream stage
// from the upstream handoff: the stage's case with the victim slew
// replaced by the measured one, and the chain's frame shift for the
// stage. The local InputStart is kept at the case's nominal anchor —
// preserving every aggressor's workload-assigned offset relative to
// the victim — and the shift re-anchors the local frame so the derived
// ramp's 50% point lands on the chain's absolute arrival.
func stageInput(c *delaynoise.Case, h Handoff) (*delaynoise.Case, float64, error) {
	if c.Victim.Cell.InputRisingFor(c.Victim.OutputRising) != h.Rising {
		// Validate() establishes this; a violation here means the caller
		// chained handoffs out of order.
		return nil, 0, noiseerr.Invalidf("pathnoise: handoff direction %s does not drive victim %s",
			riseFall(h.Rising), c.Victim.Cell.Name)
	}
	derived := *c
	derived.Aggressors = append([]delaynoise.DriverSpec(nil), c.Aggressors...)
	derived.Victim.InputSlew = derivedSlew(h, c.Victim.Cell.Tech.Vdd, c.Victim.InputSlew)
	localT50 := derived.Victim.InputStart + derived.Victim.InputSlew/2
	shift := h.Arrival() - localT50
	return &derived, shift, nil
}

// inputArrival is the path-absolute 50% point of a stage's victim input
// ramp under a given frame shift.
func inputArrival(c *delaynoise.Case, shift float64) float64 {
	return c.Victim.InputStart + c.Victim.InputSlew/2 + shift
}
