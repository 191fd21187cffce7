// Package delaynoise is the per-net analysis engine of the reproduction:
// it combines driver characterization (C-effective + Thevenin), the
// linear superposition flow over the coupled interconnect, the transient
// holding resistance of Section 2, and the aggressor alignment of
// Section 3 into the paper's overall iterative method, and provides the
// full nonlinear ("SPICE") reference for validation.
package delaynoise

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/netlist"
	"repro/internal/noiseerr"
	"repro/internal/rcnet"
	"repro/internal/waveform"
)

// DriverSpec describes one driving gate of the coupled cluster.
type DriverSpec struct {
	Cell         *device.Cell
	InputSlew    float64 // driver input transition time (0-100%), s
	OutputRising bool    // direction of the driver's *output* transition
	InputStart   float64 // nominal start time of the driver's input ramp, s
}

// inputWaveform builds the driver's input ramp in the direction that
// yields the requested output transition for the cell's polarity.
func (d DriverSpec) inputWaveform(vdd float64) *waveform.PWL {
	if d.Cell.InputRisingFor(d.OutputRising) {
		return waveform.Ramp(d.InputStart, d.InputSlew, 0, vdd)
	}
	return waveform.Ramp(d.InputStart, d.InputSlew, vdd, 0)
}

// initialOutput is the driver output rail before the transition.
func (d DriverSpec) initialOutput(vdd float64) float64 {
	if d.OutputRising {
		return 0
	}
	return vdd
}

// finalOutput is the driver output rail after the transition.
func (d DriverSpec) finalOutput(vdd float64) float64 {
	if d.OutputRising {
		return vdd
	}
	return 0
}

// Case is one victim/aggressor cluster to analyze.
type Case struct {
	Net        *rcnet.CoupledNet
	Victim     DriverSpec
	Aggressors []DriverSpec // one per Net.AggIn, in order

	Receiver     *device.Cell
	ReceiverLoad float64 // lumped load at the receiver output, F
	// AggLoad is the lumped receiver-input capacitance at each aggressor
	// far end (default 5 fF when zero).
	AggLoad float64

	// Sink overrides the analyzed receiver attachment node (default:
	// Net.VictimOut). Tree-shaped nets analyze one sink per case.
	Sink string
	// ExtraLoads adds grounded capacitance at arbitrary net nodes —
	// typically the input capacitance of receivers at the *other* sinks
	// of a tree, which load the net but are not the analyzed endpoint.
	ExtraLoads map[string]float64
}

// Validate checks structural consistency.
func (c *Case) Validate() error {
	switch {
	case c.Net == nil:
		return noiseerr.Invalidf("delaynoise: nil net")
	case c.Victim.Cell == nil:
		return noiseerr.Invalidf("delaynoise: nil victim cell")
	case c.Receiver == nil:
		return noiseerr.Invalidf("delaynoise: nil receiver cell")
	case len(c.Aggressors) != len(c.Net.AggIn):
		return noiseerr.Invalidf("delaynoise: %d aggressor drivers for %d aggressor nets",
			len(c.Aggressors), len(c.Net.AggIn))
	case c.Victim.InputSlew <= 0:
		return noiseerr.Invalidf("delaynoise: victim input slew must be positive")
	case c.ReceiverLoad < 0:
		return noiseerr.Invalidf("delaynoise: negative receiver load")
	}
	for node, load := range c.ExtraLoads {
		if load < 0 {
			return noiseerr.Invalidf("delaynoise: negative extra load at %q", node)
		}
	}
	for i, a := range c.Aggressors {
		if a.Cell == nil {
			return noiseerr.Invalidf("delaynoise: aggressor %d has no cell", i)
		}
		if a.InputSlew <= 0 {
			return noiseerr.Invalidf("delaynoise: aggressor %d input slew must be positive", i)
		}
	}
	return nil
}

func (c *Case) aggLoad() float64 {
	if c.AggLoad > 0 {
		return c.AggLoad
	}
	return 5e-15
}

// vdd returns the supply voltage of the case's technology.
func (c *Case) vdd() float64 { return c.Victim.Cell.Tech.Vdd }

// victimLump is the victim driver's lumped load: the whole victim line
// plus the receiver input.
func (c *Case) victimLump() float64 { return c.Net.VictimTotalCap() + c.Receiver.InputCap() }

// sink returns the analyzed receiver attachment node.
func (c *Case) sink() string {
	if c.Sink != "" {
		return c.Sink
	}
	return c.Net.VictimOut
}

// loadedInterconnect clones the interconnect and adds the gate input
// capacitances at the victim receiver and aggressor far ends, so the
// linear superposition flow and the nonlinear reference see the same
// loading (the paper models receivers as grounded capacitors in the
// linear flow).
func (c *Case) loadedInterconnect() *netlist.Circuit {
	ckt := c.Net.Circuit.Clone()
	if cin := c.Receiver.InputCap(); cin > 0 {
		ckt.AddC("__recvin", c.sink(), netlist.Ground, cin)
	}
	for i, out := range c.Net.AggOut {
		ckt.AddC(fmt.Sprintf("__aggload%d", i), out, netlist.Ground, c.aggLoad())
	}
	for node, load := range c.ExtraLoads {
		if load > 0 {
			ckt.AddC("__extra_"+node, node, netlist.Ground, load)
		}
	}
	return ckt
}
