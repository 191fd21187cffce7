// Package nlsim is the nonlinear transient simulator used as the
// SPICE-level golden reference: MOSFET gates (alpha-power law) coupled to
// arbitrary linear RC networks, integrated with the trapezoidal rule and
// solved with damped Newton iterations at every time step.
//
// Nodes are either *unknown* (solved for) or *fixed* (prescribed by a
// waveform: rails and ideal input sources). Capacitors to fixed nodes
// inject displacement current exactly through the charge-difference
// formulation, so fast input edges are handled without special cases.
package nlsim

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/netlist"
	"repro/internal/noiseerr"
	"repro/internal/waveform"
)

// Ref identifies a node in a Circuit. The zero value is not valid; use
// Ground for the ground node.
type Ref int

// Ground is the always-present ground reference.
const Ground Ref = -1

type node struct {
	name  string
	fixed *waveform.PWL // nil for unknown nodes
	state int           // state index for unknown nodes, -1 otherwise
}

type resistor struct {
	a, b Ref
	g    float64 // conductance
}

type capacitor struct {
	a, b Ref
	c    float64
}

type isource struct {
	a Ref
	w *waveform.PWL
}

type fet struct {
	p       *device.MOSParams
	w       float64
	d, g, s Ref
}

// Circuit is a mixed nonlinear/linear circuit under construction.
type Circuit struct {
	nodes []node
	names map[string]Ref
	res   []resistor
	caps  []capacitor
	isrcs []isource
	fets  []fet

	numStates int
	sealed    bool
}

// NewCircuit returns an empty circuit.
func NewCircuit() *Circuit {
	return &Circuit{names: map[string]Ref{}}
}

// Node returns the Ref for the named unknown node, creating it on first
// use. The names "0", "gnd" and "GND" resolve to Ground.
func (c *Circuit) Node(name string) Ref {
	if netlist.IsGround(name) {
		return Ground
	}
	if r, ok := c.names[name]; ok {
		return r
	}
	c.mustBeOpen()
	r := Ref(len(c.nodes))
	c.nodes = append(c.nodes, node{name: name, state: -1})
	c.names[name] = r
	return r
}

// Fixed declares the named node as prescribed by waveform w. It may be
// called before or after the node is first referenced, but not after the
// circuit has been sealed by a simulation.
func (c *Circuit) Fixed(name string, w *waveform.PWL) Ref {
	c.mustBeOpen()
	r := c.Node(name)
	if r == Ground {
		panic("nlsim: cannot fix the ground node")
	}
	c.nodes[r].fixed = w
	return r
}

func (c *Circuit) mustBeOpen() {
	if c.sealed {
		panic("nlsim: circuit modified after simulation started")
	}
}

// AddR adds a resistor between a and b.
func (c *Circuit) AddR(a, b Ref, r float64) {
	if r <= 0 {
		panic(fmt.Sprintf("nlsim: non-positive resistance %g", r))
	}
	c.mustBeOpen()
	c.res = append(c.res, resistor{a: a, b: b, g: 1 / r})
}

// AddC adds a capacitor between a and b.
func (c *Circuit) AddC(a, b Ref, cap float64) {
	if cap < 0 {
		panic(fmt.Sprintf("nlsim: negative capacitance %g", cap))
	}
	c.mustBeOpen()
	c.caps = append(c.caps, capacitor{a: a, b: b, c: cap})
}

// AddI adds a current source injecting w(t) into node a.
func (c *Circuit) AddI(a Ref, w *waveform.PWL) {
	c.mustBeOpen()
	c.isrcs = append(c.isrcs, isource{a: a, w: w})
}

// AddFET adds a MOSFET with the given parameters and width.
func (c *Circuit) AddFET(p *device.MOSParams, w float64, d, g, s Ref) {
	if w <= 0 {
		panic(fmt.Sprintf("nlsim: non-positive FET width %g", w))
	}
	c.mustBeOpen()
	c.fets = append(c.fets, fet{p: p, w: w, d: d, g: g, s: s})
}

// AddCell instantiates a standard cell: "in" maps to inRef, "out" to
// outRef, rails to a fixed Vdd node and ground, and internal nodes get
// fresh names prefixed by instName. Gate and drain diffusion capacitances
// are added at the pins.
func (c *Circuit) AddCell(cell *device.Cell, instName string, inRef, outRef Ref) {
	c.mustBeOpen()
	vddName := instName + ".vdd"
	vdd := c.Fixed(vddName, waveform.Constant(cell.Tech.Vdd))
	resolve := func(local string) Ref {
		switch local {
		case device.PinIn:
			return inRef
		case device.PinOut:
			return outRef
		case device.PinVdd:
			return vdd
		case device.PinGnd:
			return Ground
		default:
			return c.Node(instName + "." + local)
		}
	}
	for _, f := range cell.FETs {
		c.AddFET(f.Params, f.W, resolve(f.D), resolve(f.G), resolve(f.S))
	}
	if cin := cell.InputCap(); cin > 0 {
		c.AddC(inRef, Ground, cin)
	}
	if cout := cell.OutputCap(); cout > 0 {
		c.AddC(outRef, Ground, cout)
	}
}

// ImportLinear merges a linear netlist into the circuit. Node names are
// shared: a netlist node "n1" becomes (or joins) circuit node "n1".
// Thevenin drivers become fixed source nodes ("<name>.src") behind their
// series resistance, so the linear superposition circuits and the
// nonlinear reference see identical interconnect.
func (c *Circuit) ImportLinear(nl *netlist.Circuit) {
	c.mustBeOpen()
	for _, r := range nl.Resistors {
		c.AddR(c.Node(r.A), c.Node(r.B), r.R)
	}
	for _, cap := range nl.Capacitors {
		c.AddC(c.Node(cap.A), c.Node(cap.B), cap.C)
	}
	for _, src := range nl.CurrentSources {
		c.AddI(c.Node(src.A), src.I)
	}
	for _, d := range nl.Drivers {
		src := c.Fixed(d.Name+".src", d.V)
		c.AddR(src, c.Node(d.A), d.R)
	}
}

// seal freezes the topology and assigns state indices to unknown nodes.
func (c *Circuit) seal() {
	if c.sealed {
		return
	}
	c.sealed = true
	idx := 0
	for i := range c.nodes {
		if c.nodes[i].fixed == nil {
			c.nodes[i].state = idx
			idx++
		}
	}
	c.numStates = idx
}

// StateOf extracts the voltage of an unknown node from a state vector
// (e.g. a DC solution). It returns an error for ground or fixed nodes,
// whose voltages are not part of the state.
func StateOf(c *Circuit, x []float64, r Ref) (float64, error) {
	c.seal()
	if r == Ground {
		return 0, noiseerr.Invalidf("nlsim: ground has no state")
	}
	if int(r) < 0 || int(r) >= len(c.nodes) {
		return 0, noiseerr.Invalidf("nlsim: invalid node ref %d", r)
	}
	n := &c.nodes[r]
	if n.fixed != nil {
		return 0, noiseerr.Invalidf("nlsim: node %q is fixed", n.name)
	}
	if n.state >= len(x) {
		return 0, noiseerr.Invalidf("nlsim: state vector too short")
	}
	return x[n.state], nil
}

// StateIndex returns the index of node r in a state vector (a DC
// solution, or the state an Options.Stop hook sees), or -1 for ground
// and fixed nodes. It seals the circuit.
func (c *Circuit) StateIndex(r Ref) int {
	c.seal()
	if r == Ground {
		return -1
	}
	return c.nodes[r].state
}
