package device

import (
	"sort"

	"repro/internal/noiseerr"
)

// Local node names used inside a cell topology. "in" and "out" are the
// cell's external pins; "vdd" and "0" are the rails; any other name is an
// internal node (e.g. the middle of a series stack).
const (
	PinIn  = "in"
	PinOut = "out"
	PinVdd = "vdd"
	PinGnd = "0"
)

// FET is one transistor of a cell topology. Terminal names are local to
// the cell and resolved at instantiation time.
type FET struct {
	Name    string
	Params  *MOSParams
	W       float64 // width, m
	D, G, S string  // drain, gate, source local node names
}

// Cell is a static CMOS gate described at transistor level, with one
// switching input pin ("in") and one output pin ("out"). Multi-input
// gates model the single-input-switching case used throughout the paper:
// side inputs are tied to the rail that makes the gate transparent, which
// is also the standard characterization condition.
type Cell struct {
	Name string
	Tech *Technology
	FETs []FET
	// NonInverting marks cells whose output follows the input direction
	// (buffers); the default (false) is an inverting stage.
	NonInverting bool
}

// OutputRisingFor returns the output transition direction for a given
// input direction.
func (c *Cell) OutputRisingFor(inRising bool) bool {
	if c.NonInverting {
		return inRising
	}
	return !inRising
}

// InputRisingFor returns the input direction that produces the requested
// output direction.
func (c *Cell) InputRisingFor(outRising bool) bool {
	if c.NonInverting {
		return outRising
	}
	return !outRising
}

// InputCap returns the total gate capacitance presented at the "in" pin.
func (c *Cell) InputCap() float64 {
	s := 0.0
	for _, f := range c.FETs {
		if f.G == PinIn {
			s += f.Params.CgPerW * f.W
		}
	}
	return s
}

// OutputCap returns the total drain diffusion capacitance at the "out" pin.
func (c *Cell) OutputCap() float64 {
	s := 0.0
	for _, f := range c.FETs {
		if f.D == PinOut || f.S == PinOut {
			s += f.Params.CdPerW * f.W
		}
	}
	return s
}

// Inverter builds a CMOS inverter with the given NMOS and PMOS widths.
func Inverter(tech *Technology, name string, wn, wp float64) *Cell {
	return &Cell{
		Name: name,
		Tech: tech,
		FETs: []FET{
			{Name: "mn", Params: &tech.N, W: wn, D: PinOut, G: PinIn, S: PinGnd},
			{Name: "mp", Params: &tech.P, W: wp, D: PinOut, G: PinIn, S: PinVdd},
		},
	}
}

// NAND2 builds a two-input NAND with input A switching and input B tied
// to Vdd (the worst-case single-input condition: the full series NMOS
// stack conducts through the switching device).
func NAND2(tech *Technology, name string, wn, wp float64) *Cell {
	return &Cell{
		Name: name,
		Tech: tech,
		FETs: []FET{
			// Series NMOS stack: out - mid - gnd. Switching input drives
			// the bottom device (worst slew on the output).
			{Name: "mna", Params: &tech.N, W: wn, D: "mid", G: PinIn, S: PinGnd},
			{Name: "mnb", Params: &tech.N, W: wn, D: PinOut, G: PinVdd, S: "mid"},
			// Parallel PMOS; the side device's gate is at Vdd so it is off.
			{Name: "mpa", Params: &tech.P, W: wp, D: PinOut, G: PinIn, S: PinVdd},
			{Name: "mpb", Params: &tech.P, W: wp, D: PinOut, G: PinVdd, S: PinVdd},
		},
	}
}

// NOR2 builds a two-input NOR with input A switching and input B tied to
// ground.
func NOR2(tech *Technology, name string, wn, wp float64) *Cell {
	return &Cell{
		Name: name,
		Tech: tech,
		FETs: []FET{
			// Parallel NMOS; side device off (gate at ground).
			{Name: "mna", Params: &tech.N, W: wn, D: PinOut, G: PinIn, S: PinGnd},
			{Name: "mnb", Params: &tech.N, W: wn, D: PinOut, G: PinGnd, S: PinGnd},
			// Series PMOS stack: vdd - mid - out.
			{Name: "mpb", Params: &tech.P, W: wp, D: "mid", G: PinGnd, S: PinVdd},
			{Name: "mpa", Params: &tech.P, W: wp, D: PinOut, G: PinIn, S: "mid"},
		},
	}
}

// Buffer builds a two-stage non-inverting buffer: a small input inverter
// driving a larger output inverter through an internal node.
func Buffer(tech *Technology, name string, wn1, wp1, wn2, wp2 float64) *Cell {
	return &Cell{
		Name:         name,
		Tech:         tech,
		NonInverting: true,
		FETs: []FET{
			{Name: "mn1", Params: &tech.N, W: wn1, D: "x", G: PinIn, S: PinGnd},
			{Name: "mp1", Params: &tech.P, W: wp1, D: "x", G: PinIn, S: PinVdd},
			{Name: "mn2", Params: &tech.N, W: wn2, D: PinOut, G: "x", S: PinGnd},
			{Name: "mp2", Params: &tech.P, W: wp2, D: PinOut, G: "x", S: PinVdd},
		},
	}
}

// AOI21 builds an AND-OR-INVERT gate with the switching input on the
// OR-side device (inputs A1, A2 of the AND branch tied so that branch is
// off: A1 at ground). The switching input drives a single NMOS in
// parallel with the (off) AND stack and a series PMOS.
func AOI21(tech *Technology, name string, wn, wp float64) *Cell {
	return &Cell{
		Name: name,
		Tech: tech,
		FETs: []FET{
			// NMOS: B in parallel with the A1-A2 series stack (A1 off).
			{Name: "mnb", Params: &tech.N, W: wn, D: PinOut, G: PinIn, S: PinGnd},
			{Name: "mna1", Params: &tech.N, W: wn, D: "ma", G: PinGnd, S: PinGnd},
			{Name: "mna2", Params: &tech.N, W: wn, D: PinOut, G: PinVdd, S: "ma"},
			// PMOS: B in series below the A1/A2 parallel pair (A1 on).
			{Name: "mpa1", Params: &tech.P, W: wp, D: "mp", G: PinGnd, S: PinVdd},
			{Name: "mpa2", Params: &tech.P, W: wp, D: "mp", G: PinVdd, S: PinVdd},
			{Name: "mpb", Params: &tech.P, W: wp, D: PinOut, G: PinIn, S: "mp"},
		},
	}
}

// OAI21 builds an OR-AND-INVERT gate with the switching input on the
// AND-side series NMOS (OR-side input held so the gate is transparent).
func OAI21(tech *Technology, name string, wn, wp float64) *Cell {
	return &Cell{
		Name: name,
		Tech: tech,
		FETs: []FET{
			// NMOS: B in series below the A1/A2 parallel pair (A1 on).
			{Name: "mna1", Params: &tech.N, W: wn, D: "mn", G: PinVdd, S: PinGnd},
			{Name: "mna2", Params: &tech.N, W: wn, D: "mn", G: PinGnd, S: PinGnd},
			{Name: "mnb", Params: &tech.N, W: wn, D: PinOut, G: PinIn, S: "mn"},
			// PMOS: B in parallel with the A1-A2 series stack. With A1 = 1
			// and A2 = 0, the A1 device is off and the A2 device on, so
			// the stack is blocked at A1 while its middle node stays tied
			// to the output through A2.
			{Name: "mpb", Params: &tech.P, W: wp, D: PinOut, G: PinIn, S: PinVdd},
			{Name: "mpa1", Params: &tech.P, W: wp, D: "mq", G: PinVdd, S: PinVdd},
			{Name: "mpa2", Params: &tech.P, W: wp, D: PinOut, G: PinGnd, S: "mq"},
		},
	}
}

// Library is a named collection of cells, keyed by cell name.
type Library struct {
	Tech  *Technology
	Cells map[string]*Cell
	names []string
}

// NewLibrary builds the default standard-cell library used by the
// experiments: inverters at five drive strengths and P/N ratios, NAND2
// and NOR2 at two strengths each, spanning the gate type / size / P-N
// ratio axes the paper's alignment study covers.
func NewLibrary(tech *Technology) *Library {
	um := 1e-6
	lib := &Library{Tech: tech, Cells: map[string]*Cell{}}
	add := func(c *Cell) { lib.Cells[c.Name] = c; lib.names = append(lib.names, c.Name) }
	add(Inverter(tech, "INVX1", 0.6*um, 1.2*um))
	add(Inverter(tech, "INVX2", 1.2*um, 2.4*um))
	add(Inverter(tech, "INVX4", 2.4*um, 4.8*um))
	add(Inverter(tech, "INVX8", 4.8*um, 9.6*um))
	add(Inverter(tech, "INVX16", 9.6*um, 19.2*um))
	// Skewed P/N ratio variants.
	add(Inverter(tech, "INVX2P", 1.2*um, 3.6*um))
	add(Inverter(tech, "INVX2N", 1.8*um, 1.8*um))
	add(NAND2(tech, "NAND2X1", 1.2*um, 1.2*um))
	add(NAND2(tech, "NAND2X2", 2.4*um, 2.4*um))
	add(NOR2(tech, "NOR2X1", 0.6*um, 2.4*um))
	add(NOR2(tech, "NOR2X2", 1.2*um, 4.8*um))
	add(Buffer(tech, "BUFX4", 0.6*um, 1.2*um, 2.4*um, 4.8*um))
	add(AOI21(tech, "AOI21X1", 1.2*um, 2.4*um))
	add(OAI21(tech, "OAI21X1", 1.2*um, 2.4*um))
	sort.Strings(lib.names)
	return lib
}

// Cell returns the named cell or an error listing the available names.
func (l *Library) Cell(name string) (*Cell, error) {
	c, ok := l.Cells[name]
	if !ok {
		return nil, noiseerr.Invalidf("device: no cell %q in library (have %v)", name, l.names)
	}
	return c, nil
}

// Names returns the sorted cell names.
func (l *Library) Names() []string { return append([]string(nil), l.names...) }
