// Package mna assembles modified-nodal-analysis matrices from a linear
// circuit: G x + C x' = B u(t), where x is the node-voltage vector and
// u(t) the vector of source waveforms.
//
// Thevenin drivers are stamped in Norton form (conductance 1/R on the
// node plus an input column scaled by 1/R), which keeps G and C symmetric
// and — for RC circuits with at least one resistive path to ground per
// node — positive definite. This is exactly the form PRIMA requires.
package mna

import (
	"fmt"

	"repro/internal/linalg"
	"repro/internal/netlist"
	"repro/internal/noiseerr"
	"repro/internal/waveform"
)

// System is a state-space description G x + C x' = B u(t).
type System struct {
	G, C, B *linalg.Matrix
	Inputs  []*waveform.PWL // u_i(t), one per column of B
	Nodes   []string        // node name per state index
	index   map[string]int
}

// Build assembles the MNA system for the circuit. Every non-ground node
// becomes a state; every Thevenin driver becomes an input column.
func Build(c *netlist.Circuit) (*System, error) {
	nodes := c.Nodes()
	idx := make(map[string]int, len(nodes))
	for i, n := range nodes {
		idx[n] = i
	}
	n := len(nodes)
	nin := len(c.Drivers)
	s := &System{
		G:      linalg.NewMatrix(n, n),
		C:      linalg.NewMatrix(n, n),
		B:      linalg.NewMatrix(n, nin),
		Inputs: make([]*waveform.PWL, 0, nin),
		Nodes:  nodes,
		index:  idx,
	}
	at := func(name string) (int, bool) {
		if netlist.IsGround(name) {
			return -1, true
		}
		i, ok := idx[name]
		return i, ok
	}
	stamp2 := func(m *linalg.Matrix, a, b int, v float64) {
		if a >= 0 {
			m.Add(a, a, v)
		}
		if b >= 0 {
			m.Add(b, b, v)
		}
		if a >= 0 && b >= 0 {
			m.Add(a, b, -v)
			m.Add(b, a, -v)
		}
	}
	for _, r := range c.Resistors {
		a, okA := at(r.A)
		b, okB := at(r.B)
		if !okA || !okB {
			return nil, noiseerr.Invalidf("mna: resistor %q references unknown node", r.Name)
		}
		stamp2(s.G, a, b, 1/r.R)
	}
	for _, cap := range c.Capacitors {
		a, okA := at(cap.A)
		b, okB := at(cap.B)
		if !okA || !okB {
			return nil, noiseerr.Invalidf("mna: capacitor %q references unknown node", cap.Name)
		}
		stamp2(s.C, a, b, cap.C)
	}
	for col, d := range c.Drivers {
		a, ok := at(d.A)
		if !ok || a < 0 {
			return nil, noiseerr.Invalidf("mna: driver %q must drive a signal node", d.Name)
		}
		g := 1 / d.R
		s.G.Add(a, a, g)   // Norton conductance
		s.B.Add(a, col, g) // Norton current = g * V(t)
		s.Inputs = append(s.Inputs, d.V)
	}
	return s, nil
}

// NewSystem assembles a System directly from matrices. It is used by the
// model-order-reduction flow to wrap a projected system in the same
// interface the simulator consumes. names provides one label per state
// (generated when nil).
func NewSystem(g, c, b *linalg.Matrix, inputs []*waveform.PWL, names []string) (*System, error) {
	n := g.Rows
	if g.Cols != n || c.Rows != n || c.Cols != n || b.Rows != n {
		return nil, noiseerr.Invalidf("mna: inconsistent system shapes")
	}
	if b.Cols != len(inputs) {
		return nil, noiseerr.Invalidf("mna: %d input columns vs %d waveforms", b.Cols, len(inputs))
	}
	if names == nil {
		names = make([]string, n)
		for i := range names {
			names[i] = fmt.Sprintf("z%d", i)
		}
	}
	if len(names) != n {
		return nil, noiseerr.Invalidf("mna: %d names for %d states", len(names), n)
	}
	idx := make(map[string]int, n)
	for i, nm := range names {
		idx[nm] = i
	}
	return &System{G: g, C: c, B: b, Inputs: inputs, Nodes: names, index: idx}, nil
}

// NodeIndex returns the state index of a node name.
func (s *System) NodeIndex(name string) (int, error) {
	i, ok := s.index[name]
	if !ok {
		return 0, noiseerr.Invalidf("mna: unknown node %q", name)
	}
	return i, nil
}

// NumStates returns the number of state variables (node voltages).
func (s *System) NumStates() int { return len(s.Nodes) }

// NumInputs returns the number of input waveforms.
func (s *System) NumInputs() int { return len(s.Inputs) }

// DCCols solves the DC operating points G x_j = B u_j of r input
// vectors over one factor of G: u holds entry c of u_j at c*r+j, and x
// receives entry i of x_j at i*r+j. B applies in CSR, which keeps the
// dense product's bits for finite inputs (linalg.Sparse.MulCols), and
// each x_j is the solve of u_j alone.
func (s *System) DCCols(x, u []float64, r int) error {
	f, err := linalg.Factor(s.G)
	if err != nil {
		return fmt.Errorf("mna: DC solve failed (floating node?): %w", err)
	}
	rhs := make([]float64, s.NumStates()*r)
	linalg.FromDense(s.B).MulCols(rhs, u, r)
	f.SolveColsTo(x, rhs, r)
	return nil
}
