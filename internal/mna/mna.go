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
	"encoding/json"
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
// becomes a state; every current source and Thevenin driver becomes an
// input column.
func Build(c *netlist.Circuit) (*System, error) {
	nodes := c.Nodes()
	idx := make(map[string]int, len(nodes))
	for i, n := range nodes {
		idx[n] = i
	}
	n := len(nodes)
	nin := len(c.CurrentSources) + len(c.Drivers)
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
	col := 0
	for _, src := range c.CurrentSources {
		a, ok := at(src.A)
		if !ok || a < 0 {
			return nil, noiseerr.Invalidf("mna: current source %q must drive a signal node", src.Name)
		}
		s.B.Add(a, col, 1)
		s.Inputs = append(s.Inputs, src.I)
		col++
	}
	for _, d := range c.Drivers {
		a, ok := at(d.A)
		if !ok || a < 0 {
			return nil, noiseerr.Invalidf("mna: driver %q must drive a signal node", d.Name)
		}
		g := 1 / d.R
		s.G.Add(a, a, g)   // Norton conductance
		s.B.Add(a, col, g) // Norton current = g * V(t)
		s.Inputs = append(s.Inputs, d.V)
		col++
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

// InputAt evaluates the input vector u(t).
func (s *System) InputAt(t float64) []float64 {
	u := make([]float64, len(s.Inputs))
	s.InputAtTo(u, t, make([]int, len(s.Inputs)))
	return u
}

// InputAtTo evaluates the input vector u(t) into dst without
// allocating. hints holds one waveform.PWL.AtHint segment hint per
// input (start them at 0) and is updated in place, so a stepper whose
// times advance walks each input forward instead of binary searching
// it; the values are bit-identical to At's either way.
//
//lint:hot
func (s *System) InputAtTo(dst []float64, t float64, hints []int) {
	if len(dst) != len(s.Inputs) || len(hints) != len(s.Inputs) {
		panic(fmt.Sprintf("mna: input vector/hint lengths %d/%d, want %d", len(dst), len(hints), len(s.Inputs)))
	}
	for i, w := range s.Inputs {
		dst[i] = w.AtHint(t, &hints[i])
	}
}

// DC solves the DC operating point G x = B u(t0), factoring G by
// linalg.Factor's rule.
func (s *System) DC(t0 float64) ([]float64, error) {
	f, err := linalg.Factor(s.G)
	if err != nil {
		return nil, fmt.Errorf("mna: DC solve failed (floating node?): %w", err)
	}
	x := make([]float64, s.NumStates())
	f.SolveTo(x, s.B.MulVec(s.InputAt(t0)))
	return x, nil
}

// systemJSON is the persisted shape of a System: the exported state only
// (the node-index map is derived).
type systemJSON struct {
	G, C, B *linalg.Matrix
	Inputs  []*waveform.PWL
	Nodes   []string
}

// MarshalJSON lets a System persist to a warm-start store; float matrix
// entries round-trip bit-exactly through encoding/json.
func (s *System) MarshalJSON() ([]byte, error) {
	return json.Marshal(systemJSON{G: s.G, C: s.C, B: s.B, Inputs: s.Inputs, Nodes: s.Nodes})
}

// UnmarshalJSON restores a persisted System, rebuilding the derived node
// index and revalidating shapes through NewSystem (a corrupt or
// hand-edited store entry fails here instead of panicking mid-solve).
func (s *System) UnmarshalJSON(b []byte) error {
	var raw systemJSON
	if err := json.Unmarshal(b, &raw); err != nil {
		return err
	}
	if raw.G == nil || raw.C == nil || raw.B == nil {
		return noiseerr.Invalidf("mna: persisted system missing matrices")
	}
	restored, err := NewSystem(raw.G, raw.C, raw.B, raw.Inputs, raw.Nodes)
	if err != nil {
		return err
	}
	*s = *restored
	return nil
}
