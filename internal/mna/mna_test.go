package mna

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/linalg"
	"repro/internal/netlist"
	"repro/internal/waveform"
)

// resistorDivider builds V--R1--n1--R2--gnd driven by a 1 V source with
// negligible source resistance.
func TestDCDivider(t *testing.T) {
	c := netlist.NewCircuit()
	c.AddDriver("src", "in", waveform.Constant(1.0), 1e-3)
	c.AddR("r1", "in", "mid", 1000)
	c.AddR("r2", "mid", "0", 1000)
	sys, err := Build(c)
	if err != nil {
		t.Fatal(err)
	}
	x, err := sys.DC(0)
	if err != nil {
		t.Fatal(err)
	}
	mid, _ := sys.NodeIndex("mid")
	if math.Abs(x[mid]-0.5) > 1e-6 {
		t.Fatalf("divider mid = %v, want 0.5", x[mid])
	}
	in, _ := sys.NodeIndex("in")
	if math.Abs(x[in]-1.0) > 1e-6 {
		t.Fatalf("in = %v, want 1.0", x[in])
	}
}

func TestSymmetryOfGAndC(t *testing.T) {
	c := netlist.NewCircuit()
	c.AddDriver("d1", "v1", waveform.Constant(0), 500)
	c.AddR("r1", "v1", "v2", 200)
	c.AddC("cg", "v2", "0", 1e-14)
	c.AddC("cc", "v1", "a1", 2e-15)
	c.AddR("ra", "a1", "0", 300)
	sys, err := Build(c)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < sys.G.Rows; i++ {
		for j := 0; j < i; j++ {
			if sys.G.At(i, j) != sys.G.At(j, i) {
				t.Fatalf("G not symmetric at %d,%d", i, j)
			}
			if sys.C.At(i, j) != sys.C.At(j, i) {
				t.Fatalf("C not symmetric at %d,%d", i, j)
			}
		}
	}
}

func TestCouplingCapStamp(t *testing.T) {
	c := netlist.NewCircuit()
	c.AddC("cc", "a", "b", 3e-15)
	c.AddR("ra", "a", "0", 1)
	c.AddR("rb", "b", "0", 1)
	sys, err := Build(c)
	if err != nil {
		t.Fatal(err)
	}
	ia, _ := sys.NodeIndex("a")
	ib, _ := sys.NodeIndex("b")
	if sys.C.At(ia, ia) != 3e-15 || sys.C.At(ib, ib) != 3e-15 {
		t.Fatal("diagonal cap stamp wrong")
	}
	if sys.C.At(ia, ib) != -3e-15 {
		t.Fatal("off-diagonal cap stamp wrong")
	}
}

func TestInputAtOrdering(t *testing.T) {
	c := netlist.NewCircuit()
	c.AddR("r", "n", "0", 1)
	c.AddDriver("d1", "n", waveform.Constant(7), 1)
	c.AddDriver("d2", "n", waveform.Constant(3), 1)
	sys, err := Build(c)
	if err != nil {
		t.Fatal(err)
	}
	u := sys.InputAt(0)
	if len(u) != 2 || u[0] != 7 || u[1] != 3 {
		t.Fatalf("u = %v, want [7 3] (drivers in insertion order)", u)
	}
	if sys.NumInputs() != 2 {
		t.Fatalf("NumInputs = %d", sys.NumInputs())
	}
}

func TestDCFloatingNodeError(t *testing.T) {
	c := netlist.NewCircuit()
	c.AddC("c", "float", "0", 1e-15) // no resistive path
	sys, err := Build(c)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.DC(0); err == nil {
		t.Fatal("expected DC failure for floating node")
	}
}

func TestNodeIndexUnknown(t *testing.T) {
	c := netlist.NewCircuit()
	c.AddR("r", "a", "0", 1)
	sys, _ := Build(c)
	if _, err := sys.NodeIndex("zz"); err == nil {
		t.Fatal("expected error for unknown node")
	}
}

func TestNewSystemValidation(t *testing.T) {
	g := linalg.Identity(2)
	c := linalg.Identity(2)
	b := linalg.NewMatrix(2, 1)
	in := []*waveform.PWL{waveform.Constant(1)}
	sys, err := NewSystem(g, c, b, in, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sys.NumStates() != 2 || sys.NumInputs() != 1 {
		t.Fatalf("shape %d/%d", sys.NumStates(), sys.NumInputs())
	}
	if _, err := sys.NodeIndex("z0"); err != nil {
		t.Fatal("generated names missing")
	}
	// Shape errors.
	if _, err := NewSystem(linalg.NewMatrix(2, 3), c, b, in, nil); err == nil {
		t.Error("expected error for non-square G")
	}
	if _, err := NewSystem(g, c, linalg.NewMatrix(2, 2), in, nil); err == nil {
		t.Error("expected error for input count mismatch")
	}
	if _, err := NewSystem(g, c, b, in, []string{"one"}); err == nil {
		t.Error("expected error for name count mismatch")
	}
}

func TestBuildErrors(t *testing.T) {
	// Driver on ground.
	c2 := netlist.NewCircuit()
	c2.AddR("r", "a", "0", 1)
	c2.AddDriver("d", "GND", waveform.Constant(0), 1)
	if _, err := Build(c2); err == nil {
		t.Error("expected error for grounded driver")
	}
}

// DC solves the DC operating point G x = B u(t0), factoring G by
// linalg.Factor's rule.
func (s *System) DC(t0 float64) ([]float64, error) {
	x := make([]float64, s.NumStates())
	if err := s.DCCols(x, s.InputAt(t0), 1); err != nil {
		return nil, err
	}
	return x, nil
}

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
func (s *System) InputAtTo(dst []float64, t float64, hints []int) {
	if len(dst) != len(s.Inputs) || len(hints) != len(s.Inputs) {
		panic(fmt.Sprintf("mna: input vector/hint lengths %d/%d, want %d", len(dst), len(hints), len(s.Inputs)))
	}
	for i, w := range s.Inputs {
		dst[i] = w.AtHint(t, &hints[i])
	}
}
