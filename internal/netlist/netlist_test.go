package netlist

import (
	"testing"

	"repro/internal/waveform"
)

func TestIsGround(t *testing.T) {
	for _, g := range []string{"0", "gnd", "GND"} {
		if !IsGround(g) {
			t.Errorf("IsGround(%q) = false", g)
		}
	}
	if IsGround("n1") {
		t.Error("IsGround(n1) = true")
	}
}

func TestNodesSortedAndGroundExcluded(t *testing.T) {
	c := NewCircuit()
	c.AddR("r1", "b", "a", 100)
	c.AddC("c1", "a", "0", 1e-15)
	c.AddC("c2", "b", "gnd", 1e-15)
	nodes := c.Nodes()
	if len(nodes) != 2 || nodes[0] != "a" || nodes[1] != "b" {
		t.Fatalf("nodes = %v", nodes)
	}
}

func TestInvalidElementsPanic(t *testing.T) {
	for name, fn := range map[string]func(){
		"zero R":     func() { NewCircuit().AddR("r", "a", "b", 0) },
		"negative C": func() { NewCircuit().AddC("c", "a", "0", -1) },
		"zero Rdrv":  func() { NewCircuit().AddDriver("d", "a", waveform.Constant(0), 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestCloneIndependence(t *testing.T) {
	c := NewCircuit()
	c.AddR("r1", "a", "0", 100)
	c.AddDriver("d", "a", waveform.Constant(1), 50)
	cl := c.Clone()
	cl.AddR("r2", "b", "0", 10)
	cl.Drivers[0].R = 99
	if len(c.Nodes()) != 1 {
		t.Fatal("clone leaked node into original")
	}
	if c.Drivers[0].R != 50 {
		t.Fatal("clone shares driver storage with original")
	}
}
