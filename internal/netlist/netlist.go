// Package netlist describes linear circuit topologies for the coupled
// interconnect analysis: resistors, grounded and coupling capacitors,
// and Thevenin drivers (PWL voltage source behind a series resistance).
//
// Node names are arbitrary strings; the reserved names "0", "gnd" and
// "GND" denote ground. A Circuit is a pure description — matrix stamping
// lives in package mna and time-domain solution in package lsim.
package netlist

import (
	"fmt"
	"sort"

	"repro/internal/waveform"
)

// Ground is the canonical ground node name.
const Ground = "0"

// IsGround reports whether a node name denotes the ground node.
func IsGround(name string) bool {
	return name == "0" || name == "gnd" || name == "GND"
}

// Resistor is a two-terminal linear resistance in ohms.
type Resistor struct {
	Name string
	A, B string
	R    float64
}

// Capacitor is a two-terminal linear capacitance in farads. Grounded
// capacitors use B = Ground; coupling capacitors connect two signal nodes.
type Capacitor struct {
	Name string
	A, B string
	C    float64
}

// TheveninDriver is a PWL voltage source behind a series resistance,
// driving node A. This is the linear gate model of the classic flow: the
// source carries the (t0, dt) saturated-ramp transition and R carries
// either the Thevenin resistance Rth or, in the proposed flow, the
// transient holding resistance Rtr.
type TheveninDriver struct {
	Name string
	A    string
	V    *waveform.PWL
	R    float64
}

// Circuit is a linear circuit description.
type Circuit struct {
	Resistors  []Resistor
	Capacitors []Capacitor
	Drivers    []TheveninDriver

	nodes map[string]bool
}

// NewCircuit returns an empty circuit.
func NewCircuit() *Circuit {
	return &Circuit{nodes: make(map[string]bool)}
}

func (c *Circuit) touch(names ...string) {
	for _, n := range names {
		if !IsGround(n) {
			c.nodes[n] = true
		}
	}
}

// AddR adds a resistor between nodes a and b.
func (c *Circuit) AddR(name, a, b string, r float64) {
	if r <= 0 {
		panic(fmt.Sprintf("netlist: resistor %q has non-positive value %g", name, r))
	}
	c.Resistors = append(c.Resistors, Resistor{Name: name, A: a, B: b, R: r})
	c.touch(a, b)
}

// AddC adds a capacitor between nodes a and b (use Ground for b on a
// grounded capacitor).
func (c *Circuit) AddC(name, a, b string, cap float64) {
	if cap < 0 {
		panic(fmt.Sprintf("netlist: capacitor %q has negative value %g", name, cap))
	}
	c.Capacitors = append(c.Capacitors, Capacitor{Name: name, A: a, B: b, C: cap})
	c.touch(a, b)
}

// AddDriver adds a Thevenin driver (PWL source v behind resistance r)
// driving node a.
func (c *Circuit) AddDriver(name, a string, v *waveform.PWL, r float64) {
	if r <= 0 {
		panic(fmt.Sprintf("netlist: driver %q has non-positive resistance %g", name, r))
	}
	c.Drivers = append(c.Drivers, TheveninDriver{Name: name, A: a, V: v, R: r})
	c.touch(a)
}

// Nodes returns the sorted list of non-ground node names.
func (c *Circuit) Nodes() []string {
	out := make([]string, 0, len(c.nodes))
	for n := range c.nodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Clone returns a deep copy of the circuit topology. Waveform pointers
// are shared (waveform operations are non-mutating by convention).
func (c *Circuit) Clone() *Circuit {
	out := NewCircuit()
	out.Resistors = append(out.Resistors, c.Resistors...)
	out.Capacitors = append(out.Capacitors, c.Capacitors...)
	out.Drivers = append(out.Drivers, c.Drivers...)
	for n := range c.nodes {
		out.nodes[n] = true
	}
	return out
}
