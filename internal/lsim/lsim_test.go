package lsim

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/linalg"
	"repro/internal/mna"
	"repro/internal/netlist"
	"repro/internal/waveform"
)

// rcCircuit builds a driver (step through R) charging a grounded C.
func rcCircuit(r, c float64, v *waveform.PWL) *netlist.Circuit {
	ckt := netlist.NewCircuit()
	ckt.AddDriver("drv", "out", v, r)
	ckt.AddC("cl", "out", "0", c)
	return ckt
}

func TestRCStepResponse(t *testing.T) {
	// R = 1k, C = 1pF, tau = 1ns. Step at t=0 from 0 to 1 V.
	r, c := 1000.0, 1e-12
	tau := r * c
	// A step is approximated by a very fast ramp.
	step := waveform.Ramp(0, tau/1e4, 0, 1)
	ckt := rcCircuit(r, c, step)
	sys, err := mna.Build(ckt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sys, Options{TStop: 5 * tau, Step: tau / 200})
	if err != nil {
		t.Fatal(err)
	}
	v, err := res.Voltage("out")
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []float64{0.5, 1, 2, 3} {
		want := 1 - math.Exp(-k)
		got := v.At(k * tau)
		if math.Abs(got-want) > 5e-3 {
			t.Errorf("v(%v tau) = %v, want %v", k, got, want)
		}
	}
}

func TestRCDelayMatchesAnalytic(t *testing.T) {
	// 50% crossing of an RC step response is tau*ln(2).
	r, c := 500.0, 2e-13
	tau := r * c
	step := waveform.Ramp(0, tau/1e4, 0, 1.8)
	ckt := rcCircuit(r, c, step)
	sys, _ := mna.Build(ckt)
	res, err := Run(sys, Options{TStop: 6 * tau, Step: tau / 400})
	if err != nil {
		t.Fatal(err)
	}
	v, _ := res.Voltage("out")
	t50, err := v.CrossRising(0.9)
	if err != nil {
		t.Fatal(err)
	}
	want := tau * math.Ln2
	if math.Abs(t50-want) > 0.01*tau {
		t.Fatalf("t50 = %v, want %v", t50, want)
	}
}

func TestInitDC(t *testing.T) {
	// Start with the source already at 1 V: output should stay at 1 V.
	ckt := rcCircuit(1000, 1e-12, waveform.Constant(1))
	sys, _ := mna.Build(ckt)
	res, err := Run(sys, Options{TStop: 1e-9, Step: 1e-11, InitDC: true})
	if err != nil {
		t.Fatal(err)
	}
	v, _ := res.Voltage("out")
	if math.Abs(v.At(5e-10)-1) > 1e-9 {
		t.Fatalf("DC-initialized output drifted: %v", v.At(5e-10))
	}
}

func TestExplicitX0(t *testing.T) {
	ckt := rcCircuit(1000, 1e-12, waveform.Constant(0))
	sys, _ := mna.Build(ckt)
	tau := 1e-9
	res, err := Run(sys, Options{TStop: 3 * tau, Step: tau / 200, X0: []float64{1}})
	if err != nil {
		t.Fatal(err)
	}
	v, _ := res.Voltage("out")
	// Discharge: v(t) = exp(-t/tau).
	got := v.At(tau)
	if math.Abs(got-math.Exp(-1)) > 5e-3 {
		t.Fatalf("discharge v(tau) = %v, want %v", got, math.Exp(-1))
	}
}

func TestCouplingInjection(t *testing.T) {
	// Aggressor step couples into a victim held by a resistor: classic
	// noise pulse. Peak must be positive, bounded by Cc/(Cc+Cg) * Vdd,
	// and decay back toward zero.
	ckt := netlist.NewCircuit()
	ckt.AddDriver("agg", "a", waveform.Ramp(1e-10, 5e-11, 0, 1.8), 200)
	ckt.AddC("cc", "a", "v", 20e-15)
	ckt.AddC("cg", "v", "0", 20e-15)
	ckt.AddDriver("vic", "v", waveform.Constant(0), 1000) // holding R
	sys, _ := mna.Build(ckt)
	res, err := Run(sys, Options{TStop: 2e-9, Step: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	v, _ := res.Voltage("v")
	_, peak := v.Max()
	if peak <= 0.05 {
		t.Fatalf("noise peak %v too small", peak)
	}
	if peak > 0.9 { // charge-divider bound
		t.Fatalf("noise peak %v exceeds divider bound", peak)
	}
	if math.Abs(v.At(2e-9)) > 0.02 {
		t.Fatalf("noise did not decay: %v", v.At(2e-9))
	}
}

func TestSuperpositionProperty(t *testing.T) {
	// Linear system: response to both sources = sum of responses to each
	// (other source zeroed).
	build := func(aggOn, vicOn bool) *waveform.PWL {
		ckt := netlist.NewCircuit()
		av := waveform.Constant(0)
		vv := waveform.Constant(0)
		if aggOn {
			av = waveform.Ramp(2e-10, 1e-10, 1.8, 0)
		}
		if vicOn {
			vv = waveform.Ramp(1e-10, 2e-10, 0, 1.8)
		}
		ckt.AddDriver("agg", "a", av, 300)
		ckt.AddR("ra", "a", "a2", 150)
		ckt.AddC("cga", "a2", "0", 10e-15)
		ckt.AddC("cc", "a2", "v2", 15e-15)
		ckt.AddDriver("vic", "v", vv, 800)
		ckt.AddR("rv", "v", "v2", 250)
		ckt.AddC("cgv", "v2", "0", 12e-15)
		sys, err := mna.Build(ckt)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(sys, Options{TStop: 3e-9, Step: 2e-12})
		if err != nil {
			t.Fatal(err)
		}
		v, _ := res.Voltage("v2")
		return v
	}
	both := build(true, true)
	agg := build(true, false)
	vic := build(false, true)
	sum := waveform.Sum(agg, vic)
	for _, tt := range []float64{2e-10, 5e-10, 1e-9, 2e-9} {
		if math.Abs(both.At(tt)-sum.At(tt)) > 1e-9 {
			t.Fatalf("superposition violated at %v: %v vs %v", tt, both.At(tt), sum.At(tt))
		}
	}
}

func TestRunValidation(t *testing.T) {
	ckt := rcCircuit(1000, 1e-12, waveform.Constant(0))
	sys, _ := mna.Build(ckt)
	if _, err := Run(sys, Options{TStop: 1e-9, Step: 0}); err == nil {
		t.Error("expected error for zero step")
	}
	if _, err := Run(sys, Options{TStop: 0, Step: 1e-12}); err == nil {
		t.Error("expected error for empty interval")
	}
	if _, err := Run(sys, Options{TStop: 1e-9, Step: 1e-12, X0: []float64{1, 2}}); err == nil {
		t.Error("expected error for X0 length mismatch")
	}
}

func TestFinalState(t *testing.T) {
	ckt := rcCircuit(100, 1e-13, waveform.Constant(1))
	sys, _ := mna.Build(ckt)
	res, err := Run(sys, Options{TStop: 1e-9, Step: 1e-12}) // 100 tau
	if err != nil {
		t.Fatal(err)
	}
	n := res.States.Cols
	fin := res.States.Data[(len(res.Times)-1)*n:]
	if len(fin) != 1 || math.Abs(fin[0]-1) > 1e-6 {
		t.Fatalf("final = %v, want [1]", fin)
	}
}

func TestBandedPathMatchesLU(t *testing.T) {
	ckt := netlist.NewCircuit()
	ckt.AddDriver("agg", "a0", waveform.Ramp(2e-10, 1e-10, 1.8, 0), 300)
	ckt.AddDriver("vic", "v0", waveform.Constant(0), 900)
	for i := 1; i <= 20; i++ {
		ckt.AddR(fmt.Sprintf("ra%d", i), fmt.Sprintf("a%d", i-1), fmt.Sprintf("a%d", i), 30)
		ckt.AddC(fmt.Sprintf("ca%d", i), fmt.Sprintf("a%d", i), "0", 2e-15)
		ckt.AddR(fmt.Sprintf("rv%d", i), fmt.Sprintf("v%d", i-1), fmt.Sprintf("v%d", i), 40)
		ckt.AddC(fmt.Sprintf("cv%d", i), fmt.Sprintf("v%d", i), "0", 2e-15)
		ckt.AddC(fmt.Sprintf("cc%d", i), fmt.Sprintf("v%d", i), fmt.Sprintf("a%d", i), 1.5e-15)
	}
	sys, err := mna.Build(ckt)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{TStop: 1.5e-9, Step: 2e-12, InitDC: true}
	if s, err := prepare(sys, [][]*waveform.PWL{sys.Inputs}, nil, opt, false); err != nil {
		t.Fatal(err)
	} else if _, ok := s.f.(*linalg.BandedChol); !ok {
		t.Fatalf("two coupled lines factored as %T, want the banded Cholesky", s.f)
	}
	band, err := Run(sys, opt)
	if err != nil {
		t.Fatal(err)
	}
	dense := denseRun(t, sys, opt)
	vd, _ := dense.Voltage("v20")
	vb, _ := band.Voltage("v20")
	for _, tt := range []float64{3e-10, 6e-10, 1.2e-9} {
		if d := math.Abs(vd.At(tt) - vb.At(tt)); d > 1e-9 {
			t.Fatalf("banded diverges from LU at %v: %v", tt, d)
		}
	}
}
