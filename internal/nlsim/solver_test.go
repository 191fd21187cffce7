package nlsim

import (
	"math"
	"testing"

	"repro/internal/device"
	"repro/internal/lsim"
	"repro/internal/mna"
	"repro/internal/netlist"
	"repro/internal/waveform"
)

var tech = device.Default180()

func TestLinearRCAgainstAnalytic(t *testing.T) {
	// Pure linear circuit through the nonlinear solver must match the
	// analytic RC response.
	c := NewCircuit()
	src := c.Fixed("src", waveform.Ramp(0, 1e-14, 0, 1))
	out := c.Node("out")
	c.AddR(src, out, 1000)
	c.AddC(out, Ground, 1e-12)
	res, err := Run(c, Options{TStop: 5e-9, Step: 5e-12})
	if err != nil {
		t.Fatal(err)
	}
	v, _ := res.Voltage("out")
	tau := 1e-9
	for _, k := range []float64{0.5, 1, 2} {
		want := 1 - math.Exp(-k)
		if got := v.At(k * tau); math.Abs(got-want) > 5e-3 {
			t.Errorf("v(%v tau) = %v, want %v", k, got, want)
		}
	}
}

func TestInverterDCTransfer(t *testing.T) {
	// DC sweep of an inverter: output high at low input, low at high
	// input, monotone decreasing in between.
	lib := device.NewLibrary(tech)
	inv, _ := lib.Cell("INVX2")
	prev := math.Inf(1)
	for _, vin := range []float64{0, 0.3, 0.6, 0.9, 1.2, 1.5, 1.8} {
		c := NewCircuit()
		in := c.Fixed("in", waveform.Constant(vin))
		out := c.Node("out")
		c.AddCell(inv, "u1", in, out)
		c.AddC(out, Ground, 5e-15)
		x, err := DC(c, 0, nil)
		if err != nil {
			t.Fatalf("DC at vin=%v: %v", vin, err)
		}
		vout := x[c.nodes[out].state]
		if vout > prev+1e-6 {
			t.Fatalf("transfer not monotone at vin=%v: %v > %v", vin, vout, prev)
		}
		prev = vout
		if vin == 0 && math.Abs(vout-tech.Vdd) > 0.05 {
			t.Fatalf("output at vin=0 is %v, want ~Vdd", vout)
		}
		if vin == 1.8 && vout > 0.05 {
			t.Fatalf("output at vin=Vdd is %v, want ~0", vout)
		}
	}
}

func TestInverterTransient(t *testing.T) {
	lib := device.NewLibrary(tech)
	inv, _ := lib.Cell("INVX2")
	c := NewCircuit()
	in := c.Fixed("in", waveform.Ramp(1e-10, 1e-10, 0, 1.8))
	out := c.Node("out")
	c.AddCell(inv, "u1", in, out)
	c.AddC(out, Ground, 20e-15)
	res, err := Run(c, Options{TStop: 2e-9, Step: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	v, _ := res.Voltage("out")
	// Starts high, ends low.
	if v.At(0) < 1.7 {
		t.Fatalf("initial output %v, want ~Vdd", v.At(0))
	}
	if v.At(2e-9) > 0.1 {
		t.Fatalf("final output %v, want ~0", v.At(2e-9))
	}
	// Falling 50% crossing happens after the input starts moving.
	t50, err := v.CrossFalling(0.9)
	if err != nil || t50 < 1e-10 {
		t.Fatalf("t50 = %v, err %v", t50, err)
	}
}

func TestInverterDelayScalesWithLoad(t *testing.T) {
	lib := device.NewLibrary(tech)
	inv, _ := lib.Cell("INVX2")
	delay := func(load float64) float64 {
		c := NewCircuit()
		in := c.Fixed("in", waveform.Ramp(1e-10, 1e-10, 0, 1.8))
		out := c.Node("out")
		c.AddCell(inv, "u1", in, out)
		c.AddC(out, Ground, load)
		res, err := Run(c, Options{TStop: 5e-9, Step: 2e-12})
		if err != nil {
			t.Fatal(err)
		}
		v, _ := res.Voltage("out")
		t50, err := v.CrossFalling(0.9)
		if err != nil {
			t.Fatal(err)
		}
		return t50
	}
	d1 := delay(10e-15)
	d2 := delay(80e-15)
	if d2 <= d1 {
		t.Fatalf("delay should grow with load: %v vs %v", d1, d2)
	}
	if d2 < 3*d1 {
		t.Logf("note: 8x load gave %.2fx delay", d2/d1)
	}
}

func TestNANDAndNORSwitch(t *testing.T) {
	lib := device.NewLibrary(tech)
	for _, name := range []string{"NAND2X1", "NOR2X1"} {
		cell, _ := lib.Cell(name)
		c := NewCircuit()
		in := c.Fixed("in", waveform.Ramp(1e-10, 2e-10, 0, 1.8))
		out := c.Node("out")
		c.AddCell(cell, "u1", in, out)
		c.AddC(out, Ground, 15e-15)
		res, err := Run(c, Options{TStop: 3e-9, Step: 2e-12})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		v, _ := res.Voltage("out")
		if v.At(0) < 1.7 || v.At(3e-9) > 0.1 {
			t.Fatalf("%s: output did not switch: %v -> %v", name, v.At(0), v.At(3e-9))
		}
	}
}

func TestImportLinearMatchesLsim(t *testing.T) {
	// The nonlinear solver on a purely linear imported circuit must agree
	// with package lsim (they use different formulations).
	nl := netlist.NewCircuit()
	nl.AddDriver("agg", "a", waveform.Ramp(2e-10, 1e-10, 0, 1.8), 300)
	nl.AddR("r1", "a", "a2", 150)
	nl.AddC("cg", "a2", "0", 10e-15)
	nl.AddC("cc", "a2", "v", 12e-15)
	nl.AddDriver("vic", "v", waveform.Constant(0), 900)

	c := NewCircuit()
	c.ImportLinear(nl)
	res, err := Run(c, Options{TStop: 2e-9, Step: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	vNL, _ := res.Voltage("v")

	// Reference via the linear engine.
	sysRef, err := buildLinearRef(nl)
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range []float64{3e-10, 5e-10, 1e-9} {
		if diff := math.Abs(vNL.At(tt) - sysRef.At(tt)); diff > 2e-3 {
			t.Fatalf("mismatch at %v: %v", tt, diff)
		}
	}
}

func TestCurrentSourceInjection(t *testing.T) {
	// Triangular current pulse into R || C: response must be a positive
	// pulse returning to zero.
	c := NewCircuit()
	n := c.Node("n")
	c.AddR(n, Ground, 1000)
	c.AddC(n, Ground, 50e-15)
	pulse := waveform.New([]float64{0, 1e-10, 2e-10, 3e-10}, []float64{0, 0, 1e-4, 0})
	c.AddI(n, pulse)
	res, err := Run(c, Options{TStop: 1.5e-9, Step: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	v, _ := res.Voltage("n")
	_, peak := v.Max()
	if peak < 0.02 || peak > 0.1 {
		t.Fatalf("peak %v outside plausible range (IR = 0.1)", peak)
	}
	if math.Abs(v.At(1.5e-9)) > 1e-3 {
		t.Fatalf("pulse did not decay: %v", v.At(1.5e-9))
	}
}

func TestRunValidation(t *testing.T) {
	c := NewCircuit()
	n := c.Node("n")
	c.AddR(n, Ground, 100)
	if _, err := Run(c, Options{TStop: 1e-9}); err == nil {
		t.Error("expected error for zero step")
	}
	if _, err := Run(c, Options{TStop: 0, Step: 1e-12}); err == nil {
		t.Error("expected error for empty interval")
	}
	if _, err := Run(c, Options{TStop: 1e-9, Step: 1e-12, X0: []float64{1, 2}}); err == nil {
		t.Error("expected error for X0 mismatch")
	}
}

func TestSealPreventsLateModification(t *testing.T) {
	c := NewCircuit()
	n := c.Node("n")
	c.AddR(n, Ground, 100)
	c.AddC(n, Ground, 1e-15)
	if _, err := Run(c, Options{TStop: 1e-10, Step: 1e-12}); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on post-seal modification")
		}
	}()
	c.AddR(n, Ground, 50)
}

func TestVoltageOfFixedNode(t *testing.T) {
	c := NewCircuit()
	src := c.Fixed("src", waveform.Ramp(0, 1e-9, 0, 1))
	n := c.Node("n")
	c.AddR(src, n, 10)
	c.AddC(n, Ground, 1e-16)
	res, err := Run(c, Options{TStop: 1e-9, Step: 1e-11})
	if err != nil {
		t.Fatal(err)
	}
	v, err := res.Voltage("src")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v.At(5e-10)-0.5) > 1e-9 {
		t.Fatalf("fixed node waveform wrong: %v", v.At(5e-10))
	}
	if _, err := res.Voltage("nope"); err == nil {
		t.Fatal("expected error for unknown node")
	}
}

// buildLinearRef runs the lsim engine on the same netlist and returns the
// victim waveform as an independent reference.
func buildLinearRef(nl *netlist.Circuit) (*waveform.PWL, error) {
	sys, err := mna.Build(nl)
	if err != nil {
		return nil, err
	}
	res, err := lsim.Run(sys, lsim.Options{TStop: 2e-9, Step: 1e-12})
	if err != nil {
		return nil, err
	}
	return res.Voltage("v")
}

func TestBufferAndComplexGatesSwitch(t *testing.T) {
	lib := device.NewLibrary(tech)
	for _, tc := range []struct {
		cell string
		// final output level for a rising input
		wantHigh bool
	}{
		{"BUFX4", true},
		{"AOI21X1", false},
		{"OAI21X1", false},
	} {
		cell, err := lib.Cell(tc.cell)
		if err != nil {
			t.Fatal(err)
		}
		c := NewCircuit()
		in := c.Fixed("in", waveform.Ramp(1e-10, 1.5e-10, 0, 1.8))
		out := c.Node("out")
		c.AddCell(cell, "u1", in, out)
		c.AddC(out, Ground, 15e-15)
		res, err := Run(c, Options{TStop: 3e-9, Step: 2e-12})
		if err != nil {
			t.Fatalf("%s: %v", tc.cell, err)
		}
		v, _ := res.Voltage("out")
		initial, final := v.At(0), v.At(3e-9)
		if tc.wantHigh {
			if initial > 0.1 || final < 1.7 {
				t.Fatalf("%s: output %v -> %v, want rising to Vdd", tc.cell, initial, final)
			}
		} else {
			if initial < 1.7 || final > 0.1 {
				t.Fatalf("%s: output %v -> %v, want falling to 0", tc.cell, initial, final)
			}
		}
	}
}
