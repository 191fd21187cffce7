package thevenin

import (
	"math"
	"testing"

	"repro/internal/device"
	"repro/internal/lsim"
	"repro/internal/mna"
	"repro/internal/netlist"
	"repro/internal/waveform"
)

func TestRampRCLimits(t *testing.T) {
	// Pure ramp: linear between 0 and dt.
	if v := rampRC(1, 0, rampEnd(1, 0), 0.5); math.Abs(v-0.5) > 1e-12 {
		t.Fatalf("pure ramp midpoint %v", v)
	}
	// At t >> dt + tau: fully settled.
	if v := rampRC(1, 0.5, rampEnd(1, 0.5), 30); math.Abs(v-1) > 1e-9 {
		t.Fatalf("settled value %v", v)
	}
	// Monotone in t.
	prev := -1.0
	for tt := 0.0; tt < 5; tt += 0.01 {
		v := rampRC(1, 0.8, rampEnd(1, 0.8), tt)
		if v < prev-1e-12 {
			t.Fatalf("rampRC not monotone at %v", tt)
		}
		prev = v
	}
}

func TestShapeRatioMonotoneOnFitBranch(t *testing.T) {
	// The fit searches rho >= shapeRatioArgmin, where the ratio must be
	// strictly increasing.
	prev := 0.0
	for rho := shapeRatioArgmin; rho < 5; rho *= 1.3 {
		r := shapeRatio(rho)
		if prev != 0 && r <= prev {
			t.Fatalf("shapeRatio not increasing at rho=%v: %v <= %v", rho, r, prev)
		}
		prev = r
	}
	if shapeRatio(0.001) < 0.99 || shapeRatio(0.001) > 1.05 {
		t.Fatalf("ramp limit = %v, want ~1", shapeRatio(0.001))
	}
	if math.Abs(shapeRatio(100)-maxShapeRatio) > 0.02*maxShapeRatio {
		t.Fatalf("exp limit = %v, want %v", shapeRatio(100), maxShapeRatio)
	}
	if shapeRatioMin >= 1 || shapeRatioArgmin < 0.05 || shapeRatioArgmin > 0.4 {
		t.Fatalf("dip = (%v, %v) outside expected region", shapeRatioArgmin, shapeRatioMin)
	}
}

func TestFitWaveformRoundTrip(t *testing.T) {
	// Generate a waveform from a known Thevenin model, fit it, and expect
	// to recover the parameters.
	vdd := 1.8
	trueModel := Model{T0: 2e-10, Dt: 3e-10, Rth: 1200, Vdd: vdd, Rising: true}
	ceff := 50e-15
	// Simulate it with lsim.
	ckt := netlist.NewCircuit()
	ckt.AddDriver("d", "out", trueModel.SourceWaveform(), trueModel.Rth)
	ckt.AddC("c", "out", "0", ceff)
	sys, _ := mna.Build(ckt)
	res, err := lsim.Run(sys, lsim.Options{TStop: 4e-9, Step: 2e-13})
	if err != nil {
		t.Fatal(err)
	}
	out, _ := res.Voltage("out")
	got, err := FitWaveform(out, vdd, ceff, true)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Rth-trueModel.Rth) > 0.05*trueModel.Rth {
		t.Errorf("Rth = %v, want ~%v", got.Rth, trueModel.Rth)
	}
	if math.Abs(got.Dt-trueModel.Dt) > 0.08*trueModel.Dt {
		t.Errorf("Dt = %v, want ~%v", got.Dt, trueModel.Dt)
	}
	if math.Abs(got.T0-trueModel.T0) > 0.1*trueModel.Dt {
		t.Errorf("T0 = %v, want ~%v", got.T0, trueModel.T0)
	}
}

func TestFitCellMatchesCrossings(t *testing.T) {
	// The fitted linear model must reproduce the nonlinear gate's 10/50/90
	// crossings into the same load within a few percent of the transition.
	lib := device.NewLibrary(device.Default180())
	cell, _ := lib.Cell("INVX2")
	ceff := 40e-15
	m, nlOut, err := Fit(cell, 150e-12, true, ceff)
	if err != nil {
		t.Fatal(err)
	}
	if m.Rising {
		t.Fatal("rising input into inverter must give falling output model")
	}
	if m.Rth < 100 || m.Rth > 20000 {
		t.Fatalf("implausible Rth %v", m.Rth)
	}
	// Simulate the model into ceff and compare crossings.
	ckt := netlist.NewCircuit()
	ckt.AddDriver("d", "out", m.SourceWaveform(), m.Rth)
	ckt.AddC("c", "out", "0", ceff)
	sys, _ := mna.Build(ckt)
	res, err := lsim.Run(sys, lsim.Options{TStop: nlOut.End(), Step: 5e-13, InitDC: true})
	if err != nil {
		t.Fatal(err)
	}
	linOut, _ := res.Voltage("out")
	vdd := cell.Tech.Vdd
	for _, frac := range []float64{0.1, 0.5, 0.9} {
		th := (1 - frac) * vdd // falling transition
		tNL, err1 := nlOut.CrossFalling(th)
		tLin, err2 := linOut.CrossFalling(th)
		if err1 != nil || err2 != nil {
			t.Fatalf("missing crossing at %v: %v %v", frac, err1, err2)
		}
		// Allow 6% of the total transition time as fitting error.
		span, _ := nlOut.Slew(vdd, 0, 0.1, 0.9)
		if math.Abs(tNL-tLin) > 0.06*span+2e-12 {
			t.Errorf("crossing %v%%: nonlinear %v vs linear %v (span %v)", frac*100, tNL, tLin, span)
		}
	}
}

func TestFitBothDirections(t *testing.T) {
	lib := device.NewLibrary(device.Default180())
	cell, _ := lib.Cell("INVX4")
	for _, inRising := range []bool{true, false} {
		m, _, err := Fit(cell, 100e-12, inRising, 30e-15)
		if err != nil {
			t.Fatalf("inRising=%v: %v", inRising, err)
		}
		if m.Rising != !inRising {
			t.Fatalf("inRising=%v: model direction wrong", inRising)
		}
		if m.Dt <= 0 || m.Rth <= 0 {
			t.Fatalf("invalid model %+v", m)
		}
	}
}

func TestRthDecreasesWithDriveStrength(t *testing.T) {
	lib := device.NewLibrary(device.Default180())
	x1, _ := lib.Cell("INVX1")
	x8, _ := lib.Cell("INVX8")
	m1, _, err := Fit(x1, 150e-12, true, 30e-15)
	if err != nil {
		t.Fatal(err)
	}
	m8, _, err := Fit(x8, 150e-12, true, 30e-15)
	if err != nil {
		t.Fatal(err)
	}
	if m8.Rth >= m1.Rth/2 {
		t.Fatalf("INVX8 Rth %v should be well below INVX1 Rth %v", m8.Rth, m1.Rth)
	}
}

func TestFitWaveformRejectsBadInput(t *testing.T) {
	if _, err := FitWaveform(waveform.Constant(0), 1.8, 10e-15, true); err == nil {
		t.Fatal("expected error for flat waveform")
	}
	if _, err := FitWaveform(waveform.Ramp(0, 1e-10, 0, 1.8), 1.8, 0, true); err == nil {
		t.Fatal("expected error for zero ceff")
	}
}
