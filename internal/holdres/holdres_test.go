package holdres

import (
	"math"
	"testing"

	"repro/internal/device"
	"repro/internal/lsim"
	"repro/internal/mna"
	"repro/internal/netlist"
	"repro/internal/rcnet"
	"repro/internal/thevenin"
	"repro/internal/waveform"
)

var lib = device.NewLibrary(device.Default180())

// linearNoise runs the linear superposition aggressor simulation: the
// aggressor Thevenin driver switches while the victim is held by rHold at
// its initial rail. It returns the noise Vn(t) = v(t) - v(0) at probe.
func linearNoise(t *testing.T, net *rcnet.CoupledNet, aggModel thevenin.Model, rHold, vInit float64, probe string) *waveform.PWL {
	t.Helper()
	ckt := net.Circuit.Clone()
	ckt.AddDriver("agg", net.AggIn[0], aggModel.SourceWaveform(), aggModel.Rth)
	ckt.AddDriver("vic", net.VictimIn, waveform.Constant(vInit), rHold)
	sys, err := mna.Build(ckt)
	if err != nil {
		t.Fatal(err)
	}
	horizon := aggModel.T0 + aggModel.Dt + 2e-9
	res, err := lsim.Run(sys, lsim.Options{TStop: horizon, Step: 1e-12, InitDC: true})
	if err != nil {
		t.Fatal(err)
	}
	v, err := res.Voltage(probe)
	if err != nil {
		t.Fatal(err)
	}
	return v.Offset(-v.At(v.Start()))
}

func testNet() *rcnet.CoupledNet {
	return rcnet.Build(rcnet.CoupledSpec{
		Victim: rcnet.LineSpec{Name: "v", Segments: 8, RTotal: 500, CGround: 35e-15},
		Aggressors: []rcnet.AggressorSpec{
			{Line: rcnet.LineSpec{Name: "a0", Segments: 8, RTotal: 300, CGround: 30e-15}, CCouple: 40e-15, From: 0, To: 1},
		},
	})
}

func TestComputeRtr(t *testing.T) {
	net := testNet()
	vicCell, _ := lib.Cell("INVX1") // weak victim: strong noise coupling
	aggCell, _ := lib.Cell("INVX8") // strong aggressor

	// Victim: output rising (input falling), slowish edge.
	vicSlew := 300e-12
	ceffV := 60e-15
	mV, _, err := thevenin.Fit(vicCell, vicSlew, false, ceffV)
	if err != nil {
		t.Fatal(err)
	}
	// Aggressor: output falling, fast edge, timed to hit mid-transition
	// of the victim.
	mA, _, err := thevenin.Fit(aggCell, 80e-12, true, 50e-15)
	if err != nil {
		t.Fatal(err)
	}
	// Shift the aggressor transition to overlap the victim's mid ramp.
	mA.T0 = mV.T0 + 0.5*mV.Dt

	vn := linearNoise(t, net, mA, mV.Rth, 0, net.VictimIn)
	_, peak := vn.Min() // falling aggressor -> negative noise on victim
	if peak > -0.05 {
		t.Fatalf("noise pulse too small for a meaningful test: %v", peak)
	}

	res, err := Compute(vicCell, vicSlew, false, ceffV, mV.Rth, vn)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rtr <= 0 {
		t.Fatalf("Rtr = %v", res.Rtr)
	}
	// The paper's headline mechanism: during its transition the victim
	// driver is saturated (low output conductance), so the transient
	// holding resistance exceeds the aggregate Thevenin resistance and
	// the Thevenin model underestimates the injected noise.
	if res.Rtr <= res.Rth {
		t.Errorf("expected Rtr > Rth mid-transition, got Rtr=%v Rth=%v", res.Rtr, res.Rth)
	}
	// The nonlinear noise response must be a real pulse.
	if _, p := res.NoiseNL.Min(); p > -0.02 {
		t.Errorf("nonlinear noise response too small: %v", p)
	}
}

func TestRtrAreaMatch(t *testing.T) {
	// By construction, a linear R-C with Rtr must reproduce the nonlinear
	// noise *area* when the same current is injected. Verify with an
	// explicit linear simulation.
	net := testNet()
	vicCell, _ := lib.Cell("INVX2")
	aggCell, _ := lib.Cell("INVX4")
	ceffV := 55e-15
	mV, _, err := thevenin.Fit(vicCell, 250e-12, false, ceffV)
	if err != nil {
		t.Fatal(err)
	}
	mA, _, err := thevenin.Fit(aggCell, 100e-12, true, 45e-15)
	if err != nil {
		t.Fatal(err)
	}
	mA.T0 = mV.T0 + 0.4*mV.Dt
	vn := linearNoise(t, net, mA, mV.Rth, 0, net.VictimIn)
	res, err := Compute(vicCell, 250e-12, false, ceffV, mV.Rth, vn)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rtr == res.Rth {
		t.Skip("degenerate case: Rtr fell back to Rth")
	}
	// Linear model: current In into Rtr || Ceff, injected through its
	// Norton-equivalent driver (source In·Rtr behind Rtr).
	ckt := netlist.NewCircuit()
	ckt.AddC("c", "n", "0", ceffV)
	ckt.AddDriver("i", "n", res.In.Scale(res.Rtr), res.Rtr)
	sys, _ := mna.Build(ckt)
	sim, err := lsim.Run(sys, lsim.Options{TStop: res.In.End() + 1e-9, Step: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	vLin, _ := sim.Voltage("n")
	areaLin := vLin.Integral()
	if math.Abs(areaLin-res.AreaVn) > 0.15*math.Abs(res.AreaVn) {
		t.Errorf("linear model area %v vs nonlinear %v", areaLin, res.AreaVn)
	}
}

func TestComputeValidation(t *testing.T) {
	cell, _ := lib.Cell("INVX1")
	vn := waveform.Ramp(0, 1e-10, 0, -0.3)
	if _, err := Compute(cell, 1e-10, false, 0, 1000, vn); err == nil {
		t.Error("expected error for zero ceff")
	}
	if _, err := Compute(cell, 1e-10, false, 1e-15, 0, vn); err == nil {
		t.Error("expected error for zero rth")
	}
	if _, err := Compute(cell, 1e-10, false, 1e-15, 1000, waveform.Constant(0)); err == nil {
		t.Error("expected error for degenerate waveform")
	}
}

func TestZeroNoiseFallsBackToRth(t *testing.T) {
	cell, _ := lib.Cell("INVX2")
	// Flat (but non-degenerate) noise waveform: areas vanish.
	vn := waveform.New([]float64{0, 1e-10, 2e-10}, []float64{0, 0, 0})
	res, err := Compute(cell, 2e-10, false, 40e-15, 1200, vn)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rtr != 1200 {
		t.Fatalf("Rtr = %v, want Rth fallback", res.Rtr)
	}
}

func TestInjectedCurrentShape(t *testing.T) {
	// Triangular noise pulse: In must contain both the resistive term
	// (v/R) and the capacitive term (C dv/dt).
	vn := waveform.New([]float64{0, 1e-10, 2e-10}, []float64{0, -0.4, 0})
	rth, c := 1000.0, 50e-15
	in := injectedCurrent(vn, rth, c)
	// During the falling edge: v/R ~ -0.2mA at midpoint, C*dv/dt =
	// 50f * (-4e9) = -0.2mA; total ~ -0.4mA at the first midpoint.
	got := in.At(0.5e-10)
	want := -0.2/rth*1000*1e-3 + c*(-0.4/1e-10)
	want = -0.2/rth + c*(-4e9)
	if math.Abs(got-want) > 0.05*math.Abs(want) {
		t.Fatalf("In(mid) = %v, want ~%v", got, want)
	}
	// Integral of In equals integral(v)/R because the C term integrates
	// to zero over a closed pulse.
	wantArea := vn.Integral() / rth
	if math.Abs(in.Integral()-wantArea) > 0.05*math.Abs(wantArea) {
		t.Fatalf("area %v, want %v", in.Integral(), wantArea)
	}
}
