package ceff

import (
	"context"
	"math"
	"testing"

	"repro/internal/device"
	"repro/internal/netlist"
	"repro/internal/rcnet"
	"repro/internal/waveform"
)

var lib = device.NewLibrary(device.Default180())

func TestLumpedNetCeffEqualsTotal(t *testing.T) {
	// A purely lumped load at the drive node has no resistive shielding:
	// Ceff must converge to ~CTotal.
	cell, _ := lib.Cell("INVX2")
	net := netlist.NewCircuit()
	net.AddC("cl", "out", "0", 50e-15)
	res, err := ComputeContext(context.Background(), cell, 150e-12, true, net, "out")
	if err != nil {
		t.Fatal(err)
	}
	if res.Ceff < 0.9*50e-15 {
		t.Fatalf("lumped Ceff = %v, want ~50fF", res.Ceff)
	}
	if res.Model.Rth <= 0 {
		t.Fatal("model missing")
	}
}

func TestResistiveShieldingReducesCeff(t *testing.T) {
	// A strong series resistance shields the far capacitance: Ceff must
	// come out well below CTotal.
	cell, _ := lib.Cell("INVX4")
	net := netlist.NewCircuit()
	net.AddC("cn", "out", "0", 5e-15)
	net.AddR("rs", "out", "far", 5000)
	net.AddC("cf", "far", "0", 100e-15)
	res, err := ComputeContext(context.Background(), cell, 100e-12, true, net, "out")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.CTotal-105e-15) > 1e-24 {
		t.Fatalf("CTotal = %v", res.CTotal)
	}
	if res.Ceff > 0.75*res.CTotal {
		t.Fatalf("Ceff = %v shows no shielding (CTotal %v)", res.Ceff, res.CTotal)
	}
	if res.Ceff < 5e-15 {
		t.Fatalf("Ceff = %v below near cap", res.Ceff)
	}
}

func TestCeffMonotoneWithShieldingResistance(t *testing.T) {
	cell, _ := lib.Cell("INVX2")
	prev := 1.0
	for _, rs := range []float64{100.0, 1000.0, 10000.0} {
		net := netlist.NewCircuit()
		net.AddC("cn", "out", "0", 5e-15)
		net.AddR("rs", "out", "far", rs)
		net.AddC("cf", "far", "0", 60e-15)
		res, err := ComputeContext(context.Background(), cell, 120e-12, true, net, "out")
		if err != nil {
			t.Fatalf("rs=%v: %v", rs, err)
		}
		if res.Ceff > prev {
			t.Fatalf("Ceff should fall with shielding R: %v after %v", res.Ceff, prev)
		}
		prev = res.Ceff
	}
}

func TestCoupledNetCeff(t *testing.T) {
	// On a realistic coupled net the iteration must converge quickly and
	// land strictly inside (0, CTotal].
	cell, _ := lib.Cell("INVX2")
	net := rcnet.Build(rcnet.CoupledSpec{
		Victim: rcnet.LineSpec{Name: "v", Segments: 8, RTotal: 600, CGround: 40e-15},
		Aggressors: []rcnet.AggressorSpec{
			{Line: rcnet.LineSpec{Name: "a0", Segments: 8, RTotal: 400, CGround: 30e-15}, CCouple: 30e-15, From: 0, To: 1},
		},
	})
	// Hold the aggressor quiet so the linear sim has a defined DC point.
	ckt := net.Circuit.Clone()
	ckt.AddDriver("aggHold", net.AggIn[0], wconst(0), 500)
	res, err := ComputeContext(context.Background(), cell, 150e-12, true, ckt, net.VictimIn)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations > 8 {
		t.Fatalf("took %d iterations", res.Iterations)
	}
	if res.Ceff <= 0 || res.Ceff > res.CTotal {
		t.Fatalf("Ceff = %v outside (0, %v]", res.Ceff, res.CTotal)
	}
}

func TestEmptyNetError(t *testing.T) {
	cell, _ := lib.Cell("INVX1")
	net := netlist.NewCircuit()
	net.AddR("r", "out", "0", 100)
	if _, err := ComputeContext(context.Background(), cell, 100e-12, true, net, "out"); err == nil {
		t.Fatal("expected error for capacitance-free net")
	}
}

// wconst is a tiny helper for constant waveforms in tests.
func wconst(v float64) *waveform.PWL { return waveform.Constant(v) }
