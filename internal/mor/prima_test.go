package mor

import (
	"context"
	"math"
	"testing"

	"repro/internal/lsim"
	"repro/internal/mna"
	"repro/internal/netlist"
	"repro/internal/rcnet"
	"repro/internal/waveform"
)

// run integrates the reduced model of sys under sys's own inputs.
func run(rom *ROM, sys *mna.System, opt lsim.Options) (*Result, error) {
	res, err := rom.RunGroup(context.Background(), [][]*waveform.PWL{sys.Inputs}, opt)
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// buildTestNet returns a 2-aggressor coupled net with drivers, plus the
// probe nodes of interest.
func buildTestNet() (*mna.System, []string) {
	net := rcnet.Build(rcnet.CoupledSpec{
		Victim: rcnet.LineSpec{Name: "v", Segments: 10, RTotal: 800, CGround: 60e-15},
		Aggressors: []rcnet.AggressorSpec{
			{Line: rcnet.LineSpec{Name: "a0", Segments: 10, RTotal: 500, CGround: 40e-15}, CCouple: 35e-15, From: 0, To: 1},
			{Line: rcnet.LineSpec{Name: "a1", Segments: 10, RTotal: 700, CGround: 50e-15}, CCouple: 20e-15, From: 0.3, To: 0.9},
		},
	})
	ckt := net.Circuit
	ckt.AddDriver("vd", net.VictimIn, waveform.Ramp(2e-10, 2e-10, 0, 1.8), 1100)
	ckt.AddDriver("a0d", net.AggIn[0], waveform.Ramp(3e-10, 1e-10, 1.8, 0), 400)
	ckt.AddDriver("a1d", net.AggIn[1], waveform.Ramp(4e-10, 1.5e-10, 1.8, 0), 600)
	sys, err := mna.Build(ckt)
	if err != nil {
		panic(err)
	}
	return sys, []string{net.VictimOut, net.VictimIn, net.AggOut[0]}
}

func TestReducedMatchesFull(t *testing.T) {
	sys, probes := buildTestNet()
	full, err := lsim.Run(sys, lsim.Options{TStop: 3e-9, Step: 2e-12})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []int{6, 12} {
		rom, err := Reduce(sys, q)
		if err != nil {
			t.Fatalf("q=%d: %v", q, err)
		}
		if rom.Order > q {
			t.Fatalf("q=%d: order %d exceeds request", q, rom.Order)
		}
		red, err := run(rom, sys, lsim.Options{TStop: 3e-9, Step: 2e-12})
		if err != nil {
			t.Fatalf("q=%d: %v", q, err)
		}
		for _, p := range probes {
			vf, _ := full.Voltage(p)
			vr, err := red.Voltage(p)
			if err != nil {
				t.Fatal(err)
			}
			worst := 0.0
			for _, tt := range []float64{3e-10, 5e-10, 8e-10, 1.2e-9, 2e-9, 2.9e-9} {
				if d := math.Abs(vf.At(tt) - vr.At(tt)); d > worst {
					worst = d
				}
			}
			// Higher order must be accurate; q=6 still decent on this net.
			lim := 0.05
			if q >= 12 {
				lim = 0.01
			}
			if worst > lim*1.8 {
				t.Errorf("q=%d node %s: worst error %v V", q, p, worst)
			}
		}
	}
}

func TestIdentityProjectionWhenOrderTooLarge(t *testing.T) {
	sys, _ := buildTestNet()
	rom, err := Reduce(sys, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if rom.Order != sys.NumStates() {
		t.Fatalf("order = %d, want full %d", rom.Order, sys.NumStates())
	}
}

func TestReduceErrors(t *testing.T) {
	sys, _ := buildTestNet()
	if _, err := Reduce(sys, 0); err == nil {
		t.Error("expected error for order 0")
	}
	// Floating-node G: node b has no resistive path (q < n so the
	// factorization runs); a driver holds node a.
	ckt := netlist.NewCircuit()
	ckt.AddC("c", "a", "b", 1e-15)
	ckt.AddC("c2", "b", "0", 1e-15)
	ckt.AddDriver("d", "a", waveform.Constant(0), 100)
	badSys, _ := mna.Build(ckt)
	if _, err := Reduce(badSys, 1); err == nil {
		t.Error("expected error for singular G")
	}
	// No inputs at all.
	ckt2 := netlist.NewCircuit()
	ckt2.AddR("r", "a", "0", 1)
	ckt2.AddC("c", "a", "0", 1e-15)
	sys2, _ := mna.Build(ckt2)
	if _, err := Reduce(sys2, 2); err == nil {
		t.Error("expected error for no inputs")
	}
}

func TestDCGainPreserved(t *testing.T) {
	// PRIMA matches the first block moment: DC transfer from each input
	// to each node is exact. Check by simulating constant sources.
	ckt := netlist.NewCircuit()
	ckt.AddDriver("d", "in", waveform.Constant(1.5), 100)
	ckt.AddR("r1", "in", "mid", 400)
	ckt.AddC("c1", "mid", "0", 20e-15)
	ckt.AddR("r2", "mid", "out", 400)
	ckt.AddC("c2", "out", "0", 20e-15)
	ckt.AddR("rl", "out", "0", 10000) // DC load so gain != 1
	sys, _ := mna.Build(ckt)
	rom, err := Reduce(sys, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := run(rom, sys, lsim.Options{TStop: 5e-9, Step: 5e-12, InitDC: true})
	if err != nil {
		t.Fatal(err)
	}
	v, _ := res.Voltage("out")
	// Analytic DC: divider 1.5 * 10000/(100+400+400+10000).
	want := 1.5 * 10000 / 10900
	if math.Abs(v.At(4e-9)-want) > 1e-3 {
		t.Fatalf("DC gain %v, want %v", v.At(4e-9), want)
	}
}

func TestSpeedupStructure(t *testing.T) {
	// The reduced system must actually be smaller.
	sys, _ := buildTestNet()
	rom, err := Reduce(sys, 9)
	if err != nil {
		t.Fatal(err)
	}
	if rom.Reduced.NumStates() >= sys.NumStates() {
		t.Fatalf("no reduction: %d vs %d", rom.Reduced.NumStates(), sys.NumStates())
	}
	if rom.Reduced.NumInputs() != sys.NumInputs() {
		t.Fatal("inputs must be preserved")
	}
}
