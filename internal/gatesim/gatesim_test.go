package gatesim

import (
	"math"
	"testing"

	"repro/internal/device"
	"repro/internal/netlist"
	"repro/internal/waveform"
)

var (
	tech = device.Default180()
	lib  = device.NewLibrary(tech)
)

func cellOf(t *testing.T, name string) *device.Cell {
	t.Helper()
	c, err := lib.Cell(name)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestInputRamp(t *testing.T) {
	r := Input(tech, 100e-12, true)
	if r.At(InputStart) != 0 || math.Abs(r.At(InputStart+100e-12)-tech.Vdd) > 1e-12 {
		t.Fatal("rising input ramp wrong")
	}
	f := Input(tech, 100e-12, false)
	if math.Abs(f.At(0)-tech.Vdd) > 1e-12 || f.At(1) != 0 {
		t.Fatal("falling input ramp wrong")
	}
}

func TestDriveSettles(t *testing.T) {
	cell := cellOf(t, "INVX2")
	out, err := Drive(cell, 150e-12, true, 30e-15, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Rising input -> falling output, settled at ground.
	if out.At(out.Start()) < 0.9*tech.Vdd {
		t.Fatalf("initial output %v", out.At(out.Start()))
	}
	if math.Abs(out.At(out.End())) > 0.05*tech.Vdd {
		t.Fatalf("final output %v did not settle", out.At(out.End()))
	}
}

func TestDriveWithInjectionDeviates(t *testing.T) {
	cell := cellOf(t, "INVX1")
	clean, err := Drive(cell, 200e-12, false, 40e-15, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	inj := waveform.New(
		[]float64{250e-12, 300e-12, 350e-12},
		[]float64{0, -150e-6, 0})
	noisy, err := Drive(cell, 200e-12, false, 40e-15, inj, Options{Horizon: clean.End()})
	if err != nil {
		t.Fatal(err)
	}
	diff := waveform.Sub(noisy, clean)
	_, peak := diff.Peak()
	if math.Abs(peak) < 0.02 {
		t.Fatalf("injection left no trace: %v", peak)
	}
}

func TestReceiveTracksInput(t *testing.T) {
	cell := cellOf(t, "INVX2")
	in := waveform.Ramp(2e-10, 200e-12, 0, tech.Vdd)
	out, err := Receive(cell, in, 10e-15, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if out.At(out.Start()) < 0.9*tech.Vdd || out.At(out.End()) > 0.1*tech.Vdd {
		t.Fatalf("receiver did not invert: %v -> %v", out.At(out.Start()), out.At(out.End()))
	}
}

func TestSwitchingThreshold(t *testing.T) {
	// The skewed-N inverter trips below midrail; the skewed-P variant
	// above its sibling.
	n := cellOf(t, "INVX2N") // stronger NMOS
	p := cellOf(t, "INVX2P") // stronger PMOS
	vmN, err := SwitchingThreshold(n)
	if err != nil {
		t.Fatal(err)
	}
	vmP, err := SwitchingThreshold(p)
	if err != nil {
		t.Fatal(err)
	}
	if vmN >= vmP {
		t.Fatalf("N-skewed threshold %v should be below P-skewed %v", vmN, vmP)
	}
	for _, vm := range []float64{vmN, vmP} {
		if vm < 0.3 || vm > 1.5 {
			t.Fatalf("implausible threshold %v", vm)
		}
	}
}

func TestDriveNetProbes(t *testing.T) {
	cell := cellOf(t, "INVX2")
	nl := netlist.NewCircuit()
	nl.AddR("r1", "out", "far", 300)
	nl.AddC("c1", "far", "0", 20e-15)
	nl.AddC("c0", "out", "0", 5e-15)
	ws, err := DriveNet(cell, 150e-12, false, nl, "out", 3e-9, 1e-12, "far")
	if err != nil {
		t.Fatal(err)
	}
	outW, farW := ws["out"], ws["far"]
	if outW == nil || farW == nil {
		t.Fatal("probes missing")
	}
	// Falling input -> rising output; far end lags the near end.
	tNear, err := outW.CrossRising(tech.Vdd / 2)
	if err != nil {
		t.Fatal(err)
	}
	tFar, err := farW.CrossRising(tech.Vdd / 2)
	if err != nil {
		t.Fatal(err)
	}
	if tFar <= tNear {
		t.Fatalf("far end (%v) should lag near end (%v)", tFar, tNear)
	}
}

// BenchmarkReceive times one receiver simulation of the alignment
// search: a noisy input — a rising ramp with a triangular noise dip
// superposed near its 50% point — driving the cell into a lumped load.
// It is the kernel underneath noisebench's ladder.receiver_sim_us rung.
func BenchmarkReceive(b *testing.B) {
	noiseless := Input(tech, 120e-12, true)
	dip := waveform.New([]float64{0, 40e-12, 120e-12}, []float64{0, -0.5, 0})
	in := waveform.Sum(noiseless, dip.Shift(InputStart+40e-12))
	for _, name := range []string{"INVX1", "NAND2X1"} {
		cell, err := lib.Cell(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Receive(cell, in, 20e-15, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
