package ceff_test

import (
	"context"
	"math"
	"testing"

	"repro/internal/ceff"
	"repro/internal/delaynoise"
	"repro/internal/device"
	"repro/internal/lsim"
	"repro/internal/mna"
	"repro/internal/netlist"
	"repro/internal/thevenin"
	"repro/internal/waveform"
	"repro/internal/workload"
)

// fullHorizon is ComputeContext as it was before the charge-matching
// run stopped at the driver's 50% crossing: every iteration simulates
// out to the full horizon and the charge integral looks each resample
// point up twice.
func fullHorizon(ctx context.Context, cell *device.Cell, inSlew float64, inRising bool, net *netlist.Circuit, driveNode string) (ceff.Result, error) {
	const tol, maxIter = 0.01, 10
	cTotal := 0.0
	for _, c := range net.Capacitors {
		cTotal += c.C
	}
	vdd := cell.Tech.Vdd
	cEff := cTotal
	var model thevenin.Model
	for iter := 1; iter <= maxIter; iter++ {
		m, _, err := thevenin.FitContext(ctx, cell, inSlew, inRising, cEff)
		if err != nil {
			return ceff.Result{}, err
		}
		model = m
		ckt := net.Clone()
		ckt.AddDriver("__drv", driveNode, m.SourceWaveform(), m.Rth)
		sys, err := mna.Build(ckt)
		if err != nil {
			return ceff.Result{}, err
		}
		horizon := m.T0 + m.Dt + 30*m.Rth*cTotal
		res, err := lsim.Run(sys, lsim.Options{TStop: horizon, Step: horizon / 3000, InitDC: true, Ctx: ctx})
		if err != nil {
			return ceff.Result{}, err
		}
		vOut, err := res.Voltage(driveNode)
		if err != nil {
			return ceff.Result{}, err
		}
		var t50 float64
		if m.Rising {
			t50, err = vOut.CrossRising(vdd / 2)
		} else {
			t50, err = vOut.CrossFalling(vdd / 2)
		}
		if err != nil {
			cEff = cTotal
			break
		}
		src := m.SourceWaveform()
		diff := src.Resample(res.Times[0], t50, 1500)
		q := 0.0
		for i := 1; i < diff.Len(); i++ {
			tA, tB := diff.T[i-1], diff.T[i]
			iA := (diff.V[i-1] - vOut.At(tA)) / m.Rth
			iB := (diff.V[i] - vOut.At(tB)) / m.Rth
			q += 0.5 * (iA + iB) * (tB - tA)
		}
		next := math.Abs(q) / (vdd / 2)
		if next > cTotal {
			next = cTotal
		}
		if next < 1e-18 {
			next = 1e-18
		}
		if math.Abs(next-cEff) <= tol*cEff {
			return ceff.Result{Ceff: next, Model: model, CTotal: cTotal, Iterations: iter}, nil
		}
		cEff = next
	}
	m, _, err := thevenin.FitContext(ctx, cell, inSlew, inRising, cEff)
	if err != nil {
		return ceff.Result{}, err
	}
	return ceff.Result{Ceff: cEff, Model: m, CTotal: cTotal, Iterations: maxIter}, nil
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameResult(a, b ceff.Result) bool {
	ma, mb := a.Model, b.Model
	return sameBits(a.Ceff, b.Ceff) && sameBits(a.CTotal, b.CTotal) && a.Iterations == b.Iterations &&
		sameBits(ma.Rth, mb.Rth) && sameBits(ma.T0, mb.T0) && sameBits(ma.Dt, mb.Dt) &&
		sameBits(ma.Vdd, mb.Vdd) && ma.Rising == mb.Rising
}

// TestStopAtCrossingBitIdentical pins ComputeContext to the
// full-horizon loop, bit for bit in Ceff, Model, CTotal and
// Iterations, for the victim and every aggressor driver of workload
// nets, each driving the net held the way the analysis holds it, plus
// a driver that never reaches 50%.
func TestStopAtCrossingBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("characterizes every driver of 56 nets twice")
	}
	ctx := context.Background()
	lib := device.NewLibrary(device.Default180())
	var cases []*delaynoise.Case
	for _, p := range []struct {
		prof workload.Profile
		n    int
	}{{workload.DefaultProfile(), 40}, {workload.BusProfile(), 8}, {workload.LongRouteProfile(), 8}} {
		cs, err := workload.NewGenerator(lib, p.prof, 20010618).Population(p.n)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, cs...)
	}
	drivers := 0
	for ci, c := range cases {
		loads, err := delaynoise.DriverLoads(ctx, c, delaynoise.Options{})
		if err != nil {
			t.Fatalf("net %d: %v", ci, err)
		}
		for li, l := range loads {
			rising := l.Spec.Cell.InputRisingFor(l.Spec.OutputRising)
			got, err := ceff.ComputeContext(ctx, l.Spec.Cell, l.Spec.InputSlew, rising, l.Net, l.Node)
			if err != nil {
				t.Fatalf("net %d driver %d: %v", ci, li, err)
			}
			want, err := fullHorizon(ctx, l.Spec.Cell, l.Spec.InputSlew, rising, l.Net, l.Node)
			if err != nil {
				t.Fatalf("net %d driver %d: reference: %v", ci, li, err)
			}
			if !sameResult(got, want) {
				t.Errorf("net %d driver %d: %+v, full horizon gives %+v", ci, li, got, want)
			}
			drivers++
		}
	}

	// A weak driver against a strong hold at its own output: the
	// divider keeps the output below 50%, so Ceff stays at CTotal.
	cell, err := lib.Cell("INVX1")
	if err != nil {
		t.Fatal(err)
	}
	net := netlist.NewCircuit()
	net.AddC("cn", "out", "0", 20e-15)
	net.AddR("rw", "out", "far", 400)
	net.AddC("cf", "far", "0", 30e-15)
	net.AddDriver("__hold", "out", waveform.Constant(0), 50)
	got, err := ceff.ComputeContext(ctx, cell, 100e-12, false, net, "out")
	if err != nil {
		t.Fatal(err)
	}
	want, err := fullHorizon(ctx, cell, 100e-12, false, net, "out")
	if err != nil {
		t.Fatal(err)
	}
	if !sameResult(got, want) || got.Ceff != got.CTotal {
		t.Errorf("held driver: %+v, full horizon gives %+v (want Ceff = CTotal)", got, want)
	}
	t.Logf("%d drivers of %d nets, plus one held below 50%%", drivers, len(cases))
}
