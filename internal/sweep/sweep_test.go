package sweep

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/delaynoise"
	"repro/internal/device"
	"repro/internal/rcnet"
)

var lib = device.NewLibrary(device.Default180())

func refCase(t *testing.T) *delaynoise.Case {
	t.Helper()
	cell := func(n string) *device.Cell {
		c, err := lib.Cell(n)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	net := rcnet.Build(rcnet.CoupledSpec{
		Victim: rcnet.LineSpec{Name: "v", Segments: 4, RTotal: 400, CGround: 30e-15},
		Aggressors: []rcnet.AggressorSpec{
			{Line: rcnet.LineSpec{Name: "a", Segments: 4, RTotal: 300, CGround: 25e-15}, CCouple: 25e-15, From: 0, To: 1},
		},
	})
	return &delaynoise.Case{
		Net:    net,
		Victim: delaynoise.DriverSpec{Cell: cell("INVX2"), InputSlew: 300e-12, OutputRising: true, InputStart: 200e-12},
		Aggressors: []delaynoise.DriverSpec{
			{Cell: cell("INVX8"), InputSlew: 80e-12, OutputRising: false, InputStart: 400e-12},
		},
		Receiver:     cell("INVX2"),
		ReceiverLoad: 10e-15,
	}
}

func TestCouplingSweepMonotone(t *testing.T) {
	ref := refCase(t)
	res, err := Run(ref, CouplingRatio, []float64{0.5, 1.0, 1.5}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 3 {
		t.Fatalf("got %d points", len(res.Points))
	}
	// More coupling, more delay noise.
	if !monotone(res, 1e-12) {
		t.Fatalf("delay noise not monotone in coupling: %+v", res.Points)
	}
	// The reference case was not mutated.
	if ref.Net.Spec.Aggressors[0].CCouple != 25e-15 {
		t.Fatal("sweep mutated the reference case")
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "coupling-ratio") {
		t.Fatal("print header missing")
	}
}

func TestReceiverLoadSweep(t *testing.T) {
	res, err := Run(refCase(t), ReceiverLoad, []float64{3e-15, 60e-15}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Points {
		if p.DelayNoise <= 0 {
			t.Fatalf("delay noise %v at load %v", p.DelayNoise, p.Value)
		}
	}
}

func TestGoldenSweepErrors(t *testing.T) {
	res, err := Run(refCase(t), VictimSlew, []float64{250e-12, 400e-12}, Options{Golden: true})
	if err != nil {
		t.Fatal(err)
	}
	rtrErr := maxAbsRelError(res, func(p Point) float64 { return p.DelayNoise })
	thevErr := maxAbsRelError(res, func(p Point) float64 { return p.Thevenin })
	if rtrErr <= 0 || thevErr <= 0 {
		t.Fatal("golden runs missing")
	}
	if rtrErr >= thevErr {
		t.Errorf("rtr error %v should beat thevenin %v across the sweep", rtrErr, thevErr)
	}
}

func TestRunValidation(t *testing.T) {
	ref := refCase(t)
	if _, err := Run(ref, CouplingRatio, nil, Options{}); err == nil {
		t.Error("expected error for empty values")
	}
	if _, err := Run(ref, CouplingRatio, []float64{-1}, Options{}); err == nil {
		t.Error("expected error for negative ratio")
	}
	if _, err := Run(ref, VictimSlew, []float64{0}, Options{}); err == nil {
		t.Error("expected error for zero slew")
	}
	if _, err := Run(ref, Param(99), []float64{1}, Options{}); err == nil {
		t.Error("expected error for unknown parameter")
	}
}

// monotone reports whether the rtr delay noise is monotone
// non-decreasing across the sweep (within tol), the expected behaviour
// for coupling-ratio sweeps.
func monotone(r *Result, tol float64) bool {
	for i := 1; i < len(r.Points); i++ {
		if r.Points[i].DelayNoise < r.Points[i-1].DelayNoise-tol {
			return false
		}
	}
	return true
}

// maxAbsRelError returns the largest |model - golden|/golden across the
// sweep for the given extractor (requires Golden runs).
func maxAbsRelError(r *Result, model func(Point) float64) float64 {
	worst := 0.0
	for _, p := range r.Points {
		if p.Golden == 0 {
			continue
		}
		if e := math.Abs(model(p)-p.Golden) / math.Abs(p.Golden); e > worst {
			worst = e
		}
	}
	return worst
}
