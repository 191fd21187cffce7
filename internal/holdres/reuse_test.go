package holdres

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/device"
	"repro/internal/gatesim"
	"repro/internal/thevenin"
	"repro/internal/waveform"
)

// computeTwice is ComputeContext as it was before the noiseless driver
// run was reused: it always simulates V1 a second time at the shared
// horizon. The reuse must match it bit for bit.
func computeTwice(cell *device.Cell, inSlew float64, inRising bool, ceff, rth float64, vn *waveform.PWL) (*Result, error) {
	in := injectedCurrent(vn, rth, ceff)
	var opt gatesim.Options
	v1, err := gatesim.Drive(cell, inSlew, inRising, ceff, nil, opt)
	if err != nil {
		return nil, err
	}
	opt.Horizon = v1.End()
	if in.End() > opt.Horizon {
		opt.Horizon = in.End() + 100e-12
	}
	v1, err = gatesim.Drive(cell, inSlew, inRising, ceff, nil, opt)
	if err != nil {
		return nil, err
	}
	v2, err := gatesim.Drive(cell, inSlew, inRising, ceff, in, opt)
	if err != nil {
		return nil, err
	}
	noiseNL := waveform.Sub(v2, v1)
	areaVn := noiseNL.Integral()
	areaIn := in.Integral()
	res := &Result{
		Rth: rth, In: in,
		Noiseless: v1, Noisy: v2, NoiseNL: noiseNL,
		AreaVn: areaVn, AreaIn: areaIn,
	}
	if !isFinite(areaIn) || !isFinite(areaVn) || math.Abs(areaIn) < 1e-30 {
		res.Rtr = rth
		return res, nil
	}
	rtr := areaVn / areaIn
	if rtr <= 0 || !isFinite(rtr) {
		rtr = rth
	}
	if rtr < minRatio*rth {
		rtr = minRatio * rth
	}
	if rtr > maxRatio*rth {
		rtr = maxRatio * rth
	}
	res.Rtr = rtr
	return res, nil
}

func samePWL(a, b *waveform.PWL) bool {
	if len(a.T) != len(b.T) || len(a.V) != len(b.V) {
		return false
	}
	for i := range a.T {
		if math.Float64bits(a.T[i]) != math.Float64bits(b.T[i]) || math.Float64bits(a.V[i]) != math.Float64bits(b.V[i]) {
			return false
		}
	}
	return true
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestReusedNoiselessRunIsBitIdentical sweeps victim cells, slews and
// loads under a short noise pulse, the linear superposition noise of the
// test net, and a pulse that outlasts the noiseless run. Compute must
// match computeTwice bit for bit, both where it reuses the first
// noiseless run and where the injection forces the rerun.
func TestReusedNoiselessRunIsBitIdentical(t *testing.T) {
	net := testNet()
	aggCell, _ := lib.Cell("INVX8")
	mA, _, err := thevenin.Fit(aggCell, 80e-12, true, 50e-15)
	if err != nil {
		t.Fatal(err)
	}
	const rth = 2000.0
	fits, outlasts := 0, 0
	for _, vc := range []struct {
		cell       string
		slew, ceff float64
		inRising   bool
	}{
		{"INVX1", 300e-12, 60e-15, false},
		{"INVX2", 150e-12, 30e-15, true},
		{"INVX4", 80e-12, 90e-15, false},
	} {
		cell, err := lib.Cell(vc.cell)
		if err != nil {
			t.Fatal(err)
		}
		first, err := gatesim.DriveWithHorizon(cell, vc.slew, vc.inRising, vc.ceff, nil, gatesim.Options{})
		if err != nil {
			t.Fatal(err)
		}
		end := first.Out.End()
		for k, vn := range []*waveform.PWL{
			waveform.New([]float64{0, 150e-12, 300e-12, 450e-12}, []float64{0, -0.25, -0.1, 0}),
			linearNoise(t, net, mA, rth, 0, net.VictimIn),
			waveform.New([]float64{0, 200e-12, 400e-12, end + 1e-9}, []float64{0, 0.2, 0.05, 0}),
		} {
			name := fmt.Sprintf("%s/vn%d", vc.cell, k)
			got, err := Compute(cell, vc.slew, vc.inRising, vc.ceff, rth, vn)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want, err := computeTwice(cell, vc.slew, vc.inRising, vc.ceff, rth, vn)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !sameBits(got.Rtr, want.Rtr) || !sameBits(got.AreaVn, want.AreaVn) || !sameBits(got.AreaIn, want.AreaIn) ||
				!samePWL(got.In, want.In) || !samePWL(got.Noiseless, want.Noiseless) ||
				!samePWL(got.Noisy, want.Noisy) || !samePWL(got.NoiseNL, want.NoiseNL) {
				t.Errorf("%s: result differs from the double simulation (Rtr %v vs %v)", name, got.Rtr, want.Rtr)
			}
			if got.In.End() > end {
				outlasts++
			} else {
				fits++
			}
		}
	}
	if fits == 0 || outlasts == 0 {
		t.Fatalf("sweep has %d injections inside the noiseless run and %d outlasting it; want both", fits, outlasts)
	}
}
