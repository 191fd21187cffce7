package align

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/device"
	"repro/internal/waveform"
)

func smallConfig() Config {
	// A cheaper grid for unit tests; experiments use DefaultConfig.
	c := DefaultConfig(tech)
	c.Grid = 13
	return c
}

func TestConfigValidation(t *testing.T) {
	bad := smallConfig()
	bad.SlewMax = bad.SlewMin
	if err := bad.defaults(); err == nil {
		t.Error("expected slew range error")
	}
	bad = smallConfig()
	bad.WidthMin = 0
	if err := bad.defaults(); err == nil {
		t.Error("expected width range error")
	}
	bad = smallConfig()
	bad.HeightMax = 0.01
	if err := bad.defaults(); err == nil {
		t.Error("expected height range error")
	}
}

func TestPrecharacterizeAndPredict(t *testing.T) {
	cell := recv(t, "INVX2")
	tab, err := Precharacterize(cell, true, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumPoints() != 8 {
		t.Fatalf("NumPoints = %d", tab.NumPoints())
	}
	// All alignment voltages must be inside the rails.
	for si := 0; si < 2; si++ {
		for wi := 0; wi < 2; wi++ {
			for hi := 0; hi < 2; hi++ {
				va := tab.Va[si][wi][hi]
				if va <= 0 || va >= tech.Vdd {
					t.Fatalf("Va[%d][%d][%d] = %v outside rails", si, wi, hi, va)
				}
			}
		}
	}

	// Prediction accuracy against the exhaustive search on an
	// interpolated, non-corner condition: the *delay* at the predicted
	// alignment must be within 10% (the paper's accuracy claim) of the
	// exhaustive worst-case delay.
	o := Objective{Receiver: cell, Load: tab.MinLoad, VictimRising: true}
	slew := 250e-12
	noiseless := waveform.Ramp(2e-10, slew, 0, tech.Vdd)
	pulse := Pulse{Height: -0.35, Width: 150e-12}
	noise := pulse.Waveform()

	exh, err := o.ExhaustiveWorst(noiseless, noise, 31)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := tab.PredictPeakTime(noiseless, slew, pulse.Width, -pulse.Height, tab.MinLoad)
	if err != nil {
		t.Fatal(err)
	}
	quiet, err := o.OutputCross(noiseless)
	if err != nil {
		t.Fatal(err)
	}
	predOut, err := o.OutputCross(NoisyInput(noiseless, noise, pred))
	if err != nil {
		t.Fatal(err)
	}
	exhNoise := exh.TOut - quiet
	predNoise := predOut - quiet
	if exhNoise <= 0 {
		t.Fatalf("exhaustive delay noise %v not positive", exhNoise)
	}
	if predNoise > exhNoise+1e-13 {
		t.Fatalf("prediction (%v) cannot beat exhaustive (%v)", predNoise, exhNoise)
	}
	if predNoise < 0.85*exhNoise {
		t.Errorf("predicted delay noise %v vs exhaustive %v: error %.1f%% exceeds 15%%",
			predNoise, exhNoise, 100*(1-predNoise/exhNoise))
	}
}

func TestPredictClampsOutOfRange(t *testing.T) {
	cell := recv(t, "INVX1")
	tab, err := Precharacterize(cell, true, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	noiseless := waveform.Ramp(2e-10, 300e-12, 0, tech.Vdd)
	// Far-out-of-range conditions must still produce a valid prediction.
	tp, err := tab.PredictPeakTime(noiseless, 5e-9, 5e-9, 10, tab.MinLoad)
	if err != nil {
		t.Fatal(err)
	}
	if tp < noiseless.Start() || tp > noiseless.End() {
		t.Fatalf("clamped prediction %v outside transition", tp)
	}
}

func TestPrecharFallingVictim(t *testing.T) {
	cell := recv(t, "INVX2")
	cfg := smallConfig()
	cfg.Grid = 11
	tab, err := Precharacterize(cell, false, cfg)
	if err != nil {
		t.Fatal(err)
	}
	noiseless := waveform.Ramp(2e-10, 200e-12, tech.Vdd, 0)
	tp, err := tab.PredictPeakTime(noiseless, 200e-12, 100e-12, 0.3, tab.MinLoad)
	if err != nil {
		t.Fatal(err)
	}
	o := Objective{Receiver: cell, Load: tab.MinLoad, VictimRising: false}
	noise := Pulse{Height: +0.3, Width: 100e-12}.Waveform()
	dn, err := o.DelayNoise(noiseless, noise, tp)
	if err != nil {
		t.Fatal(err)
	}
	if dn <= 0 {
		t.Fatalf("falling-victim predicted alignment gives non-positive delay noise %v", dn)
	}
}

// TestAlignmentVoltageLinearity verifies the premise of §3.2 Figure 8:
// in the alignment-voltage coordinate the worst case moves roughly
// linearly with pulse height, so the 2-point interpolation is sound. We
// check that the mid-height Va lies between the corner Vas (monotone,
// bracketed).
func TestAlignmentVoltageLinearity(t *testing.T) {
	cell := recv(t, "INVX2")
	cfg := smallConfig()
	o := Objective{Receiver: cell, Load: cfg.MinLoad, VictimRising: true}
	noiseless := refTransition(tech.Vdd, 300e-12, true)
	va := func(h float64) float64 {
		noise := Pulse{Height: -h, Width: 150e-12}.Waveform()
		res, err := o.ExhaustiveWorst(noiseless, noise, 31)
		if err != nil {
			t.Fatal(err)
		}
		return res.Va
	}
	lo, mid, hi := va(0.2), va(0.45), va(0.7)
	lb, ub := math.Min(lo, hi), math.Max(lo, hi)
	span := ub - lb
	if mid < lb-0.25*span-0.05 || mid > ub+0.25*span+0.05 {
		t.Fatalf("Va not bracketed: %v / %v / %v", lo, mid, hi)
	}
}

// TestPrecharOAI21X1 builds OAI21X1's tables in both victim directions
// on all three corners. Some points of its switching-threshold sweep do
// not converge in DC from zero; each converges when retried from the
// last converged point's solution.
func TestPrecharOAI21X1(t *testing.T) {
	for _, corner := range []*device.Technology{device.Default180(), device.Fast180(), device.Slow180()} {
		cell, err := device.NewLibrary(corner).Cell("OAI21X1")
		if err != nil {
			t.Fatal(err)
		}
		for _, rising := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/rising=%t", corner.Name, rising), func(t *testing.T) {
				t.Parallel()
				tab, err := Precharacterize(cell, rising, DefaultConfig(corner))
				if err != nil {
					t.Fatal(err)
				}
				if tab.Vm <= 0 || tab.Vm >= corner.Vdd {
					t.Fatalf("Vm = %v outside the rails", tab.Vm)
				}
				for si := 0; si < 2; si++ {
					for wi := 0; wi < 2; wi++ {
						for hi := 0; hi < 2; hi++ {
							if va := tab.Va[si][wi][hi]; va < 0 || va > corner.Vdd {
								t.Fatalf("Va[%d][%d][%d] = %v outside [0, Vdd]", si, wi, hi, va)
							}
						}
					}
				}
			})
		}
	}
}
