package align

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/device"
	"repro/internal/waveform"
)

var (
	tech = device.Default180()
	lib  = device.NewLibrary(tech)
)

func recv(t *testing.T, name string) *device.Cell {
	t.Helper()
	c, err := lib.Cell(name)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestPulseWaveform(t *testing.T) {
	p := Pulse{Height: -0.4, Width: 100e-12}
	w := p.Waveform()
	if v := w.At(0); v != -0.4 {
		t.Fatalf("peak = %v", v)
	}
	width, err := w.WidthAt(0.5)
	if err != nil || math.Abs(width-100e-12) > 1e-15 {
		t.Fatalf("half-height width = %v, %v", width, err)
	}
	if w.At(-2e-10) != 0 || w.At(2e-10) != 0 {
		t.Fatal("pulse should vanish outside its base")
	}
}

func TestPulsePanicsOnBadWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Pulse{Height: 1, Width: 0}.Waveform()
}

func TestParamsRoundTrip(t *testing.T) {
	p := Pulse{Height: -0.35, Width: 80e-12}
	got, err := Params(p.Waveform())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Height-p.Height) > 1e-12 || math.Abs(got.Width-p.Width) > 1e-15 {
		t.Fatalf("got %+v, want %+v", got, p)
	}
	if _, err := Params(waveform.Constant(0)); err == nil {
		t.Fatal("expected error for flat waveform")
	}
}

func TestCompositePeakAlignment(t *testing.T) {
	// Two pulses with different peak locations: the composite height must
	// be the sum of heights (peaks coincide at 0).
	p1 := Pulse{Height: -0.2, Width: 60e-12}.Waveform().Shift(3e-10)
	p2 := Pulse{Height: -0.3, Width: 120e-12}.Waveform().Shift(-1e-10)
	comp, err := Composite(p1, p2)
	if err != nil {
		t.Fatal(err)
	}
	tp, h := comp.Peak()
	if math.Abs(tp) > 1e-15 {
		t.Fatalf("composite peak at %v, want 0", tp)
	}
	if math.Abs(h-(-0.5)) > 1e-12 {
		t.Fatalf("composite height %v, want -0.5", h)
	}
}

func TestCompositeAtStagger(t *testing.T) {
	p1 := Pulse{Height: -0.2, Width: 60e-12}.Waveform()
	p2 := Pulse{Height: -0.2, Width: 60e-12}.Waveform()
	comp, err := CompositeAt([]*waveform.PWL{p1, p2}, []float64{0, 60e-12})
	if err != nil {
		t.Fatal(err)
	}
	// Staggered: lower peak, wider pulse.
	_, h := comp.Peak()
	if h <= -0.4+1e-9 {
		t.Fatalf("staggered composite should be lower than -0.4, got %v", h)
	}
	w, err := comp.WidthAt(0.5)
	if err != nil {
		t.Fatal(err)
	}
	aligned, _ := Composite(p1, p2)
	wa, _ := aligned.WidthAt(0.5)
	if w <= wa {
		t.Fatalf("staggered composite should be wider: %v vs %v", w, wa)
	}
}

func TestEdgeRate(t *testing.T) {
	w := waveform.Ramp(0, 200e-12, 0, tech.Vdd)
	er, err := EdgeRate(w, tech.Vdd, true)
	if err != nil || math.Abs(er-200e-12) > 1e-12 {
		t.Fatalf("edge rate %v, %v", er, err)
	}
	f := waveform.Ramp(0, 100e-12, tech.Vdd, 0)
	er, err = EdgeRate(f, tech.Vdd, false)
	if err != nil || math.Abs(er-100e-12) > 1e-12 {
		t.Fatalf("falling edge rate %v, %v", er, err)
	}
}

func TestOutputCrossBasics(t *testing.T) {
	o := Objective{Receiver: recv(t, "INVX2"), Load: 10e-15, VictimRising: true}
	noiseless := waveform.Ramp(2e-10, 200e-12, 0, tech.Vdd)
	tq, err := o.OutputCross(noiseless)
	if err != nil {
		t.Fatal(err)
	}
	if tq < 2e-10 {
		t.Fatalf("output crossing %v before input started", tq)
	}
	// A retarding pulse at mid-transition must increase the crossing time.
	noise := Pulse{Height: -0.4, Width: 100e-12}.Waveform()
	tp := 2e-10 + 100e-12
	tn, err := o.OutputCross(NoisyInput(noiseless, noise, tp))
	if err != nil {
		t.Fatal(err)
	}
	if tn <= tq {
		t.Fatalf("noise did not increase delay: %v vs %v", tn, tq)
	}
}

func TestExhaustiveWorstBeatsFixedAlignments(t *testing.T) {
	o := Objective{Receiver: recv(t, "INVX2"), Load: 5e-15, VictimRising: true}
	noiseless := waveform.Ramp(2e-10, 250e-12, 0, tech.Vdd)
	noise := Pulse{Height: -0.5, Width: 120e-12}.Waveform()
	worst, err := o.ExhaustiveWorst(noiseless, noise, 25)
	if err != nil {
		t.Fatal(err)
	}
	// Any other alignment must give an equal or smaller output delay.
	for _, tp := range []float64{2e-10, 3e-10, 4e-10, 5e-10} {
		out, err := o.OutputCross(NoisyInput(noiseless, noise, tp))
		if err != nil {
			continue
		}
		if out > worst.TOut+1e-13 {
			t.Fatalf("alignment %v gives %v, beating exhaustive %v", tp, out, worst.TOut)
		}
	}
	// The worst case must be a genuine delay increase.
	quiet, _ := o.OutputCross(noiseless)
	if worst.TOut <= quiet {
		t.Fatalf("worst case (%v) no worse than noiseless (%v)", worst.TOut, quiet)
	}
	// Alignment voltage must lie inside the swing.
	if worst.Va < 0 || worst.Va > tech.Vdd {
		t.Fatalf("Va = %v outside rails", worst.Va)
	}
}

func TestReceiverInputAlignment(t *testing.T) {
	vdd := tech.Vdd
	noiseless := waveform.Ramp(0, 400e-12, 0, vdd)
	// Peak placed where noiseless reaches Vdd/2 + Vp.
	tp, err := ReceiverInputAlignment(noiseless, -0.3, vdd, true)
	if err != nil {
		t.Fatal(err)
	}
	want := 400e-12 * (vdd/2 + 0.3) / vdd
	if math.Abs(tp-want) > 1e-13 {
		t.Fatalf("tp = %v, want %v", tp, want)
	}
	// Falling victim.
	fall := waveform.Ramp(0, 400e-12, vdd, 0)
	tp, err = ReceiverInputAlignment(fall, 0.3, vdd, false)
	if err != nil {
		t.Fatal(err)
	}
	want = 400e-12 * (vdd - (vdd/2 - 0.3)) / vdd
	if math.Abs(tp-want) > 1e-13 {
		t.Fatalf("falling tp = %v, want %v", tp, want)
	}
	// Oversized pulse: clamped, not an error.
	if _, err := ReceiverInputAlignment(noiseless, -2.0, vdd, true); err != nil {
		t.Fatalf("oversized pulse should clamp: %v", err)
	}
}

// TestSmallLoadAlignmentSensitivity reproduces the Fig 7(a) observation:
// with a small receiver load the delay is very sensitive to alignment;
// with a large load it is flat.
func TestSmallLoadAlignmentSensitivity(t *testing.T) {
	noiseless := waveform.Ramp(2e-10, 200e-12, 0, tech.Vdd)
	noise := Pulse{Height: -0.45, Width: 100e-12}.Waveform()
	spread := func(load float64) float64 {
		o := Objective{Receiver: recv(t, "INVX2"), Load: load, VictimRising: true}
		worst, err := o.ExhaustiveWorst(noiseless, noise, 21)
		if err != nil {
			t.Fatal(err)
		}
		// Delay at worst vs delay with the pulse 150 ps off the worst.
		off, err := o.OutputCross(NoisyInput(noiseless, noise, worst.TPeak+150e-12))
		if err != nil {
			t.Fatal(err)
		}
		return worst.TOut - off
	}
	small := spread(2e-15)
	large := spread(150e-15)
	if small <= large {
		t.Fatalf("small-load sensitivity (%v) should exceed large-load (%v)", small, large)
	}
}

func TestDelayNoisePositiveAtWorstCase(t *testing.T) {
	o := Objective{Receiver: recv(t, "INVX4"), Load: 20e-15, VictimRising: true}
	noiseless := waveform.Ramp(2e-10, 300e-12, 0, tech.Vdd)
	noise := Pulse{Height: -0.4, Width: 150e-12}.Waveform()
	worst, err := o.ExhaustiveWorst(noiseless, noise, 21)
	if err != nil {
		t.Fatal(err)
	}
	dn, err := o.DelayNoise(noiseless, noise, worst.TPeak)
	if err != nil {
		t.Fatal(err)
	}
	if dn <= 0 {
		t.Fatalf("worst-case delay noise %v must be positive", dn)
	}
}

func TestExhaustiveBestFindsSpeedup(t *testing.T) {
	// A helping (positive) pulse on a rising victim can only speed the
	// receiver up; ExhaustiveBest must find an output crossing earlier
	// than the noiseless one.
	o := Objective{Receiver: recv(t, "INVX2"), Load: 8e-15, VictimRising: true}
	noiseless := waveform.Ramp(2e-10, 250e-12, 0, tech.Vdd)
	help := Pulse{Height: +0.4, Width: 120e-12}.Waveform()
	quiet, err := o.OutputCross(noiseless)
	if err != nil {
		t.Fatal(err)
	}
	best, err := o.ExhaustiveBest(noiseless, help, 21)
	if err != nil {
		t.Fatal(err)
	}
	if best.TOut >= quiet {
		t.Fatalf("best crossing %v not earlier than quiet %v", best.TOut, quiet)
	}
	// No alignment can beat the reported best.
	for _, tp := range []float64{2.5e-10, 3.5e-10, 4.5e-10} {
		out, err := o.OutputCross(NoisyInput(noiseless, help, tp))
		if err != nil {
			continue
		}
		if out < best.TOut-1e-13 {
			t.Fatalf("alignment %v beats reported best: %v < %v", tp, out, best.TOut)
		}
	}
}

func TestReceiverInputSpeedup(t *testing.T) {
	vdd := tech.Vdd
	noiseless := waveform.Ramp(0, 400e-12, 0, vdd)
	tp, err := ReceiverInputSpeedup(noiseless, 0.3, vdd, true)
	if err != nil {
		t.Fatal(err)
	}
	want := 400e-12 * (vdd/2 - 0.3) / vdd
	if math.Abs(tp-want) > 1e-13 {
		t.Fatalf("tp = %v, want %v", tp, want)
	}
	fall := waveform.Ramp(0, 400e-12, vdd, 0)
	tp, err = ReceiverInputSpeedup(fall, -0.3, vdd, false)
	if err != nil {
		t.Fatal(err)
	}
	want = 400e-12 * (vdd - (vdd/2 + 0.3)) / vdd
	if math.Abs(tp-want) > 1e-13 {
		t.Fatalf("falling tp = %v, want %v", tp, want)
	}
	// Oversized pulse clamps instead of erroring.
	if _, err := ReceiverInputSpeedup(noiseless, 3, vdd, true); err != nil {
		t.Fatalf("oversized pulse should clamp: %v", err)
	}
}

func TestSearchWindowErrors(t *testing.T) {
	noise := Pulse{Height: -0.3, Width: 50e-12}.Waveform()
	// Flat "transition" has no crossings.
	if _, _, err := SearchWindow(waveform.Constant(0.5), noise, tech.Vdd, true); err == nil {
		t.Fatal("expected error for flat noiseless waveform")
	}
	// Flat noise has no measurable pulse.
	full := waveform.Ramp(0, 1e-10, 0, tech.Vdd)
	if _, _, err := SearchWindow(full, waveform.Constant(0), tech.Vdd, true); err == nil {
		t.Fatal("expected error for flat noise")
	}
}

func TestCompositeErrors(t *testing.T) {
	if _, err := Composite(); err == nil {
		t.Fatal("expected error for no pulses")
	}
	if _, err := Composite(waveform.Constant(0)); err == nil {
		t.Fatal("expected error for flat pulse")
	}
	if _, err := CompositeAt([]*waveform.PWL{waveform.Constant(0)}, []float64{0, 1}); err == nil {
		t.Fatal("expected error for offset count mismatch")
	}
}

// DelayNoise evaluates the extra combined delay caused by the noise pulse
// at a given alignment: output crossing with noise minus without.
func (o Objective) DelayNoise(noiseless, noise *waveform.PWL, tPeak float64) (float64, error) {
	quiet, err := o.OutputCross(noiseless)
	if err != nil {
		return 0, fmt.Errorf("align: noiseless receiver sim: %w", err)
	}
	noisy, err := o.OutputCross(NoisyInput(noiseless, noise, tPeak))
	if err != nil {
		return 0, fmt.Errorf("align: noisy receiver sim: %w", err)
	}
	return noisy - quiet, nil
}
