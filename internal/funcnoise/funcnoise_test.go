package funcnoise

import (
	"math"
	"testing"

	"repro/internal/align"
	"repro/internal/delaynoise"
	"repro/internal/device"
	"repro/internal/rcnet"
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

func quietCase(t *testing.T, victim, agg string, coupling float64) *delaynoise.Case {
	t.Helper()
	net := rcnet.Build(rcnet.CoupledSpec{
		Victim: rcnet.LineSpec{Name: "v", Segments: 5, RTotal: 400, CGround: 30e-15},
		Aggressors: []rcnet.AggressorSpec{
			{Line: rcnet.LineSpec{Name: "a", Segments: 5, RTotal: 300, CGround: 25e-15}, CCouple: coupling, From: 0, To: 1},
		},
	})
	return &delaynoise.Case{
		Net:    net,
		Victim: delaynoise.DriverSpec{Cell: cellOf(t, victim), InputSlew: 200e-12, OutputRising: true, InputStart: 200e-12},
		Aggressors: []delaynoise.DriverSpec{
			{Cell: cellOf(t, agg), InputSlew: 60e-12, OutputRising: false, InputStart: 300e-12},
		},
		Receiver:     cellOf(t, "INVX2"),
		ReceiverLoad: 8e-15,
	}
}

func TestQuiescentResistance(t *testing.T) {
	// A stronger cell must hold its rail with a lower resistance, and the
	// resistance must be on the scale of the device on-resistance.
	x1, err := QuiescentResistance(cellOf(t, "INVX1"), true)
	if err != nil {
		t.Fatal(err)
	}
	x8, err := QuiescentResistance(cellOf(t, "INVX8"), true)
	if err != nil {
		t.Fatal(err)
	}
	if x8 >= x1/4 {
		t.Fatalf("INVX8 hold R %v should be well below INVX1 %v", x8, x1)
	}
	if x1 < 50 || x1 > 50000 {
		t.Fatalf("implausible hold R %v", x1)
	}
	// High and low states differ (PMOS vs NMOS on-resistance).
	lo, err := QuiescentResistance(cellOf(t, "INVX1"), false)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lo-x1)/x1 < 0.05 {
		t.Logf("note: hold R nearly symmetric (%v vs %v)", lo, x1)
	}
}

func TestAnalyzeQuietVictim(t *testing.T) {
	c := quietCase(t, "INVX2", "INVX8", 25e-15)
	res, err := Analyze(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.VictimHigh {
		t.Fatal("falling aggressor should attack the high victim state")
	}
	// Falling aggressor on a high victim: negative pulse.
	if res.InputPulse.Height >= 0 {
		t.Fatalf("pulse height %v should be negative", res.InputPulse.Height)
	}
	if res.InputPulse.Height < -tech.Vdd {
		t.Fatalf("pulse height %v exceeds the rail", res.InputPulse.Height)
	}
	if res.OutputGlitch < 0 {
		t.Fatalf("glitch %v", res.OutputGlitch)
	}
	// A quiet victim held by a real driver sees much less noise than a
	// switching one: the glitch must not be a failure at this coupling.
	if res.Failed {
		t.Fatalf("moderate coupling should not fail; glitch %v V", res.OutputGlitch)
	}
}

func TestStrongerCouplingBiggerGlitch(t *testing.T) {
	weak, err := Analyze(quietCase(t, "INVX1", "INVX16", 15e-15), Options{})
	if err != nil {
		t.Fatal(err)
	}
	strong, err := Analyze(quietCase(t, "INVX1", "INVX16", 60e-15), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(strong.InputPulse.Height) <= math.Abs(weak.InputPulse.Height) {
		t.Fatalf("coupling 60fF pulse %v should exceed 15fF pulse %v",
			strong.InputPulse.Height, weak.InputPulse.Height)
	}
	if strong.OutputGlitch <= weak.OutputGlitch {
		t.Fatalf("glitch should grow with coupling: %v vs %v",
			strong.OutputGlitch, weak.OutputGlitch)
	}
}

func TestWeakVictimFailure(t *testing.T) {
	// A very weak victim driver with overwhelming coupling must flag a
	// functional failure.
	c := quietCase(t, "INVX1", "INVX16", 140e-15)
	c.Receiver = cellOf(t, "INVX2")
	res, err := Analyze(c, Options{FailFraction: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Failed {
		t.Fatalf("expected failure; glitch %v V, pulse %v V", res.OutputGlitch, res.InputPulse.Height)
	}
}

func TestRisingAggressorAttacksLowVictim(t *testing.T) {
	c := quietCase(t, "INVX2", "INVX8", 25e-15)
	c.Aggressors[0].OutputRising = true
	res, err := Analyze(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.VictimHigh {
		t.Fatal("rising aggressor should attack the low victim state")
	}
	if res.InputPulse.Height <= 0 {
		t.Fatalf("pulse height %v should be positive", res.InputPulse.Height)
	}
}

func TestImmunityCurveShape(t *testing.T) {
	recv := cellOf(t, "INVX2")
	curve, err := Immunity(recv, true, ImmunityOptions{Load: 30e-15})
	if err != nil {
		t.Fatal(err)
	}
	if len(curve.Points) < 6 {
		t.Fatalf("only %d points", len(curve.Points))
	}
	// Monotone: narrower pulses need at least as much height.
	for i := 1; i < len(curve.Points); i++ {
		if curve.Points[i].Height > curve.Points[i-1].Height+1e-9 {
			t.Fatalf("rejection curve not monotone at width %v: %v > %v",
				curve.Points[i].Width, curve.Points[i].Height, curve.Points[i-1].Height)
		}
	}
	// Wide pulses approach the DC noise margin (well below the rail);
	// narrow pulses need substantially more height.
	first, last := curve.Points[0], curve.Points[len(curve.Points)-1]
	if last.Height >= tech.Vdd {
		t.Fatal("wide pulses must eventually fail")
	}
	if first.Height < 1.1*last.Height {
		t.Fatalf("narrow pulse height %v should exceed wide %v (low-pass filtering)",
			first.Height, last.Height)
	}
}

func TestImmunityInterpolationAndCheck(t *testing.T) {
	recv := cellOf(t, "INVX1")
	curve, err := Immunity(recv, false, ImmunityOptions{
		Widths: []float64{50e-12, 200e-12, 800e-12}, Load: 10e-15,
	})
	if err != nil {
		t.Fatal(err)
	}
	mid := curve.CriticalHeight(100e-12)
	if mid > curve.Points[0].Height || mid < curve.Points[1].Height {
		t.Fatalf("interpolated height %v outside bracket [%v, %v]",
			mid, curve.Points[1].Height, curve.Points[0].Height)
	}
	// Clamping outside the range.
	if curve.CriticalHeight(1e-12) != curve.Points[0].Height {
		t.Fatal("clamp below range broken")
	}
	if curve.CriticalHeight(1) != curve.Points[len(curve.Points)-1].Height {
		t.Fatal("clamp above range broken")
	}
	// Check(): a pulse just above the boundary fails, just below passes.
	p := align.Pulse{Height: curve.Points[1].Height + 0.05, Width: 200e-12}
	if !curve.Check(p) {
		t.Fatal("pulse above boundary should fail")
	}
	p.Height = curve.Points[1].Height - 0.05
	if curve.Check(p) {
		t.Fatal("pulse below boundary should pass")
	}
}

func TestImmunityLoadEffect(t *testing.T) {
	// A heavier output load filters more: the critical height of a narrow
	// pulse must grow with load.
	recv := cellOf(t, "INVX2")
	light, err := Immunity(recv, true, ImmunityOptions{Widths: []float64{40e-12}, Load: 3e-15})
	if err != nil {
		t.Fatal(err)
	}
	heavy, err := Immunity(recv, true, ImmunityOptions{Widths: []float64{40e-12}, Load: 80e-15})
	if err != nil {
		t.Fatal(err)
	}
	if heavy.Points[0].Height <= light.Points[0].Height {
		t.Fatalf("heavy load %v should reject more than light %v",
			heavy.Points[0].Height, light.Points[0].Height)
	}
}

// Check classifies a measured pulse against the curve.
func (c *ImmunityCurve) Check(p align.Pulse) bool {
	return math.Abs(p.Height) >= c.CriticalHeight(p.Width)
}

// CriticalHeight interpolates the rejection boundary at a pulse width
// (clamped to the characterized range).
func (c *ImmunityCurve) CriticalHeight(width float64) float64 {
	n := len(c.Points)
	if n == 0 {
		return math.Inf(1)
	}
	if width <= c.Points[0].Width {
		return c.Points[0].Height
	}
	if width >= c.Points[n-1].Width {
		return c.Points[n-1].Height
	}
	for i := 1; i < n; i++ {
		if width <= c.Points[i].Width {
			a, b := c.Points[i-1], c.Points[i]
			u := (width - a.Width) / (b.Width - a.Width)
			return a.Height + u*(b.Height-a.Height)
		}
	}
	return c.Points[n-1].Height
}
