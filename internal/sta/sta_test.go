package sta

import (
	"math"
	"testing"

	"repro/internal/delaynoise"
	"repro/internal/device"
	"repro/internal/rcnet"
)

var (
	tech = device.Default180()
	lib  = device.NewLibrary(tech)
)

func mkCase(t *testing.T, prefix string, victim, agg, recv string) *delaynoise.Case {
	t.Helper()
	cellOf := func(n string) *device.Cell {
		c, err := lib.Cell(n)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	net := rcnet.Build(rcnet.CoupledSpec{
		Victim: rcnet.LineSpec{Name: prefix + ".v", Segments: 4, RTotal: 350, CGround: 35e-15},
		Aggressors: []rcnet.AggressorSpec{
			{Line: rcnet.LineSpec{Name: prefix + ".a0", Segments: 4, RTotal: 250, CGround: 30e-15}, CCouple: 30e-15, From: 0, To: 1},
		},
	})
	return &delaynoise.Case{
		Net:    net,
		Victim: delaynoise.DriverSpec{Cell: cellOf(victim), InputSlew: 300e-12, OutputRising: true, InputStart: 200e-12},
		Aggressors: []delaynoise.DriverSpec{
			{Cell: cellOf(agg), InputSlew: 80e-12, OutputRising: false, InputStart: 400e-12},
		},
		Receiver:     cellOf(recv),
		ReceiverLoad: 10e-15,
	}
}

func twoNetBlock(t *testing.T) *Block {
	return &Block{Nets: []NetDef{
		{
			Name:        "n0",
			Case:        mkCase(t, "n0", "INVX2", "INVX8", "INVX2"),
			FanIn:       -1,
			InputWindow: Window{Lo: 200e-12, Hi: 280e-12},
			AggWindows:  []int{-1},
		},
		{
			Name:       "n1",
			Case:       mkCase(t, "n1", "INVX2", "INVX16", "INVX4"),
			FanIn:      0,
			AggWindows: []int{0}, // constrained by n0's switching window
		},
	}}
}

func TestValidate(t *testing.T) {
	b := twoNetBlock(t)
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := &Block{Nets: []NetDef{{Name: "x", FanIn: -1}}}
	if err := bad.Validate(); err == nil {
		t.Error("expected error for missing case")
	}
	b2 := twoNetBlock(t)
	b2.Nets[1].FanIn = 7
	if err := b2.Validate(); err == nil {
		t.Error("expected error for out-of-range fan-in")
	}
	b3 := twoNetBlock(t)
	b3.Nets[0].AggWindows = nil
	if err := b3.Validate(); err == nil {
		t.Error("expected error for window-ref count")
	}
}

func TestAnalyzeConvergesAndWidensWindows(t *testing.T) {
	b := twoNetBlock(t)
	res, err := Analyze(b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge in %d iterations", res.Iterations)
	}
	if res.Iterations > 5 {
		t.Fatalf("took %d iterations; the paper's claim is very few", res.Iterations)
	}
	n0, n1 := res.Nets[0], res.Nets[1]
	if n0.BaseDelay <= 0 || n1.BaseDelay <= 0 {
		t.Fatal("base delays must be positive")
	}
	// Output windows must be at least as wide as input windows (noise
	// only widens them).
	if n0.OutWindow.width() < n0.Window.width()-1e-15 {
		t.Fatalf("n0 window shrank: %v -> %v", n0.Window, n0.OutWindow)
	}
	if n0.DelayNoise > 0 && n0.OutWindow.width() <= n0.Window.width() {
		t.Fatal("noise should widen the window")
	}
	// n1's input window equals n0's output window.
	if n1.Window != n0.OutWindow {
		t.Fatalf("window propagation broken: %v vs %v", n1.Window, n0.OutWindow)
	}
	if !n1.Constrained {
		t.Fatal("n1's aggressor should be window-constrained")
	}
	if n0.Constrained {
		t.Fatal("n0's aggressor is unconstrained")
	}
}

func TestConstraintReducesNoise(t *testing.T) {
	// A tight window far from the worst alignment must not increase the
	// delay noise relative to an unconstrained analysis.
	b := twoNetBlock(t)
	resFree, err := Analyze(b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Narrow the primary window so n1's aggressor is pinned early.
	b2 := twoNetBlock(t)
	b2.Nets[0].InputWindow = Window{Lo: 100e-12, Hi: 110e-12}
	resTight, err := Analyze(b2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if resTight.Nets[1].DelayNoise > resFree.Nets[1].DelayNoise+2e-12 {
		t.Fatalf("tight window increased noise: %v vs %v",
			resTight.Nets[1].DelayNoise, resFree.Nets[1].DelayNoise)
	}
}

func TestBothEdgesWidenWindowDownward(t *testing.T) {
	b := twoNetBlock(t)
	oneEdge, err := Analyze(b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b2 := twoNetBlock(t)
	both, err := Analyze(b2, Options{BothEdges: true})
	if err != nil {
		t.Fatal(err)
	}
	n0 := both.Nets[0]
	if n0.SpeedNoise > 0 {
		t.Fatalf("speed noise %v must be non-positive", n0.SpeedNoise)
	}
	if n0.SpeedNoise == 0 {
		t.Fatal("expected a measurable speed-up on a heavily coupled net")
	}
	// The early edge must move earlier than the single-edge analysis.
	if n0.OutWindow.Lo >= oneEdge.Nets[0].OutWindow.Lo {
		t.Fatalf("early edge %.1fps should precede single-edge %.1fps",
			n0.OutWindow.Lo*1e12, oneEdge.Nets[0].OutWindow.Lo*1e12)
	}
	// The late edge is unchanged by the speed-up analysis.
	if math.Abs(n0.OutWindow.Hi-oneEdge.Nets[0].OutWindow.Hi) > 2e-12 {
		t.Fatalf("late edge moved: %.1fps vs %.1fps",
			n0.OutWindow.Hi*1e12, oneEdge.Nets[0].OutWindow.Hi*1e12)
	}
}

func TestSlackReporting(t *testing.T) {
	b := twoNetBlock(t)
	b.Nets[1].Required = 900e-12
	res, err := Analyze(b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(res.Nets[0].Slack) {
		t.Fatal("unconstrained net should report NaN slack")
	}
	want := 900e-12 - res.Nets[1].OutWindow.Hi
	if math.Abs(res.Nets[1].Slack-want) > 1e-15 {
		t.Fatalf("slack %v, want %v", res.Nets[1].Slack, want)
	}
	ws, have := worstSlack(res)
	if !have || ws != res.Nets[1].Slack {
		t.Fatalf("worst slack %v/%v", ws, have)
	}
	// A requirement tighter than the noisy arrival must go negative.
	b2 := twoNetBlock(t)
	b2.Nets[1].Required = 100e-12
	res2, err := Analyze(b2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Nets[1].Slack >= 0 {
		t.Fatalf("expected violation, slack %v", res2.Nets[1].Slack)
	}
}

// worstSlack returns the smallest slack across constrained nets (and
// whether any net carries a requirement).
func worstSlack(r *Result) (float64, bool) {
	worst, have := math.Inf(1), false
	for _, n := range r.Nets {
		if math.IsNaN(n.Slack) {
			continue
		}
		have = true
		if n.Slack < worst {
			worst = n.Slack
		}
	}
	return worst, have
}
