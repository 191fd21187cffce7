package repro

import (
	"bytes"
	"io"
	"math"
	"strings"
	"testing"
)

func TestFig02ShapeHolds(t *testing.T) {
	r, err := Fig02(NewContext())
	if err != nil {
		t.Fatal(err)
	}
	// Headline shape of Figure 2: the Thevenin holding resistance
	// underestimates the noise on a switching victim; the transient
	// holding resistance tracks it closely and exceeds Rth.
	gp, tp, rp := math.Abs(r.GoldenPeak), math.Abs(r.TheveninPeak), math.Abs(r.RtrPeak)
	if tp >= 0.92*gp {
		t.Errorf("Thevenin peak %.3f should underestimate golden %.3f", tp, gp)
	}
	if math.Abs(rp-gp) >= math.Abs(tp-gp) {
		t.Errorf("Rtr peak %.3f should be closer to golden %.3f than Thevenin %.3f", rp, gp, tp)
	}
	if r.Rtr <= r.Rth {
		t.Errorf("Rtr %v should exceed Rth %v for mid-transition noise", r.Rtr, r.Rth)
	}
	var buf bytes.Buffer
	r.Print(&buf)
	r.PrintFig05(&buf)
	if !strings.Contains(buf.String(), "Figure 2/5") || !strings.Contains(buf.String(), "Figure 5") {
		t.Fatal("print output malformed")
	}
}

func TestFig03ObjectiveMatters(t *testing.T) {
	r, err := Fig03(NewContext())
	if err != nil {
		t.Fatal(err)
	}
	// The receiver-output objective must find strictly more combined
	// delay noise than the receiver-input baseline on this circuit.
	if r.OutputObjNoise <= r.InputObjNoise+5e-12 {
		t.Errorf("output objective %.2fps should clearly beat input objective %.2fps",
			r.OutputObjNoise*1e12, r.InputObjNoise*1e12)
	}
	// The late-aligned pulse leaves only a bounded receiver-output glitch
	// (the paper's "not a functional failure" observation).
	if r.RecvOutNoisePkV > 0.35*NewContext().Tech.Vdd {
		t.Errorf("input-objective glitch %.0fmV too large to be a delay-noise case", r.RecvOutNoisePkV*1e3)
	}
	var buf bytes.Buffer
	r.Print(&buf)
	if !strings.Contains(buf.String(), "Figure 3") {
		t.Fatal("print output malformed")
	}
}

func TestFig06AlignedPeaksSafe(t *testing.T) {
	r, err := Fig06(NewContext())
	if err != nil {
		t.Fatal(err)
	}
	// §3.1: using aligned peaks costs at most a few ps (paper example:
	// 2.7 ps).
	if r.SmallAlignedErr > 5e-12 {
		t.Errorf("small-load aligned-peak error %.2fps exceeds 5ps", r.SmallAlignedErr*1e12)
	}
	if r.LargeAlignedErr > 5e-12 {
		t.Errorf("large-load aligned-peak error %.2fps exceeds 5ps", r.LargeAlignedErr*1e12)
	}
	if len(r.SmallLoad.X) < 10 || len(r.LargeLoad.X) < 10 {
		t.Fatal("sweep series too short")
	}
}

func TestFig07Families(t *testing.T) {
	r, err := Fig07(NewContext())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Loads) != 4 || len(r.Slews) != 3 {
		t.Fatalf("families: %d loads, %d slews", len(r.Loads), len(r.Slews))
	}
	// Fig 7(a): the smallest load's delay-vs-alignment curve has the
	// largest spread (sharpest sensitivity).
	spread := func(s Series) float64 {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, y := range s.Y {
			lo, hi = math.Min(lo, y), math.Max(hi, y)
		}
		return hi - lo
	}
	if spread(r.Loads[0]) <= spread(r.Loads[len(r.Loads)-1]) {
		t.Errorf("small load spread %.2fps should exceed large load %.2fps",
			spread(r.Loads[0])*1e12, spread(r.Loads[len(r.Loads)-1])*1e12)
	}
}

func TestFig08LinearityPremise(t *testing.T) {
	r, err := Fig08(NewContext())
	if err != nil {
		t.Fatal(err)
	}
	vdd := NewContext().Tech.Vdd
	for _, va := range append(append([]float64{}, r.WidthWorstVa...), r.HeightWorstVa...) {
		if va <= 0 || va >= vdd {
			t.Errorf("worst-case Va %.3f outside the rails", va)
		}
	}
	// §3.2 Figure 8: the mid-height worst-case Va must lie between (or
	// near) the corner values — the bracketing that justifies 2-point
	// interpolation.
	lo := math.Min(r.HeightWorstVa[0], r.HeightWorstVa[2])
	hi := math.Max(r.HeightWorstVa[0], r.HeightWorstVa[2])
	pad := 0.2*(hi-lo) + 0.15
	if r.HeightWorstVa[1] < lo-pad || r.HeightWorstVa[1] > hi+pad {
		t.Errorf("mid-height Va %.3f not bracketed by corners [%.3f, %.3f]",
			r.HeightWorstVa[1], lo, hi)
	}
}

func TestFig09WithinPaperBounds(t *testing.T) {
	if testing.Short() {
		t.Skip("pre-characterization grid is slow")
	}
	r, err := Fig09(NewContext())
	if err != nil {
		t.Fatal(err)
	}
	// Paper: < 7% over slew x load, < 8% over width x height. Our
	// substrate's min-load characterization extrapolates slightly worse
	// to heavy loads, hence the wider slew/load bound (see
	// EXPERIMENTS.md).
	if r.WorstSlewLoadErr > 0.15 {
		t.Errorf("slew/load worst error %.1f%% exceeds 15%%", r.WorstSlewLoadErr*100)
	}
	if r.WorstWidthHeightErr > 0.10 {
		t.Errorf("width/height worst error %.1f%% exceeds 10%%", r.WorstWidthHeightErr*100)
	}
}

func TestFig13SmallPopulation(t *testing.T) {
	if testing.Short() {
		t.Skip("population experiment is slow")
	}
	r, err := Fig13(NewContext().Quick(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) < 3 {
		t.Fatalf("only %d valid nets", len(r.Points))
	}
	// Shape: the Thevenin flow errs more than the Rtr flow and
	// underestimates on (nearly) every net.
	if r.Thevenin.MeanRelErr <= r.Rtr.MeanRelErr {
		t.Errorf("Thevenin mean error %.1f%% should exceed Rtr %.1f%%",
			r.Thevenin.MeanRelErr*100, r.Rtr.MeanRelErr*100)
	}
	if r.Thevenin.UnderestimateN < len(r.Points)-1 {
		t.Errorf("Thevenin should underestimate: %d/%d", r.Thevenin.UnderestimateN, len(r.Points))
	}
}

func TestFig14SmallPopulation(t *testing.T) {
	if testing.Short() {
		t.Skip("population experiment is slow")
	}
	r, err := Fig14(NewContext().Quick(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) < 2 {
		t.Fatalf("only %d valid nets", len(r.Points))
	}
	// Predictions never exceed the exhaustive reference and recover a
	// substantial share of it (the ordering vs the [5] baseline is a
	// population-level property; see the full-scale run in
	// EXPERIMENTS.md).
	for _, p := range r.Points {
		if p.Ours > p.Exhaustive+1e-13 || p.Baseline > p.Exhaustive+1e-13 {
			t.Errorf("net %d: prediction exceeds exhaustive", p.Net)
		}
		if p.Ours < 0.5*p.Exhaustive {
			t.Errorf("net %d: prechar alignment recovers only %.0f%% of the worst case",
				p.Net, 100*p.Ours/p.Exhaustive)
		}
	}
}

func TestConvergenceFewIterations(t *testing.T) {
	r, err := Convergence(NewContext().Quick(4))
	if err != nil {
		t.Fatal(err)
	}
	for it, n := range r.Iterations {
		if it > 4 && n > 0 {
			t.Errorf("%d nets needed %d iterations", n, it)
		}
	}
}

func TestWindowIterationConverges(t *testing.T) {
	r, err := WindowIteration(NewContext())
	if err != nil {
		t.Fatal(err)
	}
	if !r.Converged || r.Iterations > 4 {
		t.Fatalf("converged=%v after %d iterations", r.Converged, r.Iterations)
	}
	var buf bytes.Buffer
	r.Print(&buf)
	if !strings.Contains(buf.String(), "fixpoint") {
		t.Fatal("print output malformed")
	}
}

// TestFig13Fig14ParallelMatchesSequential runs the Figure 13 and 14
// populations on the worker pool and through a plain loop over the same
// per-net functions, and requires byte-identical printed results.
func TestFig13Fig14ParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("population experiment is slow")
	}
	sequential := func(n int, fn func(i int)) {
		for i := 0; i < n; i++ {
			fn(i)
		}
	}
	ctx := NewContext().Quick(4)
	render := func(r interface{ Print(io.Writer) }, err error) string {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		r.Print(&b)
		return b.String()
	}
	if par, seq := render(Fig13(ctx)), render(fig13(ctx, sequential)); par != seq {
		t.Errorf("fig13 on the worker pool:\n%s\nsequential:\n%s", par, seq)
	}
	if par, seq := render(Fig14(ctx)), render(fig14(ctx, sequential)); par != seq {
		t.Errorf("fig14 on the worker pool:\n%s\nsequential:\n%s", par, seq)
	}
}
