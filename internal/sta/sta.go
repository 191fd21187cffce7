// Package sta is a small block-level static timing analysis built to
// exercise the paper's timing-window interaction (Section 1, refs
// [8][9]): the switching windows produced by timing analysis constrain
// the aggressor alignment, the resulting delay noise widens the windows,
// and the two are iterated to a fixpoint. The paper cites [8][9] for the
// proof that this converges and notes very few iterations are needed.
package sta

import (
	"context"
	"fmt"
	"math"

	"repro/internal/delaynoise"
	"repro/internal/noiseerr"
)

// Window is a switching window [Lo, Hi] at a net's driver output.
type Window struct {
	Lo, Hi float64
}

// width returns the window width.
func (w Window) width() float64 { return w.Hi - w.Lo }

// intersect returns the intersection and whether it is non-empty.
func (w Window) intersect(o Window) (Window, bool) {
	lo := math.Max(w.Lo, o.Lo)
	hi := math.Min(w.Hi, o.Hi)
	return Window{Lo: lo, Hi: hi}, lo <= hi
}

// NetDef is one net of the block.
type NetDef struct {
	Name string
	Case *delaynoise.Case
	// FanIn is the index of the upstream net whose switching window
	// gates this net's victim input; -1 marks a primary input with the
	// window given in InputWindow.
	FanIn       int
	InputWindow Window
	// AggWindows gives, per aggressor of Case, the index of the net
	// whose switching window constrains that aggressor's transition
	// (-1 leaves the aggressor unconstrained).
	AggWindows []int
	// Required, when positive, is the latest allowed arrival at this
	// net's receiver output; the analysis reports the slack against the
	// noisy late window edge.
	Required float64
}

// Block is a set of coupled nets with fan-in relationships.
type Block struct {
	Nets []NetDef
}

// Validate checks the block's structural consistency.
func (b *Block) Validate() error {
	n := len(b.Nets)
	for i, nd := range b.Nets {
		if nd.Case == nil {
			return noiseerr.Invalidf("sta: net %d (%s) has no case", i, nd.Name)
		}
		if err := nd.Case.Validate(); err != nil {
			return fmt.Errorf("sta: net %s: %w", nd.Name, err)
		}
		if nd.FanIn >= n || nd.FanIn < -1 {
			return noiseerr.Invalidf("sta: net %s: fan-in %d out of range", nd.Name, nd.FanIn)
		}
		if nd.FanIn == -1 && nd.InputWindow.Hi < nd.InputWindow.Lo {
			return noiseerr.Invalidf("sta: net %s: invalid input window", nd.Name)
		}
		if len(nd.AggWindows) != len(nd.Case.Aggressors) {
			return noiseerr.Invalidf("sta: net %s: %d window refs for %d aggressors",
				nd.Name, len(nd.AggWindows), len(nd.Case.Aggressors))
		}
		for _, a := range nd.AggWindows {
			if a >= n || a < -1 {
				return noiseerr.Invalidf("sta: net %s: aggressor window ref %d out of range", nd.Name, a)
			}
		}
	}
	return nil
}

// NetResult is the per-net outcome of the analysis.
type NetResult struct {
	Name       string
	Window     Window  // switching window at the victim driver output side (input of stage)
	OutWindow  Window  // window at the receiver output (drives fan-out nets)
	BaseDelay  float64 // combined delay without noise
	DelayNoise float64
	// SpeedNoise is the (non-positive) delay decrease from same-direction
	// aggressors, applied to the early window edge when BothEdges is set.
	SpeedNoise float64
	// Constrained reports whether the aggressor alignment was limited by
	// the timing windows (vs the unconstrained worst case).
	Constrained bool
	// Slack is Required - OutWindow.Hi for nets with a requirement
	// (negative = violated); NaN when unconstrained.
	Slack float64
}

// Result is the block-level outcome.
type Result struct {
	Nets       []NetResult
	Iterations int
	Converged  bool
}

// Options tune the fixpoint loop.
type Options struct {
	MaxIterations int     // default 6
	Tol           float64 // window-edge convergence tolerance, s (default 1 ps)
	// Analysis options forwarded to delaynoise (alignment defaults to
	// exhaustive; hold model to transient).
	Analysis delaynoise.Options
	// BothEdges additionally runs the speed-up analysis per net
	// (aggressors switching with the victim) and advances the early
	// window edge by the resulting delay decrease, so the windows bound
	// both extremes of the coupled delay.
	BothEdges bool
}

func (o *Options) defaults() {
	if o.MaxIterations == 0 {
		o.MaxIterations = 6
	}
	if o.Tol == 0 {
		o.Tol = 1e-12
	}
	if o.Analysis.Align == delaynoise.AlignExhaustive && o.Analysis.Hold == delaynoise.HoldThevenin {
		o.Analysis.Hold = delaynoise.HoldTransient
	}
}

// Analyze runs the window/noise fixpoint over the block.
func Analyze(b *Block, opt Options) (*Result, error) {
	return AnalyzeContext(context.Background(), b, opt)
}

// AnalyzeContext is Analyze with cancellation support: the context is
// threaded into every per-net delay-noise analysis and checked between
// nets, so a canceled fixpoint aborts within one net's work.
func AnalyzeContext(ctx context.Context, b *Block, opt Options) (*Result, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	opt.defaults()
	n := len(b.Nets)
	out := make([]NetResult, n)
	for i, nd := range b.Nets {
		out[i] = NetResult{Name: nd.Name}
	}
	// Iteration 0: delays without noise (windows from base delays only).
	noise := make([]float64, n)
	res := &Result{}
	for iter := 1; iter <= opt.MaxIterations; iter++ {
		res.Iterations = iter
		// One forward pass in index order (the block is assumed
		// topologically ordered: fan-in index < net index). Each net's
		// input window comes from its fan-in's OutWindow computed earlier
		// in the same pass, so windows are internally consistent;
		// aggressor windows may reference later nets and settle across
		// iterations.
		maxShift := 0.0
		for i := range b.Nets {
			if err := ctx.Err(); err != nil {
				return nil, noiseerr.Canceled(fmt.Errorf("sta: canceled at iteration %d, net %d: %w", iter, i, err))
			}
			nd := &b.Nets[i]
			if nd.FanIn == -1 {
				out[i].Window = nd.InputWindow
			} else {
				out[i].Window = out[nd.FanIn].OutWindow
			}
			aOpt := opt.Analysis
			win, constrained, feasible := aggressorWindow(b, out, i)
			if constrained && feasible {
				aOpt.Window = &delaynoise.Window{Lo: win.Lo, Hi: win.Hi}
			}
			if constrained && !feasible {
				// Empty intersection: the aggressors cannot line up at
				// all; a conservative tool would fall back to the widest
				// single-aggressor window. We use the union instead.
				aOpt.Window = &delaynoise.Window{Lo: win.Lo, Hi: win.Hi}
			}
			r, err := delaynoise.AnalyzeContext(ctx, nd.Case, aOpt)
			if err != nil {
				return nil, fmt.Errorf("sta: net %s: %w", nd.Name, err)
			}
			out[i].BaseDelay = r.QuietCombinedDelay
			out[i].Constrained = constrained
			dn := math.Max(r.DelayNoise, 0)
			if d := math.Abs(dn - noise[i]); d > maxShift {
				maxShift = d
			}
			noise[i] = dn
			out[i].DelayNoise = dn
			speed := 0.0
			if opt.BothEdges {
				sOpt := aOpt
				sOpt.Minimize = true
				sr, err := delaynoise.AnalyzeContext(ctx, speedupCase(nd.Case), sOpt)
				if err != nil {
					return nil, fmt.Errorf("sta: net %s speed-up: %w", nd.Name, err)
				}
				speed = math.Min(sr.DelayNoise, 0)
			}
			out[i].SpeedNoise = speed
			out[i].OutWindow = Window{
				Lo: out[i].Window.Lo + r.QuietCombinedDelay + speed,
				Hi: out[i].Window.Hi + r.QuietCombinedDelay + dn,
			}
			if nd.Required > 0 {
				out[i].Slack = nd.Required - out[i].OutWindow.Hi
			} else {
				out[i].Slack = math.NaN()
			}
		}
		if maxShift <= opt.Tol {
			res.Converged = true
			break
		}
	}
	res.Nets = out
	return res, nil
}

// aggressorWindow computes the pulse-peak constraint window of net i from
// the switching windows of its aggressors' source nets. It returns the
// window (intersection, or union when the intersection is empty), whether
// any constraint applies, and whether the intersection was non-empty.
func aggressorWindow(b *Block, out []NetResult, i int) (Window, bool, bool) {
	nd := &b.Nets[i]
	have := false
	inter := Window{Lo: math.Inf(-1), Hi: math.Inf(1)}
	union := Window{Lo: math.Inf(1), Hi: math.Inf(-1)}
	feasible := true
	for k, src := range nd.AggWindows {
		if src < 0 {
			continue
		}
		w := out[src].OutWindow
		// Translate the source switching window into pulse-peak times:
		// the noise peak lags the aggressor transition by roughly the
		// aggressor input-to-peak latency; nominal timing gives that lag
		// implicitly, so the window is used directly with a pulse-width
		// pad.
		pad := 0.5 * nd.Case.Aggressors[k].InputSlew
		w = Window{Lo: w.Lo - pad, Hi: w.Hi + pad}
		have = true
		if iw, ok := inter.intersect(w); ok {
			inter = iw
		} else {
			feasible = false
		}
		union.Lo = math.Min(union.Lo, w.Lo)
		union.Hi = math.Max(union.Hi, w.Hi)
	}
	if !have {
		return Window{}, false, true
	}
	if feasible {
		return inter, true, true
	}
	return union, true, false
}

// speedupCase flips every aggressor to switch in the victim's direction,
// the condition under which coupling accelerates the transition.
func speedupCase(c *delaynoise.Case) *delaynoise.Case {
	out := *c
	out.Aggressors = append([]delaynoise.DriverSpec(nil), c.Aggressors...)
	for i := range out.Aggressors {
		out.Aggressors[i].OutputRising = c.Victim.OutputRising
	}
	return &out
}
