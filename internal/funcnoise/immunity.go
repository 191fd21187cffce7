package funcnoise

import (
	"fmt"
	"math"

	"repro/internal/align"
	"repro/internal/device"
	"repro/internal/gatesim"
)

// ImmunityPoint is one point of a receiver's noise-rejection curve: the
// smallest input pulse height (at the given width) whose output glitch
// reaches the failure threshold.
type ImmunityPoint struct {
	Width  float64 // pulse half-height width, s
	Height float64 // critical input pulse height, V
}

// ImmunityCurve is a receiver's noise-rejection boundary: pulses below
// the curve are filtered, pulses above propagate. Narrow pulses need far
// more height than wide ones — the low-pass behaviour that the paper's
// alignment discussion (§3.1) leans on.
type ImmunityCurve struct {
	CellName   string
	Load       float64
	VictimHigh bool    // attacked state (high victim, downward pulses)
	FailLevel  float64 // output glitch magnitude defining failure, V
	Points     []ImmunityPoint
}

// ImmunityOptions tune the characterization.
type ImmunityOptions struct {
	// Widths lists the pulse widths to characterize (default: 8 points,
	// 20 ps to 1 ns, geometric).
	Widths []float64
	// FailFraction defines failure as an output glitch of this fraction
	// of Vdd (default 0.5).
	FailFraction float64
	// Load is the receiver output load (default 5 fF).
	Load float64
}

func (o *ImmunityOptions) defaults(vdd float64) {
	if len(o.Widths) == 0 {
		w := 20e-12
		for len(o.Widths) < 8 {
			o.Widths = append(o.Widths, w)
			w *= 1.75
		}
	}
	if o.FailFraction == 0 {
		o.FailFraction = 0.5
	}
	if o.Load == 0 {
		o.Load = 5e-15
	}
	_ = vdd
}

// Immunity characterizes a receiver's noise-rejection curve by bisecting
// the critical pulse height at each width.
func Immunity(recv *device.Cell, victimHigh bool, opt ImmunityOptions) (*ImmunityCurve, error) {
	vdd := recv.Tech.Vdd
	opt.defaults(vdd)
	curve := &ImmunityCurve{
		CellName:   recv.Name,
		Load:       opt.Load,
		VictimHigh: victimHigh,
		FailLevel:  opt.FailFraction * vdd,
	}
	rail := 0.0
	if victimHigh {
		rail = vdd
	}
	glitchOf := func(width, height float64) (float64, error) {
		h := height
		if victimHigh {
			h = -height
		}
		pulse := align.Pulse{Height: h, Width: width}.Waveform()
		in := pulse.Shift(0.3e-9).Offset(rail)
		out, err := gatesim.Receive(recv, in, opt.Load, gatesim.Options{})
		if err != nil {
			return 0, err
		}
		quiescent := out.At(out.Start())
		g := 0.0
		for i := range out.T {
			if d := math.Abs(out.V[i] - quiescent); d > g {
				g = d
			}
		}
		return g, nil
	}
	for _, width := range opt.Widths {
		// The full-rail pulse must fail, or the point is unbounded.
		gMax, err := glitchOf(width, vdd)
		if err != nil {
			return nil, fmt.Errorf("funcnoise: immunity at width %g: %w", width, err)
		}
		if gMax < curve.FailLevel {
			// Even a rail-to-rail pulse of this width is filtered; record
			// the rail as the (unreachable) bound.
			curve.Points = append(curve.Points, ImmunityPoint{Width: width, Height: vdd})
			continue
		}
		lo, hi := 0.0, vdd
		for i := 0; i < 24; i++ {
			mid := 0.5 * (lo + hi)
			g, err := glitchOf(width, mid)
			if err != nil {
				return nil, err
			}
			if g < curve.FailLevel {
				lo = mid
			} else {
				hi = mid
			}
		}
		curve.Points = append(curve.Points, ImmunityPoint{Width: width, Height: 0.5 * (lo + hi)})
	}
	return curve, nil
}
