// Package align implements the paper's Section 3: worst-case alignment
// of aggressor noise against the victim transition, with the combined
// interconnect + receiver delay as the objective.
//
// It provides the composite-pulse construction (peak-aligned aggressors,
// §3.1), the exhaustive worst-case search used as the golden reference,
// the receiver-input baseline alignment of refs [5][6], and the paper's
// 8-point pre-characterization keyed by alignment voltage (§3.2).
package align

import (
	"fmt"
	"math"

	"repro/internal/noiseerr"
	"repro/internal/waveform"
)

// Pulse describes a synthetic triangular noise pulse: signed peak height
// and half-height width. The triangular base width is twice the
// half-height width, matching the paper's width definition.
type Pulse struct {
	Height float64 // signed peak, V (negative pulls a rising victim down)
	Width  float64 // width at half height, s
}

// Waveform renders the pulse as a PWL with its peak at t = 0.
func (p Pulse) Waveform() *waveform.PWL {
	if p.Width <= 0 {
		panic(fmt.Sprintf("align: pulse width must be positive, got %g", p.Width))
	}
	w := p.Width
	return waveform.New(
		[]float64{-w, 0, w},
		[]float64{0, p.Height, 0},
	)
}

// Params extracts the signed height and half-height width of a measured
// noise waveform.
func Params(noise *waveform.PWL) (Pulse, error) {
	_, h := noise.Peak()
	if h == 0 {
		return Pulse{}, noiseerr.Numericalf("align: waveform has no excursion")
	}
	w, err := noise.WidthAt(0.5)
	if err != nil {
		return Pulse{}, noiseerr.Numericalf("align: cannot measure pulse width: %w", err)
	}
	return Pulse{Height: h, Width: w}, nil
}

// Composite superposes aggressor noise pulses with their peaks aligned at
// t = 0 (the standard alignment of §3.1: maximum height, minimum width).
// Each input waveform is summed shifted so its own peak lands at zero.
func Composite(pulses ...*waveform.PWL) (*waveform.PWL, error) {
	if len(pulses) == 0 {
		return nil, noiseerr.Invalidf("align: no pulses")
	}
	dts := make([]float64, len(pulses))
	for i, p := range pulses {
		tp, v := p.Peak()
		if v == 0 {
			return nil, noiseerr.Numericalf("align: pulse %d has no excursion", i)
		}
		dts[i] = -tp
	}
	return waveform.SumShifted(pulses, dts), nil
}

// CompositeAt superposes pulses with the k-th peak placed at offsets[k]
// (relative positions used by the §3.1 staggered-alignment study).
func CompositeAt(pulses []*waveform.PWL, offsets []float64) (*waveform.PWL, error) {
	if len(pulses) != len(offsets) {
		return nil, noiseerr.Invalidf("align: %d pulses vs %d offsets", len(pulses), len(offsets))
	}
	dts := make([]float64, len(pulses))
	for i, p := range pulses {
		tp, v := p.Peak()
		if v == 0 {
			return nil, noiseerr.Numericalf("align: pulse %d has no excursion", i)
		}
		dts[i] = offsets[i] - tp
	}
	return waveform.SumShifted(pulses, dts), nil
}

// EdgeRate returns the equivalent full-swing transition time of a
// noiseless waveform: the 10-90% interval scaled to 0-100%.
func EdgeRate(noiseless *waveform.PWL, vdd float64, rising bool) (float64, error) {
	var slew float64
	var err error
	if rising {
		slew, err = noiseless.Slew(0, vdd, 0.1, 0.9)
	} else {
		slew, err = noiseless.Slew(vdd, 0, 0.1, 0.9)
	}
	if err != nil {
		return 0, noiseerr.Numericalf("align: cannot measure edge rate: %w", err)
	}
	return slew / 0.8, nil
}

// clamp limits v to [lo, hi].
func clamp(v, lo, hi float64) float64 {
	return math.Max(lo, math.Min(hi, v))
}
