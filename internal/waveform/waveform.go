// Package waveform provides piecewise-linear (PWL) voltage and current
// waveforms and the measurements the noise-analysis flow needs: threshold
// crossings, peaks, pulse widths, superposition, and integrals.
//
// A waveform is a sequence of (time, value) breakpoints with strictly
// increasing times; the value is linearly interpolated between breakpoints
// and held constant outside the covered interval. All times are in
// seconds and all values in volts or amperes.
//
// A PWL's slices are never written after New: every operation builds
// new slices for what it changes and shares the rest (Shift shares V,
// Scale and Offset share T, and the simulators' waveforms of one run
// share its times). Code that needs other breakpoints builds new
// slices.
package waveform

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
)

// PWL is a piecewise-linear waveform.
type PWL struct {
	T []float64 // strictly increasing breakpoint times
	V []float64 // values at the breakpoints
}

// New builds a PWL from breakpoint slices. It panics if the slices differ
// in length or the times are not strictly increasing — these are
// programming errors, not data errors.
func New(t, v []float64) *PWL {
	if len(t) != len(v) {
		panic(fmt.Sprintf("waveform: %d times vs %d values", len(t), len(v)))
	}
	for i := 1; i < len(t); i++ {
		if t[i] <= t[i-1] {
			panic(fmt.Sprintf("waveform: non-increasing time at index %d: %g after %g", i, t[i], t[i-1]))
		}
	}
	return &PWL{T: t, V: v}
}

// Constant returns a waveform holding value v everywhere.
func Constant(v float64) *PWL {
	return &PWL{T: []float64{0}, V: []float64{v}}
}

// Ramp returns a saturated ramp from v0 to v1 starting at t0 with
// transition duration dt (dt > 0).
func Ramp(t0, dt, v0, v1 float64) *PWL {
	if dt <= 0 {
		panic("waveform: ramp requires dt > 0")
	}
	return New([]float64{t0, t0 + dt}, []float64{v0, v1})
}

// Len returns the number of breakpoints.
func (w *PWL) Len() int { return len(w.T) }

// At evaluates the waveform at time t, holding end values outside the
// breakpoint range.
//
//lint:hot
func (w *PWL) At(t float64) float64 {
	var seg int
	return w.AtHint(t, &seg)
}

// hintWalk bounds the forward walk of AtHint before it falls back to
// the binary search.
const hintWalk = 8

// AtHint is At for query sequences whose times mostly advance. *hint
// carries the breakpoint segment of the previous lookup (start it at
// 0): when t lies at or after that segment AtHint walks forward from
// it, and otherwise, or when the walk runs past hintWalk segments, it
// binary searches like At. Either way it finds the same segment as At
// and interpolates with the same arithmetic, so the value is
// bit-identical to At(t); it stores the segment back into *hint.
//
//lint:hot
func (w *PWL) AtHint(t float64, hint *int) float64 {
	n := len(w.T)
	if n == 0 {
		return 0
	}
	if t <= w.T[0] {
		return w.V[0]
	}
	if t >= w.T[n-1] {
		return w.V[n-1]
	}
	// i is the first breakpoint at or after t: w.T[i-1] < t <= w.T[i]
	// (t < last, t > first).
	i := *hint
	if i < 1 || i >= n || !(w.T[i-1] < t) {
		i = sort.SearchFloat64s(w.T, t)
	} else {
		for k := 0; w.T[i] < t; k++ {
			if k == hintWalk {
				i = sort.SearchFloat64s(w.T, t)
				break
			}
			i++
		}
	}
	*hint = i
	// An exact breakpoint hit (t is not NaN here, so equal bits or two
	// zeros are exactly t == w.T[i]).
	if math.Float64bits(w.T[i]) == math.Float64bits(t) || (w.T[i] == 0 && t == 0) {
		return w.V[i]
	}
	t0, t1 := w.T[i-1], w.T[i]
	v0, v1 := w.V[i-1], w.V[i]
	return v0 + (v1-v0)*(t-t0)/(t1-t0)
}

// Start returns the first breakpoint time (0 for an empty waveform).
func (w *PWL) Start() float64 {
	if len(w.T) == 0 {
		return 0
	}
	return w.T[0]
}

// End returns the last breakpoint time (0 for an empty waveform).
func (w *PWL) End() float64 {
	if len(w.T) == 0 {
		return 0
	}
	return w.T[len(w.T)-1]
}

// Shift returns the waveform translated in time by dt. It shares w's
// values.
func (w *PWL) Shift(dt float64) *PWL {
	t := make([]float64, len(w.T))
	for i, ti := range w.T {
		t[i] = ti + dt
	}
	return &PWL{T: t, V: slices.Clip(w.V)}
}

// Scale returns the waveform with values multiplied by s. It shares
// w's times.
func (w *PWL) Scale(s float64) *PWL {
	v := make([]float64, len(w.V))
	for i, vi := range w.V {
		v[i] = vi * s
	}
	return &PWL{T: slices.Clip(w.T), V: v}
}

// Offset returns the waveform with values shifted by dv. It shares w's
// times.
func (w *PWL) Offset(dv float64) *PWL {
	v := make([]float64, len(w.V))
	for i, vi := range w.V {
		v[i] = vi + dv
	}
	return &PWL{T: slices.Clip(w.T), V: v}
}

// mergeTimes returns the sorted union of the breakpoint times of ws,
// each ws[j]'s times shifted by dts[j] (computed as t + dt, as Shift
// computes them) when dts is non-nil. Times closer together than
// timeResolution are collapsed: combining waveforms whose grids were
// shifted by different offsets otherwise produces degenerate
// (sub-attosecond) segments whose slopes overflow downstream
// derivative computations.
const timeResolution = 1e-18 // 1 as, far below any circuit time scale

func mergeTimes(ws []*PWL, dts []float64) []float64 {
	total := 0
	for _, w := range ws {
		total += len(w.T)
	}
	at := func(j, i int) float64 {
		if dts == nil {
			return ws[j].T[i]
		}
		return ws[j].T[i] + dts[j]
	}
	// A k-way merge of the already-sorted breakpoint lists; next[j] is
	// the first unmerged breakpoint of ws[j].
	next := make([]int, len(ws))
	out := make([]float64, 0, total)
	for range total {
		src, t := -1, 0.0
		for j, w := range ws {
			if next[j] < len(w.T) {
				if tj := at(j, next[j]); src < 0 || tj < t {
					src, t = j, tj
				}
			}
		}
		next[src]++
		if len(out) == 0 || t-out[len(out)-1] > timeResolution {
			out = append(out, t)
		}
	}
	return out
}

// Sum superposes waveforms: result(t) = Σ w_i(t), sampled on the union of
// all breakpoints (exact for PWL inputs).
func Sum(ws ...*PWL) *PWL {
	ws2 := ws[:0:0]
	for _, w := range ws {
		if w != nil && w.Len() > 0 {
			ws2 = append(ws2, w)
		}
	}
	if len(ws2) == 0 {
		return Constant(0)
	}
	t := mergeTimes(ws2, nil)
	v := make([]float64, len(t))
	// The sample times ascend, so every input is read through its own
	// segment hint.
	hints := make([]int, len(ws2))
	for i, ti := range t {
		s := 0.0
		for j, w := range ws2 {
			s += w.AtHint(ti, &hints[j])
		}
		v[i] = s
	}
	return New(t, v)
}

// SumShifted superposes waveforms translated in time, ws[i] by dts[i]:
// it returns Sum of every ws[i].Shift(dts[i]), bit for bit, without
// building the shifted copies. Each shifted breakpoint is computed as
// t + dt, as Shift computes it, wherever the merge or an evaluation
// reads it.
func SumShifted(ws []*PWL, dts []float64) *PWL {
	if len(ws) != len(dts) {
		panic(fmt.Sprintf("waveform: %d waveforms vs %d offsets", len(ws), len(dts)))
	}
	ws2, dts2 := ws[:0:0], dts[:0:0]
	for i, w := range ws {
		if w != nil && w.Len() > 0 {
			ws2, dts2 = append(ws2, w), append(dts2, dts[i])
		}
	}
	if len(ws2) == 0 {
		return Constant(0)
	}
	t := mergeTimes(ws2, dts2)
	v := make([]float64, len(t))
	// The sample times ascend, so every input is read through its own
	// forward-walking segment hint.
	segs := make([]int, len(ws2))
	for i, ti := range t {
		s := 0.0
		for j, w := range ws2 {
			s += w.atShifted(ti, dts2[j], &segs[j])
		}
		v[i] = s
	}
	return New(t, v)
}

// atShifted is AtHint on w.Shift(dt) for ascending query times: it
// walks forward from *seg to the segment AtHint finds and interpolates
// with its arithmetic on the shifted breakpoints, so the value is
// bit-identical.
//
//lint:hot
func (w *PWL) atShifted(t, dt float64, seg *int) float64 {
	n := len(w.T)
	if t <= w.T[0]+dt {
		return w.V[0]
	}
	if t >= w.T[n-1]+dt {
		return w.V[n-1]
	}
	i := max(*seg, 1)
	for w.T[i]+dt < t {
		i++
	}
	*seg = i
	t1 := w.T[i] + dt
	if math.Float64bits(t1) == math.Float64bits(t) || (t1 == 0 && t == 0) {
		return w.V[i]
	}
	t0 := w.T[i-1] + dt
	v0, v1 := w.V[i-1], w.V[i]
	return v0 + (v1-v0)*(t-t0)/(t1-t0)
}

// Sub returns a(t) - b(t) on the union of breakpoints.
func Sub(a, b *PWL) *PWL { return Sum(a, b.Scale(-1)) }

// Integral returns ∫ w dt over the waveform's full breakpoint span
// (trapezoidal, exact for PWL).
//
//lint:hot
func (w *PWL) Integral() float64 {
	s := 0.0
	for i := 1; i < len(w.T); i++ {
		s += 0.5 * (w.V[i] + w.V[i-1]) * (w.T[i] - w.T[i-1])
	}
	return s
}

// IntegralRange returns ∫ w dt over [t0, t1], with end-value holding
// outside the breakpoint span.
func (w *PWL) IntegralRange(t0, t1 float64) float64 {
	if t1 < t0 {
		return -w.IntegralRange(t1, t0)
	}
	if w.Len() == 0 {
		return 0
	}
	// Collect sample points: t0, t1, and interior breakpoints.
	ts := []float64{t0}
	for _, t := range w.T {
		if t > t0 && t < t1 {
			ts = append(ts, t)
		}
	}
	ts = append(ts, t1)
	s := 0.0
	for i := 1; i < len(ts); i++ {
		s += 0.5 * (w.At(ts[i]) + w.At(ts[i-1])) * (ts[i] - ts[i-1])
	}
	return s
}

// ErrNoCrossing is returned when a waveform never crosses the requested
// threshold in the requested direction.
var ErrNoCrossing = errors.New("waveform: no threshold crossing")

// CrossRising returns the first time w crosses threshold upward.
func (w *PWL) CrossRising(threshold float64) (float64, error) {
	return w.cross(threshold, +1, false)
}

// CrossFalling returns the first time w crosses threshold downward.
func (w *PWL) CrossFalling(threshold float64) (float64, error) {
	return w.cross(threshold, -1, false)
}

// LastCrossRising returns the last time w crosses threshold upward.
func (w *PWL) LastCrossRising(threshold float64) (float64, error) {
	return w.cross(threshold, +1, true)
}

// LastCrossFalling returns the last time w crosses threshold downward.
func (w *PWL) LastCrossFalling(threshold float64) (float64, error) {
	return w.cross(threshold, -1, true)
}

func (w *PWL) cross(th float64, dir int, last bool) (float64, error) {
	found := math.NaN()
	for i := 1; i < len(w.T); i++ {
		v0, v1 := w.V[i-1], w.V[i]
		var hit bool
		if dir > 0 {
			hit = v0 < th && v1 >= th
		} else {
			hit = v0 > th && v1 <= th
		}
		if !hit {
			continue
		}
		t := w.T[i-1] + (th-v0)/(v1-v0)*(w.T[i]-w.T[i-1])
		if !last {
			return t, nil
		}
		found = t
	}
	if math.IsNaN(found) {
		return 0, ErrNoCrossing
	}
	return found, nil
}

// Peak returns the time and value of the maximum-magnitude excursion from
// zero. For an all-zero waveform it returns the first breakpoint.
func (w *PWL) Peak() (t, v float64) {
	if w.Len() == 0 {
		return 0, 0
	}
	t, v = w.T[0], w.V[0]
	for i, vi := range w.V {
		if math.Abs(vi) > math.Abs(v) {
			t, v = w.T[i], vi
		}
	}
	return t, v
}

// Max returns the time and value of the maximum value.
func (w *PWL) Max() (t, v float64) {
	if w.Len() == 0 {
		return 0, 0
	}
	t, v = w.T[0], w.V[0]
	for i, vi := range w.V {
		if vi > v {
			t, v = w.T[i], vi
		}
	}
	return t, v
}

// Min returns the time and value of the minimum value.
func (w *PWL) Min() (t, v float64) {
	if w.Len() == 0 {
		return 0, 0
	}
	t, v = w.T[0], w.V[0]
	for i, vi := range w.V {
		if vi < v {
			t, v = w.T[i], vi
		}
	}
	return t, v
}

// WidthAt returns the width of the pulse around its peak measured at
// |value| = frac * |peak| (e.g. frac = 0.5 for the half-height width).
// It returns an error for waveforms with no excursion.
func (w *PWL) WidthAt(frac float64) (float64, error) {
	tp, vp := w.Peak()
	if vp == 0 {
		return 0, ErrNoCrossing
	}
	th := frac * vp
	// Normalize to a positive pulse for the search.
	s := w
	if vp < 0 {
		s = w.Scale(-1)
		th = -th
	}
	// Search left and right from the peak for the threshold crossings.
	left := s.Start()
	for i := 1; i < len(s.T); i++ {
		if s.T[i] > tp {
			break
		}
		if s.V[i-1] < th && s.V[i] >= th {
			left = s.T[i-1] + (th-s.V[i-1])/(s.V[i]-s.V[i-1])*(s.T[i]-s.T[i-1])
		}
	}
	right := s.End()
	for i := len(s.T) - 1; i >= 1; i-- {
		if s.T[i-1] < tp {
			break
		}
		if s.V[i-1] >= th && s.V[i] < th {
			right = s.T[i-1] + (th-s.V[i-1])/(s.V[i]-s.V[i-1])*(s.T[i]-s.T[i-1])
		}
	}
	if right < left {
		return 0, ErrNoCrossing
	}
	return right - left, nil
}

// Resample returns the waveform sampled on a uniform grid of n points
// spanning [t0, t1] (inclusive, n >= 2).
//
//lint:ignore noiselint/testonly cross-package test fixture: ceff's bit pin replays the charge integral as it was before ceff stopped building the resampled waveform
func (w *PWL) Resample(t0, t1 float64, n int) *PWL {
	if n < 2 {
		panic("waveform: Resample needs n >= 2")
	}
	t := make([]float64, n)
	v := make([]float64, n)
	dt := (t1 - t0) / float64(n-1)
	for i := 0; i < n; i++ {
		t[i] = t0 + float64(i)*dt
		v[i] = w.At(t[i])
	}
	return New(t, v)
}

// Slew returns the transition time between the lo and hi fractional
// thresholds of a full swing from v0 to v1 (e.g. 0.1, 0.9 for the 10-90%
// slew of a rising edge). v1 may be less than v0 for a falling edge.
func (w *PWL) Slew(v0, v1, lo, hi float64) (float64, error) {
	thLo := v0 + lo*(v1-v0)
	thHi := v0 + hi*(v1-v0)
	if v1 > v0 {
		tl, err := w.CrossRising(thLo)
		if err != nil {
			return 0, err
		}
		th, err := w.CrossRising(thHi)
		if err != nil {
			return 0, err
		}
		return th - tl, nil
	}
	tl, err := w.CrossFalling(thLo)
	if err != nil {
		return 0, err
	}
	th, err := w.CrossFalling(thHi)
	if err != nil {
		return 0, err
	}
	return th - tl, nil
}
