// Package stats provides the error metrics the experiment harness
// reports: mean/worst absolute and relative errors between a model series
// and a reference series, plus simple distribution summaries.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Max returns the maximum (negative infinity for an empty slice).
func Max(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// Min returns the minimum (positive infinity for an empty slice).
func Min(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

// Percentile returns the p-th percentile (0 <= p <= 100) by linear
// interpolation of the sorted data.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// FloorRelErr is the floor-guarded relative error
// |model - ref| / max(|ref|, floor): the relative error while the
// reference is at least floor in magnitude, and the absolute error in
// units of floor below it, so a near-zero reference cannot inflate it.
func FloorRelErr(model, ref, floor float64) float64 {
	return math.Abs(model-ref) / math.Max(math.Abs(ref), floor)
}

// ErrorSummary compares a model series against a reference.
type ErrorSummary struct {
	N               int
	MeanAbsErr      float64 // mean |model - ref|
	WorstAbsErr     float64 // max |model - ref|
	MeanRelErr      float64 // mean |model - ref| / |ref|, over |ref| > floor
	WorstRelErr     float64
	UnderestimateN  int     // count of model < ref
	OverestimateN   int     // count of model > ref
	MeanSignedError float64 // mean (model - ref)
}

// Compare builds an error summary. relFloor excludes tiny references from
// the relative-error statistics (they blow up the ratio without meaning).
func Compare(model, ref []float64, relFloor float64) (ErrorSummary, error) {
	if len(model) != len(ref) {
		return ErrorSummary{}, fmt.Errorf("stats: %d model vs %d reference points", len(model), len(ref))
	}
	var s ErrorSummary
	s.N = len(model)
	relN := 0
	for i := range model {
		d := model[i] - ref[i]
		ad := math.Abs(d)
		s.MeanAbsErr += ad
		s.MeanSignedError += d
		if ad > s.WorstAbsErr {
			s.WorstAbsErr = ad
		}
		switch {
		case d < 0:
			s.UnderestimateN++
		case d > 0:
			s.OverestimateN++
		}
		if math.Abs(ref[i]) > relFloor {
			rel := ad / math.Abs(ref[i])
			s.MeanRelErr += rel
			if rel > s.WorstRelErr {
				s.WorstRelErr = rel
			}
			relN++
		}
	}
	if s.N > 0 {
		s.MeanAbsErr /= float64(s.N)
		s.MeanSignedError /= float64(s.N)
	}
	if relN > 0 {
		s.MeanRelErr /= float64(relN)
	}
	return s, nil
}

// String renders the summary in picoseconds and percent, the units of the
// paper's result figures.
func (s ErrorSummary) String() string {
	return fmt.Sprintf("n=%d meanAbs=%.2fps worstAbs=%.2fps meanRel=%.2f%% worstRel=%.2f%% under=%d over=%d",
		s.N, s.MeanAbsErr*1e12, s.WorstAbsErr*1e12, s.MeanRelErr*100, s.WorstRelErr*100,
		s.UnderestimateN, s.OverestimateN)
}
