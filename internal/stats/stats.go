// Package stats provides the error metrics the experiment harness
// reports: mean/worst absolute and relative errors between a model series
// and a reference series.
package stats

import (
	"fmt"
	"math"
)

// FloorRelErr is the floor-guarded relative error
// |model - ref| / max(|ref|, floor): the relative error while the
// reference is at least floor in magnitude, and the absolute error in
// units of floor below it, so a near-zero reference cannot inflate it.
//
//lint:ignore noiselint/testonly the paper benches in bench_test.go report their model errors through it
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
