package waveform

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestAtInterpolation(t *testing.T) {
	w := New([]float64{0, 1, 3}, []float64{0, 2, 0})
	cases := []struct{ t, want float64 }{
		{-1, 0}, {0, 0}, {0.5, 1}, {1, 2}, {2, 1}, {3, 0}, {5, 0},
	}
	for _, c := range cases {
		if got := w.At(c.t); !approx(got, c.want, 1e-15) {
			t.Errorf("At(%v) = %v, want %v", c.t, got, c.want)
		}
	}
}

func TestNewPanicsOnBadInput(t *testing.T) {
	for name, fn := range map[string]func(){
		"length mismatch":     func() { New([]float64{0, 1}, []float64{0}) },
		"non-increasing time": func() { New([]float64{0, 1, 1}, []float64{0, 1, 2}) },
		"ramp zero dt":        func() { Ramp(0, 0, 0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestRamp(t *testing.T) {
	w := Ramp(1e-9, 2e-9, 0, 1.8)
	if !approx(w.At(1e-9), 0, 1e-15) || !approx(w.At(3e-9), 1.8, 1e-15) {
		t.Fatal("ramp endpoints wrong")
	}
	if !approx(w.At(2e-9), 0.9, 1e-12) {
		t.Fatalf("ramp midpoint = %v", w.At(2e-9))
	}
	if !approx(w.At(0), 0, 1e-15) || !approx(w.At(1e-8), 1.8, 1e-15) {
		t.Fatal("ramp hold values wrong")
	}
}

func TestShiftScaleOffset(t *testing.T) {
	w := Ramp(0, 1, 0, 1)
	s := w.Shift(2).Scale(3).Offset(-1)
	if !approx(s.At(2), -1, 1e-15) || !approx(s.At(3), 2, 1e-15) {
		t.Fatalf("shifted/scaled values wrong: %v %v", s.At(2), s.At(3))
	}
	// Original unchanged.
	if !approx(w.At(0.5), 0.5, 1e-15) {
		t.Fatal("original mutated")
	}
}

func TestSumExactSuperposition(t *testing.T) {
	a := Ramp(0, 2, 0, 1)
	b := Ramp(1, 2, 0, -0.5)
	s := Sum(a, b)
	for _, tt := range []float64{-1, 0, 0.5, 1, 1.5, 2, 2.5, 3, 4} {
		want := a.At(tt) + b.At(tt)
		if got := s.At(tt); !approx(got, want, 1e-14) {
			t.Errorf("Sum at %v = %v, want %v", tt, got, want)
		}
	}
}

func TestSumEmptyAndNil(t *testing.T) {
	s := Sum(nil, Constant(0))
	if s.At(0) != 0 {
		t.Fatal("sum of nothing should be 0")
	}
	s2 := Sum()
	if s2.At(5) != 0 {
		t.Fatal("empty Sum should be 0")
	}
}

func TestSubIdentityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		ts := make([]float64, n)
		vs := make([]float64, n)
		acc := 0.0
		for i := range ts {
			acc += 0.01 + rng.Float64()
			ts[i] = acc
			vs[i] = rng.NormFloat64()
		}
		w := New(ts, vs)
		d := Sub(w, w)
		for _, tt := range ts {
			if math.Abs(d.At(tt)) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIntegral(t *testing.T) {
	// Triangle 0→2→0 over [0,2]: area 2.
	w := New([]float64{0, 1, 2}, []float64{0, 2, 0})
	if !approx(w.Integral(), 2, 1e-14) {
		t.Fatalf("integral = %v, want 2", w.Integral())
	}
	if !approx(w.IntegralRange(0, 1), 1, 1e-14) {
		t.Fatalf("half integral = %v", w.IntegralRange(0, 1))
	}
	if !approx(w.IntegralRange(1, 0), -1, 1e-14) {
		t.Fatal("reversed range should negate")
	}
	// Holding outside the range: w holds 0 after t=2.
	if !approx(w.IntegralRange(0, 4), 2, 1e-14) {
		t.Fatalf("extended integral = %v", w.IntegralRange(0, 4))
	}
	// Hold of nonzero end value.
	c := Constant(3)
	if !approx(c.IntegralRange(1, 3), 6, 1e-14) {
		t.Fatal("constant integral wrong")
	}
}

func TestCrossings(t *testing.T) {
	w := New([]float64{0, 1, 2, 3}, []float64{0, 2, 0, 2})
	up1, err := w.CrossRising(1)
	if err != nil || !approx(up1, 0.5, 1e-14) {
		t.Fatalf("first rising = %v, %v", up1, err)
	}
	upLast, err := w.LastCrossRising(1)
	if err != nil || !approx(upLast, 2.5, 1e-14) {
		t.Fatalf("last rising = %v, %v", upLast, err)
	}
	down, err := w.CrossFalling(1)
	if err != nil || !approx(down, 1.5, 1e-14) {
		t.Fatalf("falling = %v, %v", down, err)
	}
	if _, err := w.CrossRising(5); err == nil {
		t.Fatal("expected ErrNoCrossing above the waveform")
	}
	if _, err := w.CrossFalling(-1); err == nil {
		t.Fatal("expected ErrNoCrossing below the waveform")
	}
}

func TestPeakMaxMinWidth(t *testing.T) {
	w := New([]float64{0, 1, 2}, []float64{0, -1, 0})
	tp, vp := w.Peak()
	if !approx(tp, 1, 1e-15) || !approx(vp, -1, 1e-15) {
		t.Fatalf("peak = (%v, %v)", tp, vp)
	}
	_, mx := w.Max()
	_, mn := w.Min()
	if mx != 0 || mn != -1 {
		t.Fatalf("max/min = %v/%v", mx, mn)
	}
	// Half-height width of the triangular (negative) pulse: crossings of
	// -0.5 at t=0.5 and t=1.5.
	width, err := w.WidthAt(0.5)
	if err != nil || !approx(width, 1, 1e-12) {
		t.Fatalf("width = %v, %v", width, err)
	}
}

func TestWidthAtZeroPulse(t *testing.T) {
	if _, err := Constant(0).WidthAt(0.5); err == nil {
		t.Fatal("expected error for zero pulse")
	}
}

func TestResample(t *testing.T) {
	w := Ramp(0, 1, 0, 1)
	r := w.Resample(0, 1, 11)
	if r.Len() != 11 {
		t.Fatalf("len = %d", r.Len())
	}
	if !approx(r.At(0.35), 0.35, 1e-12) {
		t.Fatalf("resample value %v", r.At(0.35))
	}
}

func TestSlew(t *testing.T) {
	w := Ramp(0, 1, 0, 1.8)
	s, err := w.Slew(0, 1.8, 0.1, 0.9)
	if err != nil || !approx(s, 0.8, 1e-12) {
		t.Fatalf("rising slew = %v, %v", s, err)
	}
	f := Ramp(0, 2, 1.8, 0)
	s, err = f.Slew(1.8, 0, 0.1, 0.9)
	if err != nil || !approx(s, 1.6, 1e-12) {
		t.Fatalf("falling slew = %v, %v", s, err)
	}
}

func TestIntegralAdditivityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		ts := make([]float64, n)
		vs := make([]float64, n)
		acc := rng.Float64()
		for i := range ts {
			acc += 0.01 + rng.Float64()
			ts[i] = acc
			vs[i] = rng.NormFloat64()
		}
		w := New(ts, vs)
		t0, t1 := ts[0], ts[n-1]
		tm := t0 + rng.Float64()*(t1-t0)
		whole := w.IntegralRange(t0, t1)
		parts := w.IntegralRange(t0, tm) + w.IntegralRange(tm, t1)
		return math.Abs(whole-parts) <= 1e-9*(1+math.Abs(whole))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSumCommutativityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mk := func() *PWL {
			n := 2 + rng.Intn(6)
			ts := make([]float64, n)
			vs := make([]float64, n)
			acc := rng.Float64()
			for i := range ts {
				acc += 0.01 + rng.Float64()
				ts[i] = acc
				vs[i] = rng.NormFloat64()
			}
			return New(ts, vs)
		}
		a, b := mk(), mk()
		ab, ba := Sum(a, b), Sum(b, a)
		for _, tt := range ab.T {
			if math.Abs(ab.At(tt)-ba.At(tt)) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWriteCSV(t *testing.T) {
	a := Ramp(0, 1e-9, 0, 1.8)
	b := Ramp(0.5e-9, 1e-9, 1.8, 0)
	var buf bytes.Buffer
	cols := []Column{{Name: "a", W: a}, {Name: "b", W: b}}
	t0, t1 := Span(cols)
	if t0 != 0 || math.Abs(t1-1.5e-9) > 1e-18 {
		t.Fatalf("span [%v %v]", t0, t1)
	}
	if err := WriteCSV(&buf, t0, t1, 4, cols); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 5 {
		t.Fatalf("got %d lines", len(lines))
	}
	if lines[0] != "t,a,b" {
		t.Fatalf("header %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "0.000000e+00,0.000000e+00,1.800000e+00") {
		t.Fatalf("first row %q", lines[1])
	}
}

func TestWriteCSVValidation(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, 0, 1, 1, nil); err == nil {
		t.Error("expected error for n < 2")
	}
	if err := WriteCSV(&buf, 1, 0, 10, nil); err == nil {
		t.Error("expected error for inverted span")
	}
}
