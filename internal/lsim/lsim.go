// Package lsim is the linear transient simulator of the superposition
// flow. It integrates the MNA system G x + C x' = B u(t) with the
// trapezoidal rule on a fixed time step, prefactoring the system matrix
// once per run (factor-once/solve-many) and drawing every per-step
// vector from a scratch arena so the stepping loop allocates nothing.
package lsim

import (
	"context"
	"fmt"

	"repro/internal/linalg"
	"repro/internal/mna"
	"repro/internal/noiseerr"
	"repro/internal/waveform"
)

// CtxCheckInterval is the number of integration steps between context
// checks: cancellation stays off the per-step hot path, yet a canceled
// run aborts within this many steps.
const CtxCheckInterval = 64

// Options configure a transient run.
type Options struct {
	TStart float64 // first time point (default 0)
	TStop  float64 // last time point (required, > TStart)
	Step   float64 // fixed step (required, > 0)
	X0     []float64
	// InitDC solves the DC operating point at TStart for the initial
	// condition when X0 is nil. When false and X0 is nil, the run starts
	// from the zero state.
	InitDC bool
	// Ctx, when non-nil, cancels the run: the integration loop checks it
	// every CtxCheckInterval steps and returns a noiseerr.ErrCanceled-
	// classified error (also matching the context's own error).
	Ctx context.Context
}

// Result holds the simulated node voltages.
type Result struct {
	Times  []float64
	States *linalg.Matrix // len(Times) x NumStates
	sys    *mna.System
}

// stepper owns the prefactored system and the scratch arena of one run.
// After prepare, advancing a step performs zero allocations: every
// vector the loop touches is preallocated here and the row storage of
// a full-horizon run is sized up front from the fixed step count.
type stepper struct {
	sys    *mna.System
	n      int
	steps  int
	h      float64
	tStart float64

	// f is the factor of A = C/h + G/2, as linalg.Factor chooses it:
	// factored once, solved every step.
	f linalg.Solver

	// M = C/h - G/2 in CSR, applied every step. Skipping its exact zeros
	// keeps the dense product's bits: every row sum starts at +0 and can
	// never become -0, so adding a 0*x term changes nothing.
	spM *linalg.Sparse

	// Scratch arena.
	x, xNext, rhs         []float64
	uPrev, uNow, uMid, bu []float64
	// uHint keeps one segment hint per input waveform, so each step's
	// input lookup walks forward instead of binary searching.
	uHint []int

	// Rows recorded so far, n states each, appended step by step.
	times []float64
	data  []float64
}

// crossing is a stop condition on one state: it fires at the first
// step whose state crosses level in the given direction, tested the way
// waveform.PWL's first-crossing search tests a segment. A negative
// state never fires.
type crossing struct {
	state  int
	level  float64
	rising bool
}

// never is the stop condition of a full-horizon run.
var never = crossing{state: -1}

// hit reports whether the step from v0 to v1 crosses the level.
func (c crossing) hit(v0, v1 float64) bool {
	if c.rising {
		return v0 < c.level && v1 >= c.level
	}
	return v0 > c.level && v1 <= c.level
}

// RunContext is Run with an explicit context, overriding Options.Ctx.
// The integration loop checks ctx every CtxCheckInterval steps.
func RunContext(ctx context.Context, sys *mna.System, opt Options) (*Result, error) {
	opt.Ctx = ctx
	return Run(sys, opt)
}

// Run integrates the system over [TStart, TStop]. Cancellation, when
// needed, comes from Options.Ctx (or use RunContext).
func Run(sys *mna.System, opt Options) (*Result, error) {
	return runUntil(sys, opt, never)
}

// RunToCrossing is Run stopped after the first step k at which node
// crosses level upward (rising) or downward, tested as
// waveform.PWL.CrossRising/CrossFalling test a segment: v0 < level &&
// v1 >= level when rising, mirrored when falling. It steps exactly as
// Run does, so its k+1 rows equal Run's first k+1 rows bit for bit;
// when node never crosses it returns what Run returns.
func RunToCrossing(sys *mna.System, opt Options, node string, level float64, rising bool) (*Result, error) {
	i, err := sys.NodeIndex(node)
	if err != nil {
		return nil, err
	}
	return runUntil(sys, opt, crossing{state: i, level: level, rising: rising})
}

// RunToCrossingContext is RunToCrossing with an explicit context,
// overriding Options.Ctx.
func RunToCrossingContext(ctx context.Context, sys *mna.System, opt Options, node string, level float64, rising bool) (*Result, error) {
	opt.Ctx = ctx
	return RunToCrossing(sys, opt, node, level, rising)
}

// runUntil prepares a stepper and steps it until stop fires or the
// horizon ends.
func runUntil(sys *mna.System, opt Options, stop crossing) (*Result, error) {
	s, err := prepare(sys, opt, stop.state >= 0)
	if err != nil {
		return nil, err
	}
	if err := s.run(opt.Ctx, stop); err != nil {
		return nil, err
	}
	rows := &linalg.Matrix{Rows: len(s.times), Cols: s.n, Data: s.data}
	return &Result{Times: s.times, States: rows, sys: sys}, nil
}

// prepare validates the options, assembles the trapezoidal matrices,
// factors A once through linalg.Factor, and sizes the scratch arena. The
// row storage holds every step up front unless the run may stop early,
// in which case it starts at a quarter of the horizon and grows.
func prepare(sys *mna.System, opt Options, mayStop bool) (*stepper, error) {
	if opt.Step <= 0 {
		return nil, noiseerr.Invalidf("lsim: step must be positive, got %g", opt.Step)
	}
	if opt.TStop <= opt.TStart {
		return nil, noiseerr.Invalidf("lsim: TStop %g must exceed TStart %g", opt.TStop, opt.TStart)
	}
	if err := canceled(opt.Ctx, 0, 0); err != nil {
		return nil, err
	}
	n := sys.NumStates()
	steps := int((opt.TStop-opt.TStart)/opt.Step + 0.5)
	if steps < 1 {
		steps = 1
	}
	s := &stepper{
		sys:    sys,
		n:      n,
		steps:  steps,
		h:      opt.Step,
		tStart: opt.TStart,
		x:      make([]float64, n),
		xNext:  make([]float64, n),
		rhs:    make([]float64, n),
		uPrev:  make([]float64, sys.NumInputs()),
		uNow:   make([]float64, sys.NumInputs()),
		uMid:   make([]float64, sys.NumInputs()),
		uHint:  make([]int, sys.NumInputs()),
		bu:     make([]float64, n),
	}
	switch {
	case opt.X0 != nil:
		if len(opt.X0) != n {
			return nil, noiseerr.Invalidf("lsim: X0 has %d entries, want %d", len(opt.X0), n)
		}
		copy(s.x, opt.X0)
	case opt.InitDC:
		dc, err := sys.DC(opt.TStart)
		if err != nil {
			return nil, err
		}
		copy(s.x, dc)
	}

	// Trapezoidal: (C/h + G/2) x_{k+1} = (C/h - G/2) x_k + B (u_k + u_{k+1})/2.
	h := s.h
	a := sys.C.Clone().Scale(1 / h)
	a.AXPY(0.5, sys.G)
	m := sys.C.Clone().Scale(1 / h)
	m.AXPY(-0.5, sys.G)

	f, err := linalg.Factor(a)
	if err != nil {
		return nil, noiseerr.Numericalf("lsim: trapezoidal matrix singular: %w", err)
	}
	s.f, s.spM = f, linalg.FromDense(m)

	rows := steps + 1
	if mayStop {
		rows = steps/4 + 1
	}
	s.times = make([]float64, 1, rows)
	s.data = make([]float64, n, rows*n)
	s.times[0] = opt.TStart
	copy(s.data, s.x)
	sys.InputAtTo(s.uPrev, opt.TStart, s.uHint)
	return s, nil
}

// step advances the solution from step k-1 to step k (1-based) and
// records it. It performs no allocations.
//
//lint:hot
func (s *stepper) step(k int) {
	t := s.tStart + float64(k)*s.h
	s.sys.InputAtTo(s.uNow, t, s.uHint)
	for i := range s.uMid {
		s.uMid[i] = 0.5 * (s.uPrev[i] + s.uNow[i])
	}
	s.spM.MulVec(s.x, s.rhs)
	s.sys.B.MulVecTo(s.bu, s.uMid)
	for i := range s.rhs {
		s.rhs[i] += s.bu[i]
	}
	s.f.SolveTo(s.xNext, s.rhs)
	s.x, s.xNext = s.xNext, s.x
	r := len(s.times)
	if r == cap(s.times) {
		s.grow()
	}
	s.times = s.times[:r+1]
	s.times[r] = t
	s.data = s.data[:(r+1)*s.n]
	copy(s.data[r*s.n:], s.x)
	s.uPrev, s.uNow = s.uNow, s.uPrev
}

// grow doubles the row storage of a run that started below its full
// horizon.
func (s *stepper) grow() {
	rows := min(2*cap(s.times), s.steps+1)
	s.times = append(make([]float64, 0, rows), s.times...)
	s.data = append(make([]float64, 0, rows*s.n), s.data...)
}

// run executes the steps with periodic cancellation checks until stop
// fires after a step or the horizon ends.
//
//lint:hot
func (s *stepper) run(ctx context.Context, stop crossing) error {
	for k := 1; k <= s.steps; k++ {
		if k%CtxCheckInterval == 0 {
			if err := canceled(ctx, k, s.steps); err != nil {
				return err
			}
		}
		s.step(k)
		if stop.state >= 0 && stop.hit(s.xNext[stop.state], s.x[stop.state]) {
			return nil
		}
	}
	return nil
}

// canceled converts a fired context into a classified error.
func canceled(ctx context.Context, step, steps int) error {
	if ctx == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return noiseerr.Canceled(fmt.Errorf("lsim: canceled at step %d of %d: %w", step, steps, err))
	}
	return nil
}

// Voltage returns the waveform at the named node.
func (r *Result) Voltage(node string) (*waveform.PWL, error) {
	i, err := r.sys.NodeIndex(node)
	if err != nil {
		return nil, err
	}
	return r.StateWaveform(i), nil
}

// StateWaveform returns the waveform of state index i.
func (r *Result) StateWaveform(i int) *waveform.PWL {
	v := make([]float64, len(r.Times))
	for k := range r.Times {
		v[k] = r.States.At(k, i)
	}
	return waveform.New(append([]float64(nil), r.Times...), v)
}

// Final returns the last state vector.
func (r *Result) Final() []float64 {
	n := r.States.Cols
	k := len(r.Times) - 1
	out := make([]float64, n)
	copy(out, r.States.Data[k*n:(k+1)*n])
	return out
}
