// Package lsim is the linear transient simulator of the superposition
// flow. It integrates the MNA system G x + C x' = B u(t) with the
// trapezoidal rule on a fixed time step, prefactoring the system matrix
// once per run (factor-once/solve-many) and drawing every per-step
// vector from a scratch arena so the stepping loop allocates nothing.
// One stepper serves a single input set (Run, RunToCrossing) and a
// group of sets that share the system (RunGroup): the superposition
// runs of one net differ only in which driver switches.
package lsim

import (
	"context"
	"fmt"
	"slices"

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
	// X0 is the initial state; a grouped run starts every input set
	// from it.
	X0 []float64
	// InitDC solves the DC operating point at TStart for the initial
	// condition when X0 is nil. When false and X0 is nil, the run starts
	// from the zero state.
	InitDC bool
	// Ctx, when non-nil, cancels the run: the integration loop checks it
	// every CtxCheckInterval steps and returns a noiseerr.ErrCanceled-
	// classified error (also matching the context's own error).
	Ctx context.Context
}

// Result holds the simulated node voltages of one input set.
type Result struct {
	Times  []float64
	States *linalg.Matrix // len(Times) x recorded states
	sys    *mna.System
	// rec holds the state index of each column of States; nil when
	// every state is recorded in order, as Run records them.
	rec []int
}

// stepper owns the prefactored system and the scratch arena of one run
// of r >= 1 input sets over one (G, C, B). Every per-step vector holds
// the r sets interleaved, entry i of set j at i*r+j, so one CSR product
// and one solve advance them all. After prepare, advancing a step
// performs zero allocations: every vector the loop touches is
// preallocated here and the row storage of a full-horizon run is sized
// up front from the fixed step count.
type stepper struct {
	n      int // states
	r      int // input sets
	steps  int
	h      float64
	tStart float64

	// sets holds each set's input waveforms, one per column of B.
	sets [][]*waveform.PWL
	// rec lists the recorded states; nil records every state of the
	// single set whole.
	rec []int

	// f is the factor of A = C/h + G/2, as linalg.Factor chooses it:
	// factored once, solved every step.
	f linalg.Solver

	// M = C/h - G/2 and B in CSR, applied every step. Skipping their
	// exact zeros keeps the dense products' bits (see
	// linalg.Sparse.MulCols): the right-hand side M*x is never -0, so a
	// row of B without a driver, whose dense product is +0, adds
	// nothing.
	spM, spB *linalg.Sparse

	// Scratch arena.
	x, xNext, rhs     []float64
	uPrev, uNow, uMid []float64
	// uHint keeps one segment hint per input waveform, so each step's
	// input lookup walks forward instead of binary searching.
	uHint []int

	// Rows recorded so far, appended step by step: the times, and for
	// each set its recorded states.
	times []float64
	data  [][]float64
}

// crossing is a stop condition on one state of the first input set: it
// fires at the first step whose state crosses level in the given
// direction, tested the way waveform.PWL's first-crossing search tests
// a segment. A negative state never fires.
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

// Run integrates the system over [TStart, TStop], recording every
// node. Cancellation, when needed, comes from Options.Ctx (or use
// RunContext).
func Run(sys *mna.System, opt Options) (*Result, error) {
	return runOne(sys, opt, never)
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
	return runOne(sys, opt, crossing{state: i, level: level, rising: rising})
}

// RunToCrossingContext is RunToCrossing with an explicit context,
// overriding Options.Ctx.
func RunToCrossingContext(ctx context.Context, sys *mna.System, opt Options, node string, level float64, rising bool) (*Result, error) {
	opt.Ctx = ctx
	return RunToCrossing(sys, opt, node, level, rising)
}

// RunGroup integrates len(sets) input sets over one system in a single
// pass: set j drives the columns of sys.B with sets[j] in place of
// sys.Inputs. The sets share one factor of the trapezoidal matrix (and
// of G for InitDC), and every step applies M and B to all of them at
// once. Each set's rows are the rows Run returns on sys with that set's
// inputs, bit for bit, for finite inputs. It returns one Result per
// set, recording only the named nodes, in that order (every node when
// nodes is nil).
func RunGroup(sys *mna.System, sets [][]*waveform.PWL, nodes []string, opt Options) ([]*Result, error) {
	if len(sets) == 0 {
		return nil, noiseerr.Invalidf("lsim: a group needs at least one input set")
	}
	for j, set := range sets {
		if len(set) != sys.NumInputs() {
			return nil, noiseerr.Invalidf("lsim: input set %d has %d waveforms, want %d", j, len(set), sys.NumInputs())
		}
	}
	rec := make([]int, 0, sys.NumStates())
	if nodes == nil {
		for i := 0; i < sys.NumStates(); i++ {
			rec = append(rec, i)
		}
	}
	for _, node := range nodes {
		i, err := sys.NodeIndex(node)
		if err != nil {
			return nil, err
		}
		rec = append(rec, i)
	}
	return runUntil(sys, sets, rec, opt, never)
}

// RunGroupContext is RunGroup with an explicit context, overriding
// Options.Ctx.
func RunGroupContext(ctx context.Context, sys *mna.System, sets [][]*waveform.PWL, nodes []string, opt Options) ([]*Result, error) {
	opt.Ctx = ctx
	return RunGroup(sys, sets, nodes, opt)
}

// runOne runs the system's own inputs as a group of one, recording
// every state.
func runOne(sys *mna.System, opt Options, stop crossing) (*Result, error) {
	res, err := runUntil(sys, [][]*waveform.PWL{sys.Inputs}, nil, opt, stop)
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// runUntil prepares a stepper and steps it until stop fires or the
// horizon ends.
func runUntil(sys *mna.System, sets [][]*waveform.PWL, rec []int, opt Options, stop crossing) ([]*Result, error) {
	s, err := prepare(sys, sets, rec, opt, stop.state >= 0)
	if err != nil {
		return nil, err
	}
	if err := s.run(opt.Ctx, stop); err != nil {
		return nil, err
	}
	return s.results(sys), nil
}

// results wraps each set's recorded rows.
func (s *stepper) results(sys *mna.System) []*Result {
	out := make([]*Result, s.r)
	for j, d := range s.data {
		out[j] = &Result{Times: s.times, States: &linalg.Matrix{Rows: len(s.times), Cols: s.width(), Data: d}, sys: sys, rec: s.rec}
	}
	return out
}

// prepare validates the options, assembles the trapezoidal matrices,
// factors A once through linalg.Factor, and sizes the scratch arena for
// the input sets, recording the states in rec (every state when rec is
// nil, which takes a single set). The row storage holds every step up
// front unless the run may stop early, in which case it starts at a
// quarter of the horizon and grows.
func prepare(sys *mna.System, sets [][]*waveform.PWL, rec []int, opt Options, mayStop bool) (*stepper, error) {
	if opt.Step <= 0 {
		return nil, noiseerr.Invalidf("lsim: step must be positive, got %g", opt.Step)
	}
	if opt.TStop <= opt.TStart {
		return nil, noiseerr.Invalidf("lsim: TStop %g must exceed TStart %g", opt.TStop, opt.TStart)
	}
	if err := canceled(opt.Ctx, 0, 0); err != nil {
		return nil, err
	}
	n, r, nin := sys.NumStates(), len(sets), sys.NumInputs()
	steps := int((opt.TStop-opt.TStart)/opt.Step + 0.5)
	if steps < 1 {
		steps = 1
	}
	s := &stepper{
		n:      n,
		r:      r,
		steps:  steps,
		h:      opt.Step,
		tStart: opt.TStart,
		sets:   sets,
		rec:    rec,
		spB:    linalg.FromDense(sys.B),
		x:      make([]float64, n*r),
		xNext:  make([]float64, n*r),
		rhs:    make([]float64, n*r),
		uPrev:  make([]float64, nin*r),
		uNow:   make([]float64, nin*r),
		uMid:   make([]float64, nin*r),
		uHint:  make([]int, nin*r),
	}
	s.inputsAt(s.uPrev, opt.TStart)
	switch {
	case opt.X0 != nil:
		if len(opt.X0) != n {
			return nil, noiseerr.Invalidf("lsim: X0 has %d entries, want %d", len(opt.X0), n)
		}
		for i, v := range opt.X0 {
			for j := 0; j < r; j++ {
				s.x[i*r+j] = v
			}
		}
	case opt.InitDC:
		if err := sys.DCCols(s.x, s.uPrev, r); err != nil {
			return nil, err
		}
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
	s.times = make([]float64, 0, rows)
	s.data = make([][]float64, r)
	for j := range s.data {
		s.data[j] = make([]float64, 0, rows*s.width())
	}
	s.record(opt.TStart)
	return s, nil
}

// width is the number of states recorded per row and set.
func (s *stepper) width() int {
	if s.rec == nil {
		return s.n
	}
	return len(s.rec)
}

// inputsAt evaluates every set's inputs at t into u, interleaved.
//
//lint:hot
func (s *stepper) inputsAt(u []float64, t float64) {
	r := s.r
	for j, set := range s.sets {
		for c, w := range set {
			u[c*r+j] = w.AtHint(t, &s.uHint[c*r+j])
		}
	}
}

// step advances the solution from step k-1 to step k (1-based) and
// records it. It performs no allocations.
//
//lint:hot
func (s *stepper) step(k int) {
	t := s.tStart + float64(k)*s.h
	s.inputsAt(s.uNow, t)
	for i := range s.uMid {
		s.uMid[i] = 0.5 * (s.uPrev[i] + s.uNow[i])
	}
	s.spM.MulCols(s.rhs, s.x, s.r)
	s.spB.AddMulCols(s.rhs, s.uMid, s.r)
	s.f.SolveColsTo(s.xNext, s.rhs, s.r)
	s.x, s.xNext = s.xNext, s.x
	s.record(t)
	s.uPrev, s.uNow = s.uNow, s.uPrev
}

// record appends the current state as the row at time t.
//
//lint:hot
func (s *stepper) record(t float64) {
	row := len(s.times)
	if row == cap(s.times) {
		s.grow()
	}
	s.times = s.times[:row+1]
	s.times[row] = t
	w, r := s.width(), s.r
	for j, d := range s.data {
		d = d[:(row+1)*w]
		if s.rec == nil {
			copy(d[row*w:], s.x)
		} else {
			out := d[row*w:]
			for p, i := range s.rec {
				out[p] = s.x[i*r+j]
			}
		}
		s.data[j] = d
	}
}

// grow doubles the row storage of a run that started below its full
// horizon.
func (s *stepper) grow() {
	rows := min(2*cap(s.times), s.steps+1)
	s.times = append(make([]float64, 0, rows), s.times...)
	for j, d := range s.data {
		s.data[j] = append(make([]float64, 0, rows*s.width()), d...)
	}
}

// run executes the steps with periodic cancellation checks until stop
// fires after a step or the horizon ends. stop watches the first set.
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
		if i := stop.state * s.r; stop.state >= 0 && stop.hit(s.xNext[i], s.x[i]) {
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

// Voltage returns the waveform at the named node, which the run must
// have recorded.
func (r *Result) Voltage(node string) (*waveform.PWL, error) {
	i, err := r.sys.NodeIndex(node)
	if err != nil {
		return nil, err
	}
	return r.StateWaveform(i)
}

// StateWaveform returns the waveform of state index i, which the run
// must have recorded.
func (r *Result) StateWaveform(i int) (*waveform.PWL, error) {
	col := i
	if r.rec != nil {
		col = slices.Index(r.rec, i)
	}
	if col < 0 || col >= r.States.Cols {
		return nil, noiseerr.Invalidf("lsim: state %d was not recorded", i)
	}
	v := make([]float64, len(r.Times))
	for k := range r.Times {
		v[k] = r.States.At(k, col)
	}
	return waveform.New(append([]float64(nil), r.Times...), v), nil
}
