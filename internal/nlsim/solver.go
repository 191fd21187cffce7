package nlsim

import (
	"context"
	"fmt"
	"math"

	"repro/internal/device"
	"repro/internal/linalg"
	"repro/internal/noiseerr"
	"repro/internal/resilience"
	"repro/internal/waveform"
)

// CtxCheckInterval is the number of step attempts between context
// checks: cancellation stays off the per-step hot path, yet a canceled
// run aborts within this many Newton solves.
const CtxCheckInterval = 16

// Options configure a nonlinear transient run.
type Options struct {
	TStart float64 // first time point (default 0)
	TStop  float64 // last time point (required)
	Step   float64 // fixed integration step (required)

	X0 []float64 // initial state; nil means DC operating point at TStart

	MaxNewton int     // Newton iteration cap per step (default 60)
	VTol      float64 // Newton convergence tolerance, volts (default 1 uV)
	Damp      float64 // max Newton update per iteration, volts (default 0.4)

	// Ctx, when non-nil, cancels the run: the time-stepping loop checks
	// it every CtxCheckInterval step attempts and returns a
	// noiseerr.ErrCanceled-classified error (also matching the context's
	// own error).
	Ctx context.Context

	// Rescue arms the convergence rescue aids (DC homotopy, transient
	// step halving) for this run. A rescue carried on the context via
	// resilience.WithSolverRescue takes precedence, so batch engines can
	// arm a whole retry without touching the Options structs of the
	// layers in between.
	Rescue resilience.SolverRescue

	// FullNewton disables the Jacobian factorization reuse (the
	// modified-Newton factor cache), assembling and refactoring on every
	// Newton iteration as the pre-cache engine did. It is the reference
	// mode the golden-equivalence tests compare the cached paths
	// against, and an escape hatch for circuits where the stale-factor
	// heuristics misbehave.
	FullNewton bool

	// Stop, when non-nil, is called after every committed step with the
	// step's time and committed state (indexed by Circuit.StateIndex);
	// returning true ends the run there. The hook only reads, so a
	// stopped run's rows are the full run's first rows, bit for bit.
	// It must not keep x, which the next step overwrites.
	Stop func(t float64, x []float64) bool
}

func (o *Options) defaults() {
	if o.MaxNewton == 0 {
		o.MaxNewton = 60
	}
	if o.VTol == 0 {
		o.VTol = 1e-6
	}
	if o.Damp == 0 {
		o.Damp = 0.4
	}
}

// Result holds the simulated voltages of a nonlinear run.
type Result struct {
	Times  []float64
	States *linalg.Matrix
	ckt    *Circuit
}

// solver carries the per-run scratch buffers: every vector a Newton
// iteration touches is allocated once here, so the inner loops of the
// DC and transient solves are allocation-free in steady state.
type solver struct {
	ckt *Circuit
	n   int

	jac        *linalg.Matrix
	cmat       *linalg.Matrix // dQ/dx, constant for linear capacitors
	ist        []float64
	q0, q1     []float64
	f          []float64
	dx         []float64 // Newton update, solved in place each iteration
	fixedCache []float64 // voltage of every node at current eval time

	// fixedHint and isrcHint carry the last breakpoint segment of every
	// fixed-node and current-source waveform lookup (waveform.AtHint);
	// evaluation times mostly advance, so a lookup is usually a
	// one-segment walk instead of a binary search.
	fixedHint []int
	isrcHint  []int

	// memo holds, per FET, its two-level bypass entry (see fetMemo).
	memo []fetMemo

	// fc reuses the Jacobian LU factorization across Newton iterations
	// and trapezoidal steps (see factorCache); fullNewton disables the
	// reuse, refactoring every iteration.
	fc         factorCache
	fullNewton bool

	// srcScale uniformly scales every prescribed voltage and injected
	// current. It is 1 except during source-stepping continuation, where
	// the rescue ladder ramps it from 0 to 1 to walk the DC solve to the
	// full-strength operating point.
	srcScale float64
}

func newSolver(c *Circuit) *solver {
	c.seal()
	n := c.numStates
	s := &solver{
		ckt:        c,
		n:          n,
		jac:        linalg.NewMatrix(n, n),
		cmat:       linalg.NewMatrix(n, n),
		ist:        make([]float64, n),
		q0:         make([]float64, n),
		q1:         make([]float64, n),
		f:          make([]float64, n),
		dx:         make([]float64, n),
		fixedCache: make([]float64, len(c.nodes)),
		fixedHint:  make([]int, len(c.nodes)),
		isrcHint:   make([]int, len(c.isrcs)),
		memo:       make([]fetMemo, len(c.fets)),
		fc:         newFactorCache(n),
		srcScale:   1,
	}
	// The capacitance matrix over unknown nodes is constant.
	for _, cp := range c.caps {
		sa, sb := s.stateOf(cp.a), s.stateOf(cp.b)
		if sa >= 0 {
			s.cmat.Add(sa, sa, cp.c)
		}
		if sb >= 0 {
			s.cmat.Add(sb, sb, cp.c)
		}
		if sa >= 0 && sb >= 0 {
			s.cmat.Add(sa, sb, -cp.c)
			s.cmat.Add(sb, sa, -cp.c)
		}
	}
	return s
}

// stateOf returns the state index of a ref, or -1 for ground/fixed nodes.
func (s *solver) stateOf(r Ref) int {
	if r == Ground {
		return -1
	}
	return s.ckt.nodes[r].state
}

// loadFixed caches the prescribed voltages at time t, scaled by the
// source-stepping ramp (srcScale is 1 outside continuation).
//
//lint:hot
func (s *solver) loadFixed(t float64) {
	for i := range s.ckt.nodes {
		if w := s.ckt.nodes[i].fixed; w != nil {
			s.fixedCache[i] = s.srcScale * w.AtHint(t, &s.fixedHint[i])
		}
	}
}

// volt returns the voltage of ref r given state x (loadFixed must have
// been called for the evaluation time).
func (s *solver) volt(r Ref, x []float64) float64 {
	if r == Ground {
		return 0
	}
	n := &s.ckt.nodes[r]
	if n.fixed != nil {
		return s.fixedCache[r]
	}
	return x[n.state]
}

// charge fills q with the capacitor charge at each unknown node for state
// x at the already-loaded fixed time.
//
//lint:hot
func (s *solver) charge(x []float64, q []float64) {
	for i := range q {
		q[i] = 0
	}
	for _, cp := range s.ckt.caps {
		va, vb := s.volt(cp.a, x), s.volt(cp.b, x)
		dq := cp.c * (va - vb)
		if sa := s.stateOf(cp.a); sa >= 0 {
			q[sa] += dq
		}
		if sb := s.stateOf(cp.b); sb >= 0 {
			q[sb] -= dq
		}
	}
}

// static fills ist with the net static current *leaving* each unknown
// node (resistors, FETs, minus injected sources) at time t with state x.
// When jac is non-nil it also accumulates d(ist)/dx into it; when it is
// nil the FETs are evaluated for their currents only.
//
//lint:hot
func (s *solver) static(x []float64, t float64, jac *linalg.Matrix) {
	for i := range s.ist {
		s.ist[i] = 0
	}
	if jac != nil {
		jac.Zero()
	}
	addJ := func(row, col int, v float64) {
		if row >= 0 && col >= 0 {
			jac.Add(row, col, v)
		}
	}
	for _, r := range s.ckt.res {
		va, vb := s.volt(r.a, x), s.volt(r.b, x)
		i := r.g * (va - vb)
		sa, sb := s.stateOf(r.a), s.stateOf(r.b)
		if sa >= 0 {
			s.ist[sa] += i
		}
		if sb >= 0 {
			s.ist[sb] -= i
		}
		if jac != nil {
			addJ(sa, sa, r.g)
			addJ(sb, sb, r.g)
			addJ(sa, sb, -r.g)
			addJ(sb, sa, -r.g)
		}
	}
	for k, src := range s.ckt.isrcs {
		if sa := s.stateOf(src.a); sa >= 0 {
			s.ist[sa] -= s.srcScale * src.w.AtHint(t, &s.isrcHint[k])
		}
	}
	derivs := jac != nil
	for k, f := range s.ckt.fets {
		vd, vg, vs := s.volt(f.d, x), s.volt(f.g, x), s.volt(f.s, x)
		// id is the current leaving the drain node; gm = d(id)/dVg and
		// gds = d(id)/dVd. For both polarities d(id)/dVs = -(gm+gds).
		var id, gm, gds float64
		m := &s.memo[k]
		if f.p.Type == device.NMOS {
			id, gm, gds = m.eval(f.p, f.w, vg-vs, vd-vs, derivs)
		} else {
			// PMOS conducts in the source-to-drain sense: evaluate with
			// (vsg, vsd) and flip the current. The chain rule flips the
			// inner derivatives too, so gm and gds come out unchanged:
			// d(-ip)/dVg = -gmp * d(vsg)/dVg = gmp, and likewise for gds.
			ip, gmp, gdsp := m.eval(f.p, f.w, vs-vg, vs-vd, derivs)
			id, gm, gds = -ip, gmp, gdsp
		}
		sd, sg, ss := s.stateOf(f.d), s.stateOf(f.g), s.stateOf(f.s)
		if sd >= 0 {
			s.ist[sd] += id
		}
		if ss >= 0 {
			s.ist[ss] -= id
		}
		if jac == nil {
			continue
		}
		addJ(sd, sd, gds)
		addJ(sd, sg, gm)
		addJ(sd, ss, -(gm + gds))
		addJ(ss, sd, -gds)
		addJ(ss, sg, -gm)
		addJ(ss, ss, gm+gds)
	}
}

// fetMemo is one FET's bypass entry, in two levels. The gate level
// keeps the vgs-only terms (device.Gate) computed at the bits of the
// last vgs; the bias level keeps the last vds, as bits, and the
// evaluator's results at (vgs, vds). This is SPICE's device bypass with
// zero tolerance: device.MOSParams.Gate and Finish are pure functions
// of their inputs, so replaying them for bit-identical inputs is exact.
// A FET whose gate and source sit on fixed nodes keeps its vgs bits
// while its drain moves, so it hits the gate level across the Newton
// iterations and the commit of a step, and across every step before
// and after the input edge.
type fetMemo struct {
	vgs, vds    uint64
	gate        device.Gate
	id, gm, gds float64
	// filled is set once the entry holds a result; derivs records
	// whether that result carries gm and gds.
	filled, derivs bool
}

// eval evaluates a device of params p and width w at device-sense bias
// (vgs, vds) through the entry. It replays the stored results when the
// bias bits match and the entry holds the derivatives or the caller
// does not need them; otherwise it reruns Finish, and Gate too unless
// the vgs bits match, and overwrites the entry. With derivs false only
// id is meaningful: a replay returns the stored gm and gds.
//
//lint:hot
func (m *fetMemo) eval(p *device.MOSParams, w, vgs, vds float64, derivs bool) (id, gm, gds float64) {
	bg, bd := math.Float64bits(vgs), math.Float64bits(vds)
	if m.filled && m.vgs == bg {
		if m.vds == bd && (m.derivs || !derivs) {
			return m.id, m.gm, m.gds
		}
	} else {
		m.gate = p.Gate(vgs)
		m.vgs, m.filled = bg, true
	}
	id, gm, gds = p.Finish(&m.gate, w, vds, derivs)
	m.vds, m.id, m.gm, m.gds, m.derivs = bd, id, gm, gds, derivs
	return id, gm, gds
}

// dcMaxIter is the damped-Newton iteration budget of one DC solve (one
// continuation rung counts as one solve).
const dcMaxIter = 400

// dcNewton runs damped Newton on the static system at time t, updating
// x in place. gmin adds an artificial conductance from every unknown
// node to ground — the gmin-stepping continuation aid; zero leaves only
// the 1e-12 regularization floor. loadFixed must already have been
// called for t at the current srcScale.
//
// DC always assembles and factors a fresh Jacobian per iteration —
// walking in from a cold start is exactly where a stale factorization
// sends damped Newton astray — but factors into the solver's reusable
// workspace, so the loop is allocation-free.
func (s *solver) dcNewton(ctx context.Context, t float64, x []float64, gmin float64, maxIter int) error {
	for iter := 0; iter < maxIter; iter++ {
		if iter%CtxCheckInterval == 0 {
			if err := canceled(ctx, t); err != nil {
				return err
			}
		}
		s.static(x, t, s.jac)
		// Regularize with a tiny conductance to ground on every node so
		// isolated capacitive nodes have a defined DC solution; the gmin
		// rung adds its artificial conductance to both the residual and
		// the Jacobian so the continuation problem stays consistent.
		for i := 0; i < s.n; i++ {
			s.ist[i] += gmin * x[i]
			s.jac.Add(i, i, gmin+1e-12)
		}
		if err := s.fc.refactor(s.jac, cacheDC, gmin); err != nil {
			return noiseerr.Numericalf("nlsim: DC Jacobian singular: %w", err)
		}
		s.fc.lu.SolveTo(s.dx, s.ist)
		worst := 0.0
		for i, d := range s.dx {
			if d > 0.4 {
				d = 0.4
			} else if d < -0.4 {
				d = -0.4
			}
			x[i] -= d
			if a := math.Abs(d); a > worst {
				worst = a
			}
		}
		if worst < 1e-9 {
			return nil
		}
	}
	return noiseerr.Convergencef("nlsim: DC did not converge in %d iterations", maxIter)
}

// DC solves the static operating point at time t by damped Newton
// iteration starting from x0 (or zeros when x0 is nil).
func DC(c *Circuit, t float64, x0 []float64) ([]float64, error) {
	return DCContext(context.Background(), c, t, x0)
}

// DCContext is DC with cancellation support: the Newton loop checks ctx
// every CtxCheckInterval iterations. When plain Newton fails to
// converge and ctx carries DC rescue aids (resilience.WithSolverRescue),
// the homotopy ladder in RescueDC is tried before giving up.
func DCContext(ctx context.Context, c *Circuit, t float64, x0 []float64) ([]float64, error) {
	s := newSolver(c)
	x := make([]float64, s.n)
	if x0 != nil {
		if len(x0) != s.n {
			return nil, noiseerr.Invalidf("nlsim: DC x0 has %d entries, want %d", len(x0), s.n)
		}
		copy(x, x0)
	}
	s.loadFixed(t)
	err := s.dcNewton(ctx, t, x, 0, dcMaxIter)
	if err == nil {
		return x, nil
	}
	if r, ok := resilience.SolverRescueFrom(ctx); ok && r.DCEnabled() && noiseerr.Class(err) == noiseerr.ErrConvergence {
		return RescueDC(ctx, c, t, x0, r)
	}
	return nil, err
}

// RunContext is Run with an explicit context, overriding Options.Ctx.
// The Newton loop checks ctx every CtxCheckInterval accepted or
// attempted steps.
func RunContext(ctx context.Context, c *Circuit, opt Options) (*Result, error) {
	opt.Ctx = ctx
	return Run(c, opt)
}

// Run integrates the circuit over [TStart, TStop], or up to the step
// at which Options.Stop ends it. Cancellation, when needed, comes from
// Options.Ctx (or use RunContext).
func Run(c *Circuit, opt Options) (*Result, error) {
	opt.defaults()
	if opt.Step <= 0 {
		return nil, noiseerr.Invalidf("nlsim: step must be positive, got %g", opt.Step)
	}
	if opt.TStop <= opt.TStart {
		return nil, noiseerr.Invalidf("nlsim: TStop %g must exceed TStart %g", opt.TStop, opt.TStart)
	}
	ctx := opt.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	// The context-carried rescue wins over Options.Rescue: a batch-level
	// retry must be able to arm the aids without the intermediate layers
	// copying them into every Options struct. When the rescue came in
	// through Options only, arm the context too so the DC solve below
	// (and any nested solve) sees the same configuration.
	rescue := opt.Rescue
	if r, ok := resilience.SolverRescueFrom(ctx); ok {
		rescue = r
	} else if rescue.Enabled() {
		ctx = resilience.WithSolverRescue(ctx, rescue)
	}
	halvings := rescue.StepHalvings
	if err := canceled(ctx, opt.TStart); err != nil {
		return nil, err
	}
	s := newSolver(c)
	s.fullNewton = opt.FullNewton
	n := s.n
	tr := &transient{
		s:    s,
		opt:  &opt,
		x:    make([]float64, n),
		xNew: make([]float64, n),
		ist0: make([]float64, n),
	}
	if opt.X0 != nil {
		if len(opt.X0) != n {
			return nil, noiseerr.Invalidf("nlsim: X0 has %d entries, want %d", len(opt.X0), n)
		}
		copy(tr.x, opt.X0)
	} else {
		// DC operating point on the same solver, so the transient loop
		// inherits a warm scratch arena (and, for linear circuits, a
		// still-useful factorization workspace).
		s.loadFixed(opt.TStart)
		err := s.dcNewton(ctx, opt.TStart, tr.x, 0, dcMaxIter)
		if err != nil {
			if r, ok := resilience.SolverRescueFrom(ctx); ok && r.DCEnabled() && noiseerr.Class(err) == noiseerr.ErrConvergence {
				dc, rerr := RescueDC(ctx, c, opt.TStart, nil, r)
				if rerr != nil {
					return nil, rerr
				}
				copy(tr.x, dc)
			} else {
				return nil, err
			}
		}
	}

	// Size the output series up front: at a fixed step the step count
	// is known exactly, so the appends in commit never reallocate and
	// steady-state stepping stays allocation-free. Only a rescue's step
	// halving outgrows it. A run that may stop early starts at a quarter
	// of that and grows.
	est := int((opt.TStop-opt.TStart)/opt.Step+1.5) + 1
	if opt.Stop != nil {
		est = est/4 + 1
	}
	tr.times = make([]float64, 0, est)
	tr.statesBuf = make([]float64, 0, est*n)
	tr.times = append(tr.times, opt.TStart)
	tr.statesBuf = append(tr.statesBuf, tr.x...)

	// Previous-step charge and static current.
	s.loadFixed(opt.TStart)
	s.charge(tr.x, s.q0)
	s.static(tr.x, opt.TStart, nil)
	copy(tr.ist0, s.ist)

	h := opt.Step
	t := opt.TStart
	attempts := 0
	for t < opt.TStop-1e-24 {
		attempts++
		if attempts%CtxCheckInterval == 0 {
			if err := canceled(ctx, t); err != nil {
				return nil, err
			}
		}
		if t+h > opt.TStop {
			h = opt.TStop - t
		}
		ok, err := tr.step(t+h, h)
		if err != nil {
			return nil, err
		}
		if !ok {
			// Rescue rung: allow a bounded number of halvings below the
			// configured step before declaring non-convergence. The
			// halved step lasts for the rest of the run.
			if halvings > 0 {
				halvings--
				h /= 2
				continue
			}
			return nil, noiseerr.Convergencef("nlsim: Newton did not converge at t=%g", t+h)
		}
		t += h
		tr.commit(t)
		if opt.Stop != nil && opt.Stop(t, tr.x) {
			break
		}
	}
	states := linalg.NewMatrix(len(tr.times), n)
	copy(states.Data, tr.statesBuf)
	return &Result{Times: tr.times, States: states, ckt: c}, nil
}

// transient is the trapezoidal time-stepping state of one Run: the
// current and trial state vectors, the previous-step static currents,
// and the growing output series. Its step method is the allocation-free
// inner loop of the nonlinear engine.
type transient struct {
	s    *solver
	opt  *Options
	x    []float64 // last committed state
	xNew []float64 // Newton trial state
	ist0 []float64 // static currents at the last committed state

	times     []float64
	statesBuf []float64
}

// step attempts one trapezoidal step of size h to time t; it returns
// whether it converged. In steady state
// it performs zero allocations: the residual, Jacobian, update, and
// factorization all live in the solver's scratch arena, and the
// factorization is reused across iterations and steps (modified
// Newton) while the damped update keeps contracting at an unchanged
// timestep. A step the cached iteration fails to converge is retried
// once with per-iteration refactoring — exactly the pre-cache engine —
// so the factor cache can only ever cost iterations, never a
// convergence failure the full-Newton engine would not also have had.
//
//lint:hot
func (tr *transient) step(t, h float64) (bool, error) {
	ok, err := tr.attempt(t, h, tr.s.fullNewton)
	if err != nil || ok || tr.s.fullNewton {
		return ok, err
	}
	tr.s.fc.invalidate()
	return tr.attempt(t, h, true)
}

// attempt is one Newton solve of the trapezoidal step; fullNewton
// forces a fresh Jacobian factorization on every iteration.
//
//lint:hot
func (tr *transient) attempt(t, h float64, fullNewton bool) (bool, error) {
	s, opt, n := tr.s, tr.opt, tr.s.n
	if h <= 0 {
		return false, noiseerr.Invalidf("nlsim: nonpositive step %g at t=%g", h, t)
	}
	s.loadFixed(t)
	copy(tr.xNew, tr.x) // previous solution as the Newton seed
	prevWorst := math.Inf(1)
	for iter := 1; iter <= opt.MaxNewton; iter++ {
		reuse := !fullNewton && s.fc.usable(cacheTransient, h)
		if reuse {
			s.static(tr.xNew, t, nil)
		} else {
			s.static(tr.xNew, t, s.jac)
		}
		s.charge(tr.xNew, s.q1)
		// F = (q1 - q0)/h + (ist1 + ist0)/2
		for i := 0; i < n; i++ {
			s.f[i] = (s.q1[i]-s.q0[i])/h + 0.5*(s.ist[i]+tr.ist0[i])
		}
		if !reuse {
			// J = C/h + J_static/2
			s.jac.Scale(0.5)
			s.jac.AXPY(1/h, s.cmat)
			if err := s.fc.refactor(s.jac, cacheTransient, h); err != nil {
				return false, noiseerr.Numericalf("nlsim: Newton Jacobian singular at t=%g: %w", t, err)
			}
		}
		s.fc.lu.SolveTo(s.dx, s.f)
		s.fc.age++
		worst := 0.0
		for i, d := range s.dx {
			if d > opt.Damp {
				d = opt.Damp
			} else if d < -opt.Damp {
				d = -opt.Damp
			}
			tr.xNew[i] -= d
			if a := math.Abs(d); a > worst {
				worst = a
			}
		}
		if worst < opt.VTol {
			// A fresh-Jacobian update below VTol implies a residual no
			// larger than ||J||∞·VTol, because F = J·dx exactly. A stale
			// factorization gives no such guarantee — its update can be
			// deceptively small at a state whose residual is still large
			// — so a reuse-converged iterate must pass the same residual
			// bound before the step commits. Rejection refactors and
			// keeps iterating rather than accepting a drifted state.
			if !reuse || vecInfNorm(s.f) <= s.fc.jacNorm*opt.VTol*residSafety {
				return true, nil
			}
			s.fc.invalidate()
			prevWorst = worst
			continue
		}
		if reuse && worst > staleContraction*prevWorst {
			s.fc.invalidate()
		}
		prevWorst = worst
	}
	return false, nil
}

// commit accepts the trial state as the solution at time t and records
// it.
func (tr *transient) commit(t float64) {
	s := tr.s
	copy(tr.x, tr.xNew)
	s.loadFixed(t)
	s.charge(tr.x, s.q0)
	s.static(tr.x, t, nil)
	copy(tr.ist0, s.ist)
	// For nonlinear circuits the Jacobian moves with the operating point,
	// so a factorization is only trusted within the step it was built for:
	// the next step's first iteration refactors at its own seed — exactly
	// the linearization full Newton would use — and reuse kicks in from
	// iteration two. Linear circuits have a constant trapezoidal Jacobian
	// at a fixed timestep, so their factorization carries across steps and
	// the reuse is exact.
	if len(s.ckt.fets) > 0 {
		s.fc.invalidate()
	}
	tr.times = append(tr.times, t)
	tr.statesBuf = append(tr.statesBuf, tr.x...)
}

// checkpointHook, when non-nil, is consulted at every solver
// cancellation checkpoint. It exists for deterministic fault injection
// (internal/faultinject): returning an error aborts the solve exactly
// where a fired context would, with no reliance on wall-clock timing.
var checkpointHook func(ctx context.Context, t float64) error

// SetCheckpointHook installs fn as the solver checkpoint hook and
// returns a function restoring the previous hook. Install before
// launching any solve and restore after every solve has finished; the
// hook itself may be called from many goroutines.
//
//lint:ignore noiselint/testonly fault-injection seam: the chaos tests of nlsim, clarinet and pathnoise install faultinject.SolverCheckpoint through it
func SetCheckpointHook(fn func(ctx context.Context, t float64) error) (restore func()) {
	prev := checkpointHook
	checkpointHook = fn
	return func() { checkpointHook = prev }
}

// canceled converts a fired context into a classified error and gives
// the fault-injection hook a deterministic seam at the same cadence.
func canceled(ctx context.Context, t float64) error {
	if ctx == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return noiseerr.Canceled(fmt.Errorf("nlsim: canceled at t=%g: %w", t, err))
	}
	if hook := checkpointHook; hook != nil {
		return hook(ctx, t)
	}
	return nil
}

// Voltage returns the waveform of the named node. Fixed nodes return
// their prescribed waveform sampled at the run's time points.
func (r *Result) Voltage(name string) (*waveform.PWL, error) {
	ref, ok := r.ckt.names[name]
	if !ok {
		return nil, noiseerr.Invalidf("nlsim: unknown node %q", name)
	}
	nd := &r.ckt.nodes[ref]
	v := make([]float64, len(r.Times))
	if nd.fixed != nil {
		for k, t := range r.Times {
			v[k] = nd.fixed.At(t)
		}
	} else {
		for k := range r.Times {
			v[k] = r.States.At(k, nd.state)
		}
	}
	return waveform.New(append([]float64(nil), r.Times...), v), nil
}
