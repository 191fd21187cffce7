package nlsim

import (
	"context"
	"math"
	"testing"

	"repro/internal/device"
	"repro/internal/waveform"
)

// gateFixture builds a driven library cell with a grounded load — the
// canonical nonlinear transient the factor cache must not perturb.
func gateFixture(t *testing.T, cellName string) *Circuit {
	t.Helper()
	lib := device.NewLibrary(tech)
	cell, err := lib.Cell(cellName)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCircuit()
	in := c.Fixed("in", waveform.Ramp(1e-10, 1.5e-10, 0, 1.8))
	out := c.Node("out")
	c.AddCell(cell, "u1", in, out)
	c.AddC(out, Ground, 15e-15)
	return c
}

// TestFactorCacheMatchesFullNewton is the golden-equivalence pin of the
// modified-Newton engine: the cached default must reproduce the
// FullNewton reference trajectory. Both modes accept a step only when
// the damped update is below VTol and the residual matches a
// fresh-Jacobian bound, so the committed states may differ only at the
// tolerance floor.
func TestFactorCacheMatchesFullNewton(t *testing.T) {
	for _, cellName := range []string{"INVX2", "NAND2X1", "BUFX4"} {
		opt := Options{TStop: 3e-9, Step: 2e-12}
		ref, err := Run(gateFixture(t, cellName), Options{TStop: opt.TStop, Step: opt.Step, FullNewton: true})
		if err != nil {
			t.Fatalf("%s full Newton: %v", cellName, err)
		}
		got, err := Run(gateFixture(t, cellName), opt)
		if err != nil {
			t.Fatalf("%s cached: %v", cellName, err)
		}
		vr, _ := ref.Voltage("out")
		vg, _ := got.Voltage("out")
		for _, tt := range []float64{1e-10, 2e-10, 3e-10, 5e-10, 1e-9, 2.5e-9} {
			if d := math.Abs(vr.At(tt) - vg.At(tt)); d > 1e-4 {
				t.Fatalf("%s: cached trajectory diverges from full Newton at t=%v: |Δ|=%v", cellName, tt, d)
			}
		}
	}
}

// TestFactorCacheExactOnLinearCircuits pins the strongest reuse claim:
// with no FETs the trapezoidal Jacobian is constant at a fixed
// timestep, a refactor reproduces the identical factorization, and the
// cached run must match full Newton bit-for-bit.
func TestFactorCacheExactOnLinearCircuits(t *testing.T) {
	build := func() *Circuit {
		c := NewCircuit()
		src := c.Fixed("src", waveform.Ramp(1e-10, 1e-10, 0, 1.8))
		a := c.Node("a")
		v := c.Node("v")
		c.AddR(src, a, 300)
		c.AddC(a, Ground, 10e-15)
		c.AddC(a, v, 8e-15)
		c.AddR(v, Ground, 900)
		c.AddC(v, Ground, 12e-15)
		return c
	}
	opt := Options{TStop: 2e-9, Step: 1e-12}
	ref, err := Run(build(), Options{TStop: opt.TStop, Step: opt.Step, FullNewton: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(build(), opt)
	if err != nil {
		t.Fatal(err)
	}
	for k := range ref.States.Data {
		if d := math.Abs(ref.States.Data[k] - got.States.Data[k]); d > 0 {
			t.Fatalf("linear cached run differs from full Newton at flat index %d: |Δ|=%v", k, d)
		}
	}
}

// TestTransientStepZeroAlloc asserts the steady-state transient inner
// loop — Newton solve, factorization reuse, and commit — performs zero
// allocations: everything lives in the solver's scratch arena and the
// presized output series. NAND2X1 adds a series stack with an internal
// node, so the per-FET bypass entries and the waveform hints are
// exercised on more than one FET per rail.
func TestTransientStepZeroAlloc(t *testing.T) {
	for _, cellName := range []string{"INVX2", "NAND2X1"} {
		t.Run(cellName, func(t *testing.T) {
			c := gateFixture(t, cellName)
			opt := Options{TStop: 2e-9, Step: 1e-12}
			opt.defaults()
			s := newSolver(c)
			tr := &transient{
				s:    s,
				opt:  &opt,
				x:    make([]float64, s.n),
				xNew: make([]float64, s.n),
				ist0: make([]float64, s.n),
			}
			s.loadFixed(0)
			if err := s.dcNewton(context.Background(), 0, tr.x, 0, dcMaxIter); err != nil {
				t.Fatal(err)
			}
			const room = 4096
			tr.times = make([]float64, 0, room)
			tr.statesBuf = make([]float64, 0, room*s.n)
			tr.times = append(tr.times, 0)
			tr.statesBuf = append(tr.statesBuf, tr.x...)
			s.charge(tr.x, s.q0)
			s.static(tr.x, 0, nil)
			copy(tr.ist0, s.ist)

			h := opt.Step
			now := 0.0
			stepOnce := func() {
				now += h
				ok, err := tr.step(now, h)
				if err != nil || !ok {
					t.Fatalf("step to t=%v: ok=%v err=%v", now, ok, err)
				}
				tr.commit(now)
			}
			for i := 0; i < 8; i++ {
				stepOnce() // warm the arena before counting
			}
			if allocs := testing.AllocsPerRun(200, stepOnce); allocs > 0 {
				t.Fatalf("steady-state transient step allocates %.1f objects/op, want 0", allocs)
			}
		})
	}
}
