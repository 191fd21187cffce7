package lsim

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/mna"
	"repro/internal/netlist"
	"repro/internal/waveform"
)

// coupledBus builds `lines` parallel RC lines of `segs` segments each,
// with neighbor coupling caps — the large-n, narrow-band fixture the
// banded path is designed for. Even lines carry a falling aggressor
// ramp, odd lines are quiet victims on holding resistors.
func coupledBus(lines, segs int) *netlist.Circuit {
	ckt := netlist.NewCircuit()
	name := func(l, i int) string { return fmt.Sprintf("n%d_%d", l, i) }
	for l := 0; l < lines; l++ {
		w := waveform.Constant(0)
		if l%2 == 0 {
			w = waveform.Ramp(2e-10, 1e-10, 1.8, 0)
		}
		ckt.AddDriver(fmt.Sprintf("d%d", l), name(l, 0), w, 200+float64(60*l))
		for i := 1; i <= segs; i++ {
			ckt.AddR(fmt.Sprintf("r%d_%d", l, i), name(l, i-1), name(l, i), 25)
			ckt.AddC(fmt.Sprintf("c%d_%d", l, i), name(l, i), "0", 2e-15)
			if l > 0 {
				ckt.AddC(fmt.Sprintf("cc%d_%d", l, i), name(l, i), name(l-1, i), 1.2e-15)
			}
		}
	}
	return ckt
}

// TestGoldenSolverEquivalence pins every stepping backend to the
// dense-LU reference on the coupled-bus fixture: banded, CG, and the
// auto selection must all reproduce the reference waveform within the
// engine's own tolerance regime.
func TestGoldenSolverEquivalence(t *testing.T) {
	sys, err := mna.Build(coupledBus(3, 40))
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{TStop: 2e-9, Step: 2e-12, InitDC: true}
	opt.Solver = SolverDense
	ref, err := Run(sys, opt)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Chosen != SolverDense {
		t.Fatalf("reference ran with %v, want dense", ref.Chosen)
	}
	vRef, _ := ref.Voltage("n1_40")
	probes := []float64{2e-10, 4e-10, 7e-10, 1.2e-9, 1.9e-9}
	for _, tc := range []struct {
		solver Solver
		tol    float64
	}{
		{SolverBanded, 1e-9}, // direct solve: same arithmetic up to reordering
		{SolverCG, 1e-6},     // iterative: bounded by the CG tolerance
		{SolverAuto, 1e-9},   // must resolve to a direct path on this fixture
	} {
		opt.Solver = tc.solver
		res, err := Run(sys, opt)
		if err != nil {
			t.Fatalf("%v: %v", tc.solver, err)
		}
		v, _ := res.Voltage("n1_40")
		for _, tt := range probes {
			if d := math.Abs(v.At(tt) - vRef.At(tt)); d > tc.tol {
				t.Fatalf("%v diverges from dense reference at t=%v: |Δ|=%v", tc.solver, tt, d)
			}
		}
	}
}

// TestAutoSelection pins the solver-selection heuristic: small systems
// stay dense, large narrow-banded systems go banded.
func TestAutoSelection(t *testing.T) {
	small, err := mna.Build(rcCircuit(1000, 1e-12, waveform.Ramp(0, 1e-11, 0, 1)))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(small, Options{TStop: 1e-9, Step: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if res.Chosen != SolverDense {
		t.Fatalf("small net chose %v, want dense", res.Chosen)
	}

	large, err := mna.Build(coupledBus(3, 40))
	if err != nil {
		t.Fatal(err)
	}
	res, err = Run(large, Options{TStop: 1e-9, Step: 2e-12})
	if err != nil {
		t.Fatal(err)
	}
	if res.Chosen != SolverBanded {
		t.Fatalf("coupled bus chose %v, want banded", res.Chosen)
	}
}

// TestStepperZeroAlloc asserts the inner time-stepping loop of every
// backend is allocation-free once prepared: the scratch arena owns all
// per-step vectors.
func TestStepperZeroAlloc(t *testing.T) {
	sys, err := mna.Build(coupledBus(3, 40))
	if err != nil {
		t.Fatal(err)
	}
	for _, solver := range []Solver{SolverDense, SolverBanded, SolverCG} {
		s, err := prepare(sys, Options{TStop: 2e-9, Step: 2e-12, Solver: solver}, false)
		if err != nil {
			t.Fatalf("%v: %v", solver, err)
		}
		if s.solver != solver {
			t.Fatalf("prepared %v, want %v", s.solver, solver)
		}
		k := 1
		stepOnce := func() {
			if err := s.step(k); err != nil {
				t.Fatalf("%v: step %d: %v", solver, k, err)
			}
			k++
			if k > s.steps {
				k = 1
				s.times, s.data = s.times[:1], s.data[:s.n]
			}
		}
		for i := 0; i < 8; i++ {
			stepOnce() // warm any lazily-touched state before counting
		}
		if allocs := testing.AllocsPerRun(200, stepOnce); allocs > 0 {
			t.Fatalf("%v: steady-state step allocates %.1f objects/op, want 0", solver, allocs)
		}
	}
}
