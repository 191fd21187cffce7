package lsim

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/linalg"
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

// denseFactor is the compacted dense LU of the trapezoidal matrix
// A = C/h + G/2, the factor linalg.Factor gives systems under 32 states.
func denseFactor(t testing.TB, sys *mna.System, h float64) linalg.Solver {
	t.Helper()
	a := sys.C.Clone().Scale(1 / h)
	a.AXPY(0.5, sys.G)
	lu, err := linalg.FactorLU(a)
	if err != nil {
		t.Fatal(err)
	}
	return lu.Compact()
}

// denseRun is Run with the prepared stepper's factor swapped for the
// dense LU: the reference a banded run is held to. No option selects
// it; only this package can.
func denseRun(t testing.TB, sys *mna.System, opt Options) *Result {
	t.Helper()
	s, err := prepare(sys, opt, false)
	if err != nil {
		t.Fatal(err)
	}
	s.f = denseFactor(t, sys, opt.Step)
	if err := s.run(nil, never); err != nil {
		t.Fatal(err)
	}
	return &Result{Times: s.times, States: &linalg.Matrix{Rows: len(s.times), Cols: s.n, Data: s.data}, sys: sys}
}

// maxStateDiff returns the largest difference between two runs over
// every state of every row.
func maxStateDiff(t *testing.T, a, b *Result) float64 {
	t.Helper()
	if len(a.States.Data) != len(b.States.Data) {
		t.Fatalf("runs have %d and %d state values", len(a.States.Data), len(b.States.Data))
	}
	max := 0.0
	for i, v := range a.States.Data {
		max = math.Max(max, math.Abs(v-b.States.Data[i]))
	}
	return max
}

// TestGoldenSolverEquivalence holds the coupled bus, which the
// factorization rule steps on the banded Cholesky, to a dense-LU run of
// the same system: every state of every row within 1e-9 V. The two
// direct solves differ only in rounding.
func TestGoldenSolverEquivalence(t *testing.T) {
	sys, err := mna.Build(coupledBus(3, 40))
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{TStop: 2e-9, Step: 2e-12, InitDC: true}
	res, err := Run(sys, opt)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxStateDiff(t, res, denseRun(t, sys, opt)); d > 1e-9 {
		t.Fatalf("banded run diverges from the dense reference: max |Δ| = %v", d)
	}
}

// TestAutoSelection pins the factorization rule as the stepper meets
// it: small systems step on the compacted dense LU, the large
// narrow-banded coupled bus on the banded Cholesky.
func TestAutoSelection(t *testing.T) {
	small, err := mna.Build(rcCircuit(1000, 1e-12, waveform.Ramp(0, 1e-11, 0, 1)))
	if err != nil {
		t.Fatal(err)
	}
	s, err := prepare(small, Options{TStop: 1e-9, Step: 1e-12}, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.f.(*linalg.CompactLU); !ok {
		t.Fatalf("small net factored as %T, want the dense LU", s.f)
	}

	large, err := mna.Build(coupledBus(3, 40))
	if err != nil {
		t.Fatal(err)
	}
	s, err = prepare(large, Options{TStop: 1e-9, Step: 2e-12}, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.f.(*linalg.BandedChol); !ok {
		t.Fatalf("coupled bus factored as %T, want the banded Cholesky", s.f)
	}
}

// TestStepperZeroAlloc asserts the inner time-stepping loop is
// allocation-free once prepared, on both factor kinds: the scratch
// arena and the factor own every per-step vector.
func TestStepperZeroAlloc(t *testing.T) {
	sys, err := mna.Build(coupledBus(3, 40))
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{TStop: 2e-9, Step: 2e-12}
	for _, dense := range []bool{false, true} {
		s, err := prepare(sys, opt, false)
		if err != nil {
			t.Fatal(err)
		}
		if dense {
			s.f = denseFactor(t, sys, opt.Step)
		}
		k := 1
		stepOnce := func() {
			s.step(k)
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
			t.Fatalf("%T: steady-state step allocates %.1f objects/op, want 0", s.f, allocs)
		}
	}
}
