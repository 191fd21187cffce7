package nlsim

import (
	"math"
	"testing"
)

// TestStopKeepsFirstRows pins the Stop hook: a run stopped at a step
// holds exactly the full run's rows up to and including that step, bit
// for bit, the hook sees each committed step once with the state it
// committed, and a hook that never fires leaves the run full. BUFX4
// covers a state vector with an internal node.
func TestStopKeepsFirstRows(t *testing.T) {
	for _, tc := range []struct {
		cell string
		opt  Options
	}{
		{"INVX2", Options{TStop: 3e-9, Step: 2e-12}},
		{"BUFX4", Options{TStop: 3e-9, Step: 2e-12}},
	} {
		full, err := Run(gateFixture(t, tc.cell), tc.opt)
		if err != nil {
			t.Fatal(err)
		}
		n := full.States.Cols
		for _, stopAt := range []int{1, len(full.Times) / 3, len(full.Times)} {
			opt := tc.opt
			calls := 0
			opt.Stop = func(tt float64, x []float64) bool {
				calls++
				if tt != full.Times[calls] || !sameRow(x, full.States.Data[calls*n:(calls+1)*n]) {
					t.Errorf("%s: hook call %d sees t=%g and a state that is not row %d", tc.cell, calls, tt, calls)
				}
				return calls == stopAt
			}
			got, err := Run(gateFixture(t, tc.cell), opt)
			if err != nil {
				t.Fatal(err)
			}
			want := min(stopAt+1, len(full.Times))
			if len(got.Times) != want || !sameRow(got.Times, full.Times[:want]) || !sameRow(got.States.Data, full.States.Data[:want*n]) {
				t.Errorf("%s stop at step %d: %d rows, want the full run's first %d", tc.cell, stopAt, len(got.Times), want)
			}
		}
	}
}

func sameRow(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
