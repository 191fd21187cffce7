package lsim

import (
	"repro/internal/linalg"
	"repro/internal/mna"
)

// CoupledBus exposes the coupled-bus fixture to the external test
// package.
var CoupledBus = coupledBus

// PreparedFactor returns the factor a run of sys under opt steps with.
func PreparedFactor(sys *mna.System, opt Options) (linalg.Solver, error) {
	s, err := prepare(sys, opt, false)
	if err != nil {
		return nil, err
	}
	return s.f, nil
}
