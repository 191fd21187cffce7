package lsim

// CoupledBus exposes the coupled-bus fixture to the external test
// package.
var CoupledBus = coupledBus
