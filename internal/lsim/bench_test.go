package lsim_test

import (
	"testing"

	"repro/internal/device"
	"repro/internal/lsim"
	"repro/internal/mna"
	"repro/internal/workload"
)

// BenchmarkRun is the kernel benchmark under noisebench's
// ladder.lsim_run_us rung: one full transient run on the dense path (a
// workload victim-switching circuit, under 32 states) and on the banded
// path (the 123-state coupled bus).
func BenchmarkRun(b *testing.B) {
	lib := device.NewLibrary(device.Default180())
	victim, victimOpt := victimRun(b, lib, workload.DefaultProfile(), false)
	bus, err := mna.Build(lsim.CoupledBus(3, 40))
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name   string
		sys    *mna.System
		opt    lsim.Options
		solver lsim.Solver
	}{
		{"dense", victim, victimOpt, lsim.SolverDense},
		{"banded", bus, lsim.Options{TStop: 2e-9, Step: 2e-12, InitDC: true}, lsim.SolverBanded},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := lsim.Run(bc.sys, bc.opt)
				if err != nil {
					b.Fatal(err)
				}
				if res.Chosen != bc.solver {
					b.Fatalf("ran %v, want %v", res.Chosen, bc.solver)
				}
			}
		})
	}
}
