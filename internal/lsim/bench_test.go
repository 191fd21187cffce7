package lsim_test

import (
	"fmt"
	"testing"

	"repro/internal/device"
	"repro/internal/lsim"
	"repro/internal/mna"
	"repro/internal/mor"
	"repro/internal/workload"
)

// benchCase is one kernel-benchmark system: a workload victim-switching
// circuit (under 32 states, the dense LU) or the 123-state coupled bus
// (the banded Cholesky), with the factor linalg.Factor must give it.
type benchCase struct {
	name   string
	sys    *mna.System
	opt    lsim.Options
	factor string
}

func benchCases(b *testing.B) []benchCase {
	lib := device.NewLibrary(device.Default180())
	victim, victimOpt := victimRun(b, lib, workload.DefaultProfile(), false)
	bus, err := mna.Build(lsim.CoupledBus(3, 40))
	if err != nil {
		b.Fatal(err)
	}
	cases := []benchCase{
		{"dense", victim, victimOpt, "*linalg.CompactLU"},
		{"banded", bus, lsim.Options{TStop: 2e-9, Step: 2e-12, InitDC: true}, "*linalg.BandedChol"},
	}
	for _, bc := range cases {
		f, err := lsim.PreparedFactor(bc.sys, bc.opt)
		if err != nil {
			b.Fatal(err)
		}
		if got := fmt.Sprintf("%T", f); got != bc.factor {
			b.Fatalf("%s: factored as %s, want %s", bc.name, got, bc.factor)
		}
	}
	return cases
}

// BenchmarkRun is the kernel benchmark under noisebench's
// ladder.lsim_run_us rung: one full transient run on each factor kind.
func BenchmarkRun(b *testing.B) {
	for _, bc := range benchCases(b) {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := lsim.Run(bc.sys, bc.opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReduce is the kernel benchmark under noisebench's
// ladder.mor_reduce_us rung: one order-8 PRIMA reduction of each
// system.
func BenchmarkReduce(b *testing.B) {
	for _, bc := range benchCases(b) {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := mor.Reduce(bc.sys, 8); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
