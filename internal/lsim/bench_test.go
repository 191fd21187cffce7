package lsim_test

import (
	"fmt"
	"testing"

	"repro/internal/device"
	"repro/internal/lsim"
	"repro/internal/mna"
	"repro/internal/mor"
	"repro/internal/waveform"
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

// BenchmarkGroup is the superposition kernel of one fixpoint
// iteration: three input sets on the bus victim system, the victim's
// transition and two aggressor-like ramps with the other drivers quiet,
// stepped as one group recording the two nodes the analysis reads,
// against three Runs of the same sets.
func BenchmarkGroup(b *testing.B) {
	lib := device.NewLibrary(device.Default180())
	sys, opt := victimRun(b, lib, workload.BusProfile(), false)
	if sys.NumInputs() < 3 {
		b.Fatalf("bus victim system has %d inputs, want at least 3", sys.NumInputs())
	}
	quiet := make([]*waveform.PWL, sys.NumInputs())
	for c, w := range sys.Inputs {
		quiet[c] = waveform.Constant(w.At(0))
	}
	sets := [][]*waveform.PWL{sys.Inputs}
	for c := 1; c <= 2; c++ {
		set := append([]*waveform.PWL(nil), quiet...)
		v0 := quiet[c].At(0)
		set[c] = waveform.Ramp(3e-10, 1e-10, v0, 1.8-v0)
		sets = append(sets, set)
	}
	nodes := []string{sys.Nodes[0], sys.Nodes[len(sys.Nodes)-1]}
	b.Run("group", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := lsim.RunGroup(sys, sets, nodes, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
	runs := make([]*mna.System, len(sets))
	for j, set := range sets {
		var err error
		if runs[j], err = mna.NewSystem(sys.G, sys.C, sys.B, set, sys.Nodes); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("runs", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, one := range runs {
				if _, err := lsim.Run(one, opt); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
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
