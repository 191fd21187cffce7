package thevenin_test

import (
	"context"
	"testing"

	"repro/internal/ceff"
	"repro/internal/delaynoise"
	"repro/internal/device"
	"repro/internal/thevenin"
	"repro/internal/workload"
)

// BenchmarkFit is the kernel benchmark under noisebench's
// ladder.thevenin_fit_us: the Thevenin fit of a workload victim driver
// at its C-effective, one nonlinear driver simulation and the ramp-RC
// match.
func BenchmarkFit(b *testing.B) {
	ctx := context.Background()
	lib := device.NewLibrary(device.Default180())
	c, err := workload.NewGenerator(lib, workload.DefaultProfile(), 20010618).Next(0)
	if err != nil {
		b.Fatal(err)
	}
	loads, err := delaynoise.DriverLoads(ctx, c, delaynoise.Options{})
	if err != nil {
		b.Fatal(err)
	}
	v := loads[0]
	rising := v.Spec.Cell.InputRisingFor(v.Spec.OutputRising)
	ce, err := ceff.ComputeContext(ctx, v.Spec.Cell, v.Spec.InputSlew, rising, v.Net, v.Node, ceff.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := thevenin.FitContext(ctx, v.Spec.Cell, v.Spec.InputSlew, rising, ce.Ceff); err != nil {
			b.Fatal(err)
		}
	}
}
