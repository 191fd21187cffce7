package ceff_test

import (
	"context"
	"testing"

	"repro/internal/ceff"
	"repro/internal/delaynoise"
	"repro/internal/device"
	"repro/internal/workload"
)

// BenchmarkCompute is the kernel benchmark under noisebench's
// delaynoise.characterize_ms: the C-effective characterization of a
// workload victim driver, against its net held the way the analysis
// holds it.
func BenchmarkCompute(b *testing.B) {
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
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ceff.ComputeContext(ctx, v.Spec.Cell, v.Spec.InputSlew, rising, v.Net, v.Node); err != nil {
			b.Fatal(err)
		}
	}
}
