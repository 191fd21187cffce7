package holdres_test

import (
	"context"
	"testing"

	"repro/internal/ceff"
	"repro/internal/delaynoise"
	"repro/internal/device"
	"repro/internal/holdres"
	"repro/internal/waveform"
	"repro/internal/workload"
)

// BenchmarkFromNoiseless is the kernel benchmark under noisebench's
// ladder.holdres_us: the transient holding resistance of a workload
// victim driver at its C-effective, given its noiseless run as the
// analysis's drive cache supplies it. The noise is a triangular pulse
// against the output transition, peaking at the noiseless 50% crossing.
func BenchmarkFromNoiseless(b *testing.B) {
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
	cell, slew := v.Spec.Cell, v.Spec.InputSlew
	rising := cell.InputRisingFor(v.Spec.OutputRising)
	ce, err := ceff.ComputeContext(ctx, cell, slew, rising, v.Net, v.Node, ceff.Options{})
	if err != nil {
		b.Fatal(err)
	}
	first, err := holdres.Noiseless(ctx, cell, slew, rising, ce.Ceff)
	if err != nil {
		b.Fatal(err)
	}
	vdd := cell.Tech.Vdd
	cross, peak := first.Out.CrossFalling, 0.25*vdd
	if v.Spec.OutputRising {
		cross, peak = first.Out.CrossRising, -0.25*vdd
	}
	t50, err := cross(vdd / 2)
	if err != nil {
		b.Fatal(err)
	}
	vn := waveform.New([]float64{0, t50 - 150e-12, t50, t50 + 300e-12, t50 + 600e-12}, []float64{0, 0, peak, 0, 0})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := holdres.FromNoiseless(ctx, cell, slew, rising, ce.Ceff, ce.Model.Rth, vn, first); err != nil {
			b.Fatal(err)
		}
	}
}
