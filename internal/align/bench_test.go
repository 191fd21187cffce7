package align_test

import (
	"math"
	"testing"

	"repro/internal/align"
	"repro/internal/delaynoise"
	"repro/internal/device"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// BenchmarkExhaustiveWorst is the kernel benchmark under noisebench's
// ladder.exhaustive_align_us: the exhaustive worst-case search of a
// workload net's receiver at grid 21 (the analysis default), over the
// net's noiseless receiver input and composite noise pulse. It reports
// the search's receiver simulations as sims/op.
func BenchmarkExhaustiveWorst(b *testing.B) {
	lib := device.NewLibrary(device.Default180())
	c, err := workload.NewGenerator(lib, workload.DefaultProfile(), 20010618).Next(0)
	if err != nil {
		b.Fatal(err)
	}
	r, err := delaynoise.Analyze(c, delaynoise.Options{Align: delaynoise.AlignReceiverInput})
	if err != nil {
		b.Fatal(err)
	}
	var sims metrics.Counter
	o := align.Objective{Receiver: c.Receiver, Load: c.ReceiverLoad, VictimRising: c.Victim.OutputRising, Sims: &sims}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := o.ExhaustiveWorst(r.NoiselessRecvIn, r.Composite, 21); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(sims.Value())/float64(b.N), "sims/op")
}

// BenchmarkPredictPeakTime is the kernel benchmark under noisebench's
// ladder.prechar_predict_us: the 8-point table's peak-time prediction
// for the same workload net, from the receiver's table under the
// default corners (built once, outside the timer).
func BenchmarkPredictPeakTime(b *testing.B) {
	lib := device.NewLibrary(device.Default180())
	c, err := workload.NewGenerator(lib, workload.DefaultProfile(), 20010618).Next(0)
	if err != nil {
		b.Fatal(err)
	}
	r, err := delaynoise.Analyze(c, delaynoise.Options{Align: delaynoise.AlignReceiverInput})
	if err != nil {
		b.Fatal(err)
	}
	tab, err := align.Precharacterize(c.Receiver, c.Victim.OutputRising, align.DefaultConfig(lib.Tech))
	if err != nil {
		b.Fatal(err)
	}
	edge, err := align.EdgeRate(r.NoiselessRecvIn, lib.Tech.Vdd, c.Victim.OutputRising)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tab.PredictPeakTime(r.NoiselessRecvIn, edge, r.Pulse.Width, math.Abs(r.Pulse.Height), c.ReceiverLoad); err != nil {
			b.Fatal(err)
		}
	}
}
