package align_test

import (
	"testing"

	"repro/internal/align"
	"repro/internal/delaynoise"
	"repro/internal/device"
	"repro/internal/workload"
)

// BenchmarkExhaustiveWorst is the kernel benchmark under noisebench's
// ladder.exhaustive_align_us: the exhaustive worst-case search of a
// workload net's receiver at grid 21 (the analysis default), over the
// net's noiseless receiver input and composite noise pulse, 29 receiver
// simulations per search.
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
	o := align.Objective{Receiver: c.Receiver, Load: c.ReceiverLoad, VictimRising: c.Victim.OutputRising}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := o.ExhaustiveWorst(r.NoiselessRecvIn, r.Composite, 21); err != nil {
			b.Fatal(err)
		}
	}
}
