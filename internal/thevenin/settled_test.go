package thevenin_test

import (
	"context"
	"math"
	"testing"

	"repro/internal/ceff"
	"repro/internal/delaynoise"
	"repro/internal/device"
	"repro/internal/gatesim"
	"repro/internal/thevenin"
	"repro/internal/workload"
)

// TestFitMatchesFullDrive pins the settled-tail stop under FitContext:
// for the victim and aggressor drivers of the first three default, bus
// and long-route nets, at their C-effective load, at their total load and
// at a quarter of the C-effective one, the fitted Model equals the fit
// of the full DriveWithHorizon output bit for bit (errors included),
// and DriveSettled ends its horizon search with the full search's
// Horizon and Settled.
func TestFitMatchesFullDrive(t *testing.T) {
	ctx := context.Background()
	lib := device.NewLibrary(device.Default180())
	stopped, drives := 0, 0
	for _, p := range []workload.Profile{workload.DefaultProfile(), workload.BusProfile(), workload.LongRouteProfile()} {
		gen := workload.NewGenerator(lib, p, 20010618)
		for i := 0; i < 3; i++ {
			c, err := gen.Next(i)
			if err != nil {
				t.Fatal(err)
			}
			loads, err := delaynoise.DriverLoads(ctx, c, delaynoise.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, dl := range loads {
				cell, slew := dl.Spec.Cell, dl.Spec.InputSlew
				rising := cell.InputRisingFor(dl.Spec.OutputRising)
				ce, err := ceff.ComputeContext(ctx, cell, slew, rising, dl.Net, dl.Node)
				if err != nil {
					t.Fatal(err)
				}
				for _, load := range []float64{ce.Ceff, ce.CTotal, ce.Ceff / 4} {
					full, fullErr := gatesim.DriveWithHorizon(cell, slew, rising, load, nil, gatesim.Options{})
					fast, fastErr := gatesim.DriveSettled(cell, slew, rising, load, gatesim.Options{})
					if (fullErr != nil) != (fastErr != nil) {
						t.Fatalf("%s slew %g load %g: drive errors differ: full %v, settled %v", cell.Name, slew, load, fullErr, fastErr)
					}
					if fullErr != nil {
						continue
					}
					drives++
					if math.Float64bits(full.Horizon) != math.Float64bits(fast.Horizon) || full.Settled != fast.Settled {
						t.Errorf("%s slew %g load %g: settled search ended at (%g, %v), full search at (%g, %v)",
							cell.Name, slew, load, fast.Horizon, fast.Settled, full.Horizon, full.Settled)
					}
					if fast.Out.End() < 0.9*fast.Horizon {
						stopped++
					}
					want, wantErr := thevenin.FitWaveform(full.Out, lib.Tech.Vdd, load, cell.OutputRisingFor(rising))
					got, _, gotErr := thevenin.FitContext(ctx, cell, slew, rising, load)
					if (gotErr != nil) != (wantErr != nil) || gotErr == nil && !sameModel(got, want) {
						t.Errorf("%s slew %g load %g: FitContext (%+v, %v), full drive fit (%+v, %v)",
							cell.Name, slew, load, got, gotErr, want, wantErr)
					}
				}
			}
		}
	}
	t.Logf("%d of %d drives stopped at a settled tail", stopped, drives)
	if stopped == 0 {
		t.Error("no drive was stopped at a settled tail")
	}
}

func sameModel(a, b thevenin.Model) bool {
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return same(a.T0, b.T0) && same(a.Dt, b.Dt) && same(a.Rth, b.Rth) && same(a.Vdd, b.Vdd) && a.Rising == b.Rising
}
