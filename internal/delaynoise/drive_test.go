package delaynoise

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/gatesim"
	"repro/internal/holdres"
	"repro/internal/waveform"
)

func samePWL(a, b *waveform.PWL) bool {
	if len(a.T) != len(b.T) || len(a.V) != len(b.V) {
		return false
	}
	for i := range a.T {
		if math.Float64bits(a.T[i]) != math.Float64bits(b.T[i]) || math.Float64bits(a.V[i]) != math.Float64bits(b.V[i]) {
			return false
		}
	}
	return true
}

func sameHoldRes(a, b *holdres.Result) bool {
	bits := math.Float64bits
	return bits(a.Rtr) == bits(b.Rtr) && bits(a.Rth) == bits(b.Rth) &&
		bits(a.AreaVn) == bits(b.AreaVn) && bits(a.AreaIn) == bits(b.AreaIn) &&
		samePWL(a.In, b.In) && samePWL(a.Noiseless, b.Noiseless) &&
		samePWL(a.Noisy, b.Noisy) && samePWL(a.NoiseNL, b.NoiseNL)
}

// driverNoise is the linear superposition noise the test case's
// aggressor injects at the victim driver output, in the holdres
// characterization time frame.
func driverNoise(t *testing.T) *waveform.PWL {
	t.Helper()
	c := testCase(t)
	e, err := newEngine(context.Background(), c, Options{}, false)
	if err != nil {
		t.Fatal(err)
	}
	_, dn, err := e.aggressorNoises(e.victim.model.Rth)
	if err != nil {
		t.Fatal(err)
	}
	return dn[0].Shift(gatesim.InputStart - c.Victim.InputStart)
}

// TestHoldResSharedNoiselessBitIdentical runs holdres's reuse sweep —
// three victim operating points, each under a short pulse, the linear
// superposition noise of the test case and a pulse that outlasts the
// noiseless run — through one holdDrive per operating point, as an
// analysis derives its victim's Rtr iterations. Each result must equal
// the uncached holdres.ComputeContext bit for bit, each operating
// point's noiseless run must be simulated once, and where it is reused
// the result's Noiseless waveform must be that run's.
func TestHoldResSharedNoiselessBitIdentical(t *testing.T) {
	ctx := context.Background()
	lin := driverNoise(t)
	const rth = 2000.0
	fits, outlasts := 0, 0
	for _, vc := range []struct {
		cell       string
		slew, ceff float64
		inRising   bool
	}{
		{"INVX1", 300e-12, 60e-15, false},
		{"INVX2", 150e-12, 30e-15, true},
		{"INVX4", 80e-12, 90e-15, false},
	} {
		cell := cellOf(t, vc.cell)
		first, err := gatesim.DriveWithHorizon(cell, vc.slew, vc.inRising, vc.ceff, nil, gatesim.Options{})
		if err != nil {
			t.Fatal(err)
		}
		end := first.Out.End()
		h := holdDrive{cell: cell, slew: vc.slew, inRising: vc.inRising, ceff: vc.ceff, rth: rth}
		var drive *gatesim.DriveResult
		for k, vn := range []*waveform.PWL{
			waveform.New([]float64{0, 150e-12, 300e-12, 450e-12}, []float64{0, -0.25, -0.1, 0}),
			lin,
			waveform.New([]float64{0, 200e-12, 400e-12, end + 1e-9}, []float64{0, 0.2, 0.05, 0}),
		} {
			name := fmt.Sprintf("%s/vn%d", vc.cell, k)
			got, err := h.rtr(ctx, vn)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want, err := holdres.ComputeContext(ctx, cell, vc.slew, vc.inRising, vc.ceff, rth, vn)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !sameHoldRes(got, want) {
				t.Errorf("%s: shared noiseless run changed the result (Rtr %v vs %v)", name, got.Rtr, want.Rtr)
			}
			if h.first == nil {
				t.Fatalf("%s: noiseless run not kept", name)
			}
			if drive == nil {
				drive = h.first
			} else if h.first != drive {
				t.Fatalf("%s: noiseless run simulated again", name)
			}
			if got.In.End() > end {
				outlasts++
				continue
			}
			fits++
			if got.Noiseless != drive.Out {
				t.Errorf("%s: reused noiseless waveform is a copy, not the kept run", name)
			}
		}
	}
	if fits == 0 || outlasts == 0 {
		t.Fatalf("sweep has %d injections inside the noiseless run and %d outlasting it; want both", fits, outlasts)
	}
}

// TestHoldResDriveOncePerAnalysis follows the victim's Rtr iterations
// the way AnalyzeContext runs them under HoldTransient: the victim's
// characterization runs the noiseless drive, every derivation, under
// alignments of the same aggressor noise, reuses it, and each result
// equals the uncached derivation bit for bit.
func TestHoldResDriveOncePerAnalysis(t *testing.T) {
	ctx := context.Background()
	c := testCase(t)
	e, err := newEngine(ctx, c, Options{}, true)
	if err != nil {
		t.Fatal(err)
	}
	first, err := e.firstPass(true)
	if err != nil {
		t.Fatal(err)
	}
	pt, _ := first.recvNoises[0].Peak()
	var drive *gatesim.DriveResult
	for k, dt := range []float64{0, 40e-12, -40e-12} {
		vn := alignedDriverNoise(first.recvNoises, first.drvNoises, pt+dt).Shift(gatesim.InputStart - c.Victim.InputStart)
		got, err := e.hold.rtr(ctx, vn)
		if err != nil {
			t.Fatalf("iteration %d: %v", k+1, err)
		}
		v := e.victim
		want, err := holdres.ComputeContext(ctx, v.spec.Cell, v.spec.InputSlew, v.spec.Cell.InputRisingFor(v.spec.OutputRising), v.ceff, v.model.Rth, vn)
		if err != nil {
			t.Fatal(err)
		}
		if !sameHoldRes(got, want) {
			t.Errorf("iteration %d: reused drive changed the result (Rtr %v vs %v)", k+1, got.Rtr, want.Rtr)
		}
		if k == 0 {
			drive = e.hold.first
		} else if drive == nil || e.hold.first != drive {
			t.Fatalf("iteration %d simulated the noiseless drive again", k+1)
		}
	}

}
