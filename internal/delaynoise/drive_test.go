package delaynoise

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/gatesim"
	"repro/internal/holdres"
	"repro/internal/metrics"
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
	e, err := newEngine(context.Background(), c, Options{})
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
// noiseless run — through one CharCache. Each result must equal the
// uncached holdres.ComputeContext bit for bit, each operating point's
// noiseless run must be simulated once, and where it is reused the
// result's Noiseless waveform must be the memoized one.
func TestHoldResSharedNoiselessBitIdentical(t *testing.T) {
	ctx := context.Background()
	lin := driverNoise(t)
	reg := metrics.NewRegistry()
	cc := NewCharCache(0, reg)
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
		for k, vn := range []*waveform.PWL{
			waveform.New([]float64{0, 150e-12, 300e-12, 450e-12}, []float64{0, -0.25, -0.1, 0}),
			lin,
			waveform.New([]float64{0, 200e-12, 400e-12, end + 1e-9}, []float64{0, 0.2, 0.05, 0}),
		} {
			name := fmt.Sprintf("%s/vn%d", vc.cell, k)
			got, err := cc.HoldRes(ctx, cell, vc.slew, vc.inRising, vc.ceff, rth, vn)
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
			key := driveKey{cell.Name, vc.inRising, math.Float64bits(vc.slew), math.Float64bits(vc.ceff)}
			memo, ok := cc.drive.Get(key)
			if !ok {
				t.Fatalf("%s: noiseless run not memoized", name)
			}
			if got.In.End() > end {
				outlasts++
				continue
			}
			fits++
			if got.Noiseless != memo.Out {
				t.Errorf("%s: reused noiseless waveform is a copy, not the memoized run", name)
			}
		}
	}
	if fits == 0 || outlasts == 0 {
		t.Fatalf("sweep has %d injections inside the noiseless run and %d outlasting it; want both", fits, outlasts)
	}
	s := reg.Snapshot()
	if hits, misses := s.Counters[mCacheDrive+mHitSuffix], s.Counters[mCacheDrive+mMissSuffix]; misses != 3 || hits != 6 {
		t.Fatalf("cache.drive hits/misses = %d/%d, want 6/3 (one run per operating point)", hits, misses)
	}
}

// TestHoldResDriveSingleFlight has eight goroutines derive holding
// resistances at one victim operating point under different noise: the
// noiseless run is simulated exactly once, and every result equals the
// uncached derivation. Run it under -race (make race).
func TestHoldResDriveSingleFlight(t *testing.T) {
	ctx := context.Background()
	cell := cellOf(t, "INVX2")
	const slew, ceff, rth, rising = 150e-12, 30e-15, 2000.0, true
	const n = 8
	noises := make([]*waveform.PWL, n)
	want := make([]*holdres.Result, n)
	for i := range noises {
		noises[i] = waveform.New([]float64{0, 150e-12, 300e-12, 450e-12}, []float64{0, -0.05 * float64(i+1), -0.02, 0})
		var err error
		if want[i], err = holdres.ComputeContext(ctx, cell, slew, rising, ceff, rth, noises[i]); err != nil {
			t.Fatal(err)
		}
	}
	reg := metrics.NewRegistry()
	cc := NewCharCache(0, reg)
	got := make([]*holdres.Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = cc.HoldRes(ctx, cell, slew, rising, ceff, rth, noises[i])
		}(i)
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("noise %d: %v", i, errs[i])
		}
		if !sameHoldRes(got[i], want[i]) {
			t.Errorf("noise %d: concurrent result differs from the uncached one", i)
		}
	}
	s := reg.Snapshot()
	if misses := s.Counters[mCacheDrive+mMissSuffix]; misses != 1 {
		t.Fatalf("cache.drive.miss = %d, want exactly 1", misses)
	}
	if hits := s.Counters[mCacheDrive+mHitSuffix]; hits != n-1 {
		t.Fatalf("cache.drive.hit = %d, want %d", hits, n-1)
	}
}
