package delaynoise

import (
	"context"
	"math"
	"testing"

	"repro/internal/device"
	"repro/internal/lsim"
	"repro/internal/metrics"
	"repro/internal/mna"
	"repro/internal/netlist"
	"repro/internal/waveform"
)

// TestCharCacheHitIsExact re-analyzes an identical case through a shared
// CharCache and checks both the hit accounting and that the cached run
// reproduces the uncached result bit-for-bit (exact keys).
func TestCharCacheHitIsExact(t *testing.T) {
	c := testCase(t)
	base, err := Analyze(c, Options{Align: AlignReceiverInput, Hold: HoldTransient})
	if err != nil {
		t.Fatal(err)
	}

	reg := metrics.NewRegistry()
	opt := Options{
		Align:   AlignReceiverInput,
		Hold:    HoldTransient,
		Chars:   NewCharCache(0, reg),
		Metrics: reg,
	}
	first, err := Analyze(c, opt)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Analyze(c, opt)
	if err != nil {
		t.Fatal(err)
	}
	s := reg.Snapshot()
	if hits, _, _ := s.CacheRatio("cache.char.full"); hits == 0 {
		t.Fatalf("expected full-characterization cache hits, counters: %v", s.Counters)
	}
	if hits, _, _ := s.CacheRatio("cache.char.rough"); hits == 0 {
		t.Fatalf("expected rough-fit cache hits, counters: %v", s.Counters)
	}
	if hits, _, _ := s.CacheRatio("cache.holdres"); hits == 0 {
		t.Fatalf("expected holding-resistance cache hits, counters: %v", s.Counters)
	}
	if first.DelayNoise != second.DelayNoise || first.VictimRtr != second.VictimRtr {
		t.Fatalf("cached re-run diverged: %v vs %v", first.DelayNoise, second.DelayNoise)
	}
	// The bucketed rough fits may perturb the result slightly relative to
	// the uncached flow, but only within the bucket resolution. DelayNoise
	// itself can be numerically tiny, so compare the physically meaningful
	// intermediates.
	if relErr := math.Abs(first.VictimRtr-base.VictimRtr) / base.VictimRtr; relErr > 0.02 {
		t.Fatalf("bucketed Rtr drifted %.1f%% from uncached", 100*relErr)
	}
	if relErr := math.Abs(first.Pulse.Height-base.Pulse.Height) / math.Abs(base.Pulse.Height); relErr > 0.02 {
		t.Fatalf("bucketed pulse height drifted %.1f%% from uncached", 100*relErr)
	}
	if s.Counters["sim.linear"] == 0 {
		t.Fatal("linear simulation counter not incremented")
	}
	if s.Counters["sim.nonlinear.receiver"] == 0 {
		t.Fatal("nonlinear receiver simulation counter not incremented")
	}
}

// TestCharCacheBucketSharing verifies that slews within one geometric
// bucket share a single rough fit deterministically.
func TestCharCacheBucketSharing(t *testing.T) {
	lib := device.NewLibrary(device.Default180())
	cell, err := lib.Cell("INVX4")
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	cc := NewCharCache(0.05, reg)
	a, err := cc.RoughFit(context.Background(), cell, 100e-12, true, 20e-15)
	if err != nil {
		t.Fatal(err)
	}
	// 1% away: same 5% bucket.
	b, err := cc.RoughFit(context.Background(), cell, 101e-12, true, 20e-15)
	if err != nil {
		t.Fatal(err)
	}
	if a.Rth != b.Rth {
		t.Fatalf("bucketed fits differ: %v vs %v", a.Rth, b.Rth)
	}
	s := reg.Snapshot()
	if hits, misses, _ := s.CacheRatio("cache.char.rough"); hits != 1 || misses != 1 {
		t.Fatalf("hit/miss = %d/%d, want 1/1", hits, misses)
	}
	// 40% away: different bucket, recomputed.
	c, err := cc.RoughFit(context.Background(), cell, 140e-12, true, 20e-15)
	if err != nil {
		t.Fatal(err)
	}
	if c.Rth == a.Rth {
		t.Fatal("distant slews must not share a bucket")
	}
}

// TestROMCacheRebindsInputs checks that a ROM cache hit reproduces the
// direct reduction even when the cached entry was populated with
// different source waveforms.
func TestROMCacheRebindsInputs(t *testing.T) {
	build := func(src *waveform.PWL) *mna.System {
		ckt := netlist.NewCircuit()
		ckt.AddDriver("d", "n1", src, 500)
		ckt.AddR("r1", "n1", "n2", 200)
		ckt.AddC("c1", "n1", "0", 10e-15)
		ckt.AddR("r2", "n2", "n3", 200)
		ckt.AddC("c2", "n2", "0", 10e-15)
		ckt.AddC("c3", "n3", "0", 10e-15)
		sys, err := mna.Build(ckt)
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	reg := metrics.NewRegistry()
	rc := NewROMCache(reg)
	opt := lsim.Options{TStop: 2e-9, Step: 1e-12, InitDC: true}

	srcA := waveform.Ramp(2e-10, 1e-10, 0, 1.8)
	romA, err := rc.Reduce(context.Background(), build(srcA), 2)
	if err != nil {
		t.Fatal(err)
	}
	resA, err := romA.Run(opt)
	if err != nil {
		t.Fatal(err)
	}

	// Same matrices, different source: must hit and rebind.
	srcB := waveform.Ramp(4e-10, 2e-10, 1.8, 0)
	sysB := build(srcB)
	romB, err := rc.Reduce(context.Background(), sysB, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := reg.Snapshot()
	if hits, misses, _ := s.CacheRatio("cache.rom"); hits != 1 || misses != 1 {
		t.Fatalf("rom hit/miss = %d/%d, want 1/1", hits, misses)
	}
	resB, err := romB.Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	wA, err := resA.Voltage("n3")
	if err != nil {
		t.Fatal(err)
	}
	wB, err := resB.Voltage("n3")
	if err != nil {
		t.Fatal(err)
	}
	if wA.At(1e-9) == wB.At(1e-9) {
		t.Fatal("rebound ROM ignored the new source waveform")
	}
	// And the rebound result matches a cold reduction of the same system.
	coldROM, err := NewROMCache(nil).Reduce(context.Background(), build(srcB), 2)
	if err != nil {
		t.Fatal(err)
	}
	coldRes, err := coldROM.Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	wCold, err := coldRes.Voltage("n3")
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range []float64{0.5e-9, 1e-9, 1.5e-9} {
		if math.Abs(wB.At(tt)-wCold.At(tt)) > 1e-12 {
			t.Fatalf("rebound ROM diverges from cold reduction at t=%g: %v vs %v",
				tt, wB.At(tt), wCold.At(tt))
		}
	}
}

// TestNilCachesPassThrough ensures the nil-receiver paths compute.
func TestNilCachesPassThrough(t *testing.T) {
	lib := device.NewLibrary(device.Default180())
	cell, err := lib.Cell("INVX2")
	if err != nil {
		t.Fatal(err)
	}
	var cc *CharCache
	if _, err := cc.RoughFit(context.Background(), cell, 100e-12, true, 20e-15); err != nil {
		t.Fatal(err)
	}
	var rc *ROMCache
	ckt := netlist.NewCircuit()
	ckt.AddDriver("d", "n1", waveform.Constant(0), 500)
	ckt.AddC("c1", "n1", "0", 10e-15)
	sys, err := mna.Build(ckt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rc.Reduce(context.Background(), sys, 1); err != nil {
		t.Fatal(err)
	}
}

// TestHashCircuitSensitivity: identical builds hash equal; any element
// change perturbs the hash.
func TestHashCircuitSensitivity(t *testing.T) {
	build := func(r float64) *netlist.Circuit {
		ckt := netlist.NewCircuit()
		ckt.AddR("r", "a", "b", r)
		ckt.AddC("c", "b", "0", 1e-15)
		ckt.AddDriver("d", "a", waveform.Constant(1.8), 100)
		return ckt
	}
	if hashCircuit(build(50)) != hashCircuit(build(50)) {
		t.Fatal("identical circuits hash differently")
	}
	if hashCircuit(build(50)) == hashCircuit(build(51)) {
		t.Fatal("changed resistor value did not change the hash")
	}
}

// TestSettledCounterCountsSearchRuns checks the settled-tail counter:
// every receiver run of the analysis reads only a crossing — the
// exhaustive search's and the report stage's two — so on this case,
// whose runs all settle before their horizon, each one stops at its
// settled tail and counts once.
func TestSettledCounterCountsSearchRuns(t *testing.T) {
	reg := metrics.NewRegistry()
	if _, err := Analyze(testCase(t), Options{Align: AlignExhaustive, Hold: HoldThevenin, SearchGrid: 5, Metrics: reg}); err != nil {
		t.Fatal(err)
	}
	s := reg.Snapshot()
	sims, settled := s.Counters[mSimNonlinearReceiver], s.Counters[mSimReceiverSettled]
	if sims <= 2 || settled != sims {
		t.Fatalf("%d of %d receiver runs counted as stopped at a settled tail; want all of them, search and report", settled, sims)
	}
}
