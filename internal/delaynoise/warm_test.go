package delaynoise_test

import (
	"context"
	"math"
	"testing"

	"repro/internal/ceff"
	"repro/internal/delaynoise"
	"repro/internal/device"
	"repro/internal/metrics"
	"repro/internal/netlist"
	"repro/internal/thevenin"
	"repro/internal/warmstore"
)

// A snapshot taken from one cache and seeded into a fresh one must make
// the second cache hit where the first one did — with the seeded value,
// not a recomputation.
func TestCharSnapshotSeedsWarmHits(t *testing.T) {
	lib := device.NewLibrary(device.Default180())
	cell := lib.Cells["INVX2"]

	reg1 := metrics.NewRegistry()
	cc1 := delaynoise.NewCharCache(reg1)
	m1, err := cc1.RoughFit(context.Background(), cell, 80e-12, true, 20e-15)
	if err != nil {
		t.Fatal(err)
	}
	snap := cc1.Snapshot()
	if len(snap.Rough) != 1 {
		t.Fatalf("snapshot = %+v, want one rough entry", snap)
	}

	reg2 := metrics.NewRegistry()
	cc2 := delaynoise.NewCharCache(reg2)
	cc2.Seed(snap)
	if cc2.Len() != 1 {
		t.Fatalf("seeded cache Len = %d, want 1", cc2.Len())
	}
	m2, err := cc2.RoughFit(context.Background(), cell, 80e-12, true, 20e-15)
	if err != nil {
		t.Fatal(err)
	}
	if m2 != m1 {
		t.Fatalf("warm RoughFit = %+v, want the seeded model %+v", m2, m1)
	}
	if hits := reg2.Counter("cache.char.rough.hit").Value(); hits != 1 {
		t.Fatalf("cache.char.rough.hit = %d, want 1 (seeded entry must hit)", hits)
	}
}

func TestCharSeedDoesNotClobberResident(t *testing.T) {
	lib := device.NewLibrary(device.Default180())
	cell := lib.Cells["INVX1"]
	cc := delaynoise.NewCharCache(nil)
	resident, err := cc.RoughFit(context.Background(), cell, 60e-12, false, 15e-15)
	if err != nil {
		t.Fatal(err)
	}
	// Re-seed the same key with a poisoned model: the resident must win.
	snap := cc.Snapshot()
	for i := range snap.Rough {
		snap.Rough[i].Model = thevenin.Model{Rth: -1}
	}
	cc.Seed(snap)
	got, err := cc.RoughFit(context.Background(), cell, 60e-12, false, 15e-15)
	if err != nil {
		t.Fatal(err)
	}
	if got != resident {
		t.Fatal("Seed clobbered a resident entry")
	}
}

// heldCircuit is a driver node shielded from a far load by r ohms, the
// shape of a held interconnect a C-effective characterization reads.
func heldCircuit(r float64) *netlist.Circuit {
	ckt := netlist.NewCircuit()
	ckt.AddC("cn", "out", "0", 10e-15)
	ckt.AddR("rs", "out", "far", r)
	ckt.AddC("cf", "far", "0", 40e-15)
	return ckt
}

func sameCeff(a, b ceff.Result) bool {
	bits := math.Float64bits
	return bits(a.Ceff) == bits(b.Ceff) && bits(a.CTotal) == bits(b.CTotal) && a.Iterations == b.Iterations &&
		bits(a.Model.T0) == bits(b.Model.T0) && bits(a.Model.Dt) == bits(b.Model.Dt) &&
		bits(a.Model.Rth) == bits(b.Model.Rth) && bits(a.Model.Vdd) == bits(b.Model.Vdd) &&
		a.Model.Rising == b.Model.Rising
}

// TestFullEntryWarmStoreRoundTrip persists a C-effective
// characterization through a real warmstore and seeds it into a fresh
// cache. The same held circuit must hit with a bit-identical result;
// one whose key differs in a single byte >= 0x80 must miss. Such a byte
// alone is invalid UTF-8, which encoding/json rewrites to U+FFFD in a
// string, so the seeded key matches only because it travels as bytes.
func TestFullEntryWarmStoreRoundTrip(t *testing.T) {
	// 1000 and 968 ohms differ in one byte of their float bits, 0x8f
	// against 0x8e.
	const r, rOther = 1000.0, 968.0
	if diff := math.Float64bits(r) ^ math.Float64bits(rOther); diff != 0x01<<48 || math.Float64bits(r)>>48&0xff < 0x80 {
		t.Fatalf("test circuits must differ in one byte >= 0x80 (xor %#x)", diff)
	}
	ctx := context.Background()
	cell := device.NewLibrary(device.Default180()).Cells["INVX2"]
	const slew = 120e-12

	cold := delaynoise.NewCharCache(nil)
	want, err := cold.Characterize(ctx, cell, slew, true, heldCircuit(r), "out")
	if err != nil {
		t.Fatal(err)
	}
	st, err := warmstore.Open(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Save("chars", cold.Snapshot()); err != nil {
		t.Fatal(err)
	}
	var snap delaynoise.CharSnapshot
	if ok, err := st.Load("chars", &snap); err != nil || !ok {
		t.Fatalf("Load = (%v, %v), want a hit", ok, err)
	}

	reg := metrics.NewRegistry()
	warm := delaynoise.NewCharCache(reg)
	if warm.Seed(&snap); warm.Len() != 1 {
		t.Fatalf("seeded cache holds %d entries, want the one full characterization", warm.Len())
	}
	got, err := warm.Characterize(ctx, cell, slew, true, heldCircuit(r), "out")
	if err != nil {
		t.Fatal(err)
	}
	if hits := reg.Counter("cache.char.full.hit").Value(); hits != 1 {
		t.Fatalf("cache.char.full.hit = %d after the same held circuit, want 1", hits)
	}
	if !sameCeff(got, want) {
		t.Fatalf("warm characterization %+v differs from the cold one %+v", got, want)
	}
	if _, err := warm.Characterize(ctx, cell, slew, true, heldCircuit(rOther), "out"); err != nil {
		t.Fatal(err)
	}
	if misses := reg.Counter("cache.char.full.miss").Value(); misses != 1 {
		t.Fatalf("cache.char.full.miss = %d after a circuit one byte apart, want 1", misses)
	}
}
