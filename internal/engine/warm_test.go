package engine_test

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/warmstore"
)

// The warm-start contract: a second process with the same configuration
// loads the first process's derived state and serves it as cache hits,
// with results identical to a cold build.
func TestWarmSessionRoundTrip(t *testing.T) {
	st, err := warmstore.Open(t.TempDir(), metrics.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}

	cold := engine.New(engine.Config{PrecharGrid: 5, Metrics: metrics.NewRegistry()})
	cell, err := cold.Lib().Cell("INVX2")
	if err != nil {
		t.Fatal(err)
	}
	tabCold, err := cold.Table(context.Background(), cell, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := cold.SaveWarm(st); err != nil {
		t.Fatal(err)
	}

	reg := metrics.NewRegistry()
	warm := engine.New(engine.Config{PrecharGrid: 5, Metrics: reg})
	ok, err := warm.LoadWarm(st)
	if err != nil || !ok {
		t.Fatalf("LoadWarm = (%v, %v), want hit", ok, err)
	}
	if warm.TableCount() != 1 {
		t.Fatalf("warm TableCount = %d, want 1", warm.TableCount())
	}
	tabWarm, err := warm.Table(context.Background(), cell, true)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tabWarm, tabCold) {
		t.Fatal("warm table differs from the cold build")
	}
	if hits := reg.Counter("cache.tables.hit").Value(); hits != 1 {
		t.Fatalf("cache.tables.hit = %d, want 1 (loaded table must serve the request)", hits)
	}
	if misses := reg.Counter("cache.tables.miss").Value(); misses != 0 {
		t.Fatalf("cache.tables.miss = %d, want 0", misses)
	}
}

// A session must never load state computed under a different
// configuration: the identity key moves instead.
func TestWarmIdentitySeparatesConfigurations(t *testing.T) {
	base := engine.New(engine.Config{PrecharGrid: 5})
	same := engine.New(engine.Config{PrecharGrid: 5})
	if base.WarmKey() != same.WarmKey() {
		t.Fatal("equal configurations must share a warm key")
	}
	grid := engine.New(engine.Config{PrecharGrid: 7})
	if base.WarmKey() == grid.WarmKey() {
		t.Fatal("a different pre-characterization grid must move the key")
	}
	res := engine.New(engine.Config{PrecharGrid: 5, CharCacheRes: 0.11})
	if base.WarmKey() == res.WarmKey() {
		t.Fatal("a different char-cache resolution must move the key")
	}
	noChars := engine.New(engine.Config{PrecharGrid: 5, CharCacheRes: -1})
	if base.WarmKey() == noChars.WarmKey() {
		t.Fatal("a disabled char cache must move the key")
	}

	// Path-mode runs set a stage-graph topology hash; per-net runs leave
	// it zero. The two populations condition characterization state
	// differently, so they must never share a warm-store key — and two
	// path runs over the same topology must.
	pathed := engine.New(engine.Config{PrecharGrid: 5})
	pathed.SetTopology(0x5eed)
	if base.WarmKey() == pathed.WarmKey() {
		t.Fatal("a path-mode topology hash must move the key off the per-net key")
	}
	samePath := engine.New(engine.Config{PrecharGrid: 5})
	samePath.SetTopology(0x5eed)
	if pathed.WarmKey() != samePath.WarmKey() {
		t.Fatal("equal topologies must share a warm key")
	}
	otherPath := engine.New(engine.Config{PrecharGrid: 5})
	otherPath.SetTopology(0x5eee)
	if pathed.WarmKey() == otherPath.WarmKey() {
		t.Fatal("a different topology must move the key")
	}
}

func TestLoadWarmMissAndNilStore(t *testing.T) {
	s := engine.New(engine.Config{PrecharGrid: 5})
	st, err := warmstore.Open(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := s.LoadWarm(st); err != nil || ok {
		t.Fatalf("LoadWarm from empty store = (%v, %v), want clean miss", ok, err)
	}
	if ok, err := s.LoadWarm(nil); err != nil || ok {
		t.Fatalf("LoadWarm from nil store = (%v, %v), want clean miss", ok, err)
	}
	if err := s.SaveWarm(nil); err != nil {
		t.Fatalf("SaveWarm to nil store: %v", err)
	}
}
