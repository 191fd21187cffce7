package engine_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/clarinet"
	"repro/internal/delaynoise"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/warmstore"
	"repro/internal/workload"
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

// TestWarmEntrySize: a warm entry persists what recurs across nets
// (alignment tables and driver characterizations), not what each net
// derives from its own noise. Two default nets analyzed under transient
// hold must save an entry under 256 KB; persisting their holding
// resistances, four waveforms apiece, takes about 3 MB.
func TestWarmEntrySize(t *testing.T) {
	reg := metrics.NewRegistry()
	s := engine.New(engine.Config{Metrics: reg})
	tool := clarinet.MustNew(nil, clarinet.Config{Session: s, Hold: delaynoise.HoldTransient, Align: delaynoise.AlignReceiverInput})
	cases, err := workload.NewGenerator(s.Lib(), workload.DefaultProfile(), 1).Population(2)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cases {
		if r := tool.AnalyzeNet(context.Background(), fmt.Sprintf("net%d", i), c); r.Err != nil {
			t.Fatalf("net %d: %v", i, r.Err)
		}
	}
	st, err := warmstore.Open(t.TempDir(), reg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SaveWarm(st); err != nil {
		t.Fatal(err)
	}
	if n := reg.Counter("store.bytes.written").Value(); n == 0 || n >= 256<<10 {
		t.Fatalf("warm entry is %d bytes, want under 256 KB", n)
	}
}
