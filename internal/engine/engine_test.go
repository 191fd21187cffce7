package engine_test

import (
	"context"
	"testing"

	"repro/internal/clarinet"
	"repro/internal/delaynoise"
	"repro/internal/device"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/workload"
)

func TestConfigDefaults(t *testing.T) {
	s := engine.New(engine.Config{})
	if s.Tech() == nil || s.Tech().Name != device.Default180().Name {
		t.Fatal("zero config must select the default technology")
	}
	if s.Lib() == nil || s.Metrics() == nil {
		t.Fatal("zero config must install a library and registry")
	}
	if s.Chars() == nil || s.ROMs() == nil {
		t.Fatal("caches must be on by default")
	}
	if _, err := s.Cell("INVX2"); err != nil {
		t.Fatalf("cell lookup failed: %v", err)
	}

	off := engine.New(engine.Config{CharCacheRes: -1})
	if off.Chars() != nil {
		t.Fatal("characterization cache opt-out ignored")
	}

	lib := device.NewLibrary(device.Default180())
	reg := metrics.NewRegistry()
	explicit := engine.New(engine.Config{Lib: lib, Metrics: reg})
	if explicit.Lib() != lib || explicit.Metrics() != reg || explicit.Tech() != lib.Tech {
		t.Fatal("explicit library/registry not honored")
	}
}

func TestBindWiresCachesWithoutClobberingKnobs(t *testing.T) {
	s := engine.New(engine.Config{})
	opt := s.Bind(delaynoise.Options{Hold: delaynoise.HoldTransient, Align: delaynoise.AlignPrechar})
	if opt.Chars != s.Chars() || opt.ROMs != s.ROMs() || opt.Metrics != s.Metrics() {
		t.Fatal("Bind must wire the session caches and registry")
	}
	if opt.Hold != delaynoise.HoldTransient || opt.Align != delaynoise.AlignPrechar {
		t.Fatal("Bind must not clobber analysis knobs")
	}
}

// TestViewsShareOneSession is the session invariant: two clarinet.Tool
// views built over the same session, with different alignment methods,
// share the library, the registry, the characterization caches, and
// the alignment tables.
func TestViewsShareOneSession(t *testing.T) {
	s := engine.New(engine.Config{PrecharGrid: 5})
	input := clarinet.MustNew(nil, clarinet.Config{Session: s, Align: delaynoise.AlignReceiverInput})
	prechar := clarinet.MustNew(nil, clarinet.Config{Session: s, Align: delaynoise.AlignPrechar})

	if input.Session() != s || prechar.Session() != s {
		t.Fatal("views must expose the shared session")
	}
	if input.Metrics() != prechar.Metrics() {
		t.Fatal("views must share one metrics registry")
	}
	if input.Lib != prechar.Lib || input.Lib != s.Lib() {
		t.Fatal("views must share one cell library")
	}

	// Work done through one view must be visible to the other: analyze a
	// net with one tool and check the shared registry moved.
	gen := workload.NewGenerator(s.Lib(), workload.DefaultProfile(), 7)
	cases, err := gen.Population(1)
	if err != nil {
		t.Fatal(err)
	}
	c := cases[0]
	if r := input.AnalyzeNet(context.Background(), "shared0", c); r.Err != nil {
		t.Fatalf("analysis failed: %v", r.Err)
	}
	reg := prechar.Metrics()
	if got := reg.Counter("nets.analyzed").Value(); got != 1 {
		t.Fatalf("second view sees nets.analyzed = %d, want 1", got)
	}

	// A table built through the session serves the other view's
	// table-driven analysis, and the driver characterizations the first
	// analysis made are hits for the second.
	if _, err := s.Table(context.Background(), c.Receiver, c.Victim.OutputRising); err != nil {
		t.Fatal(err)
	}
	fullHits := reg.Counter("cache.char.full.hit").Value()
	if r := prechar.AnalyzeNet(context.Background(), "shared1", c); r.Err != nil {
		t.Fatalf("table-driven analysis failed: %v", r.Err)
	}
	if s.TableCount() != 1 {
		t.Fatalf("TableCount = %d, want 1", s.TableCount())
	}
	if hits := reg.Counter("cache.tables.hit").Value(); hits != 1 {
		t.Fatalf("cache.tables.hit = %d, want 1", hits)
	}
	if got := reg.Counter("cache.char.full.hit").Value(); got <= fullHits {
		t.Fatalf("cache.char.full.hit stayed at %d: the second view missed the first view's characterizations", got)
	}
}
