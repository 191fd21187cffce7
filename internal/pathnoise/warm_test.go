package pathnoise_test

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/clarinet"
	"repro/internal/delaynoise"
	"repro/internal/device"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/pathnoise"
	"repro/internal/warmstore"
	"repro/internal/workload"
)

// TestPathRunUsesPerNetWarmEntry: a path run and a per-net run share
// one warm-store entry, because nothing the entry holds depends on
// which nets or paths produced it. A per-net batch over the stage
// cases saves its session; a fresh session loads that entry and runs
// the paths with table-driven alignment. It must build no table, its
// characterization memos must hit, and its report must be
// byte-identical to a cold path run's.
func TestPathRunUsesPerNetWarmEntry(t *testing.T) {
	lib := device.NewLibrary(device.Default180())
	names, cases, paths, err := workload.NewGenerator(lib, workload.DefaultProfile(), 31).PathPopulation(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	tool := func(s *engine.Session) *clarinet.Tool {
		return clarinet.MustNew(lib, clarinet.Config{Session: s, Hold: delaynoise.HoldTransient, Align: delaynoise.AlignPrechar})
	}
	session := func(reg *metrics.Registry) *engine.Session {
		return engine.New(engine.Config{Lib: lib, Metrics: reg, PrecharGrid: 5})
	}
	st, err := warmstore.Open(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}

	perNet := session(nil)
	for _, r := range tool(perNet).AnalyzeBatch(ctx, names, cases, nil, nil) {
		if r.Err != nil {
			t.Fatalf("net %s: %v", r.Name, r.Err)
		}
	}
	if err := perNet.SaveWarm(st); err != nil {
		t.Fatal(err)
	}

	reg := metrics.NewRegistry()
	warm := session(reg)
	if ok, err := warm.LoadWarm(st); err != nil || !ok {
		t.Fatalf("LoadWarm = (%v, %v), want the per-net entry", ok, err)
	}
	tablesBefore := reg.Counter("cache.tables.miss").Value()
	warmReports, err := pathnoise.Run(ctx, tool(warm), paths, pathnoise.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("cache.tables.miss").Value(); got != tablesBefore {
		t.Fatalf("warm path run built %d alignment tables, want 0", got-tablesBefore)
	}
	for _, c := range []string{"cache.char.rough.hit", "cache.char.full.hit"} {
		if reg.Counter(c).Value() == 0 {
			t.Fatalf("%s = 0: the loaded characterizations served no stage", c)
		}
	}

	coldReports, err := pathnoise.Run(ctx, tool(session(nil)), paths, pathnoise.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range coldReports {
		if r.Failed() {
			t.Fatalf("path %s failed: %s", r.Name, r.Error)
		}
	}
	want, err := pathnoise.MarshalReport(coldReports)
	if err != nil {
		t.Fatal(err)
	}
	got, err := pathnoise.MarshalReport(warmReports)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("warm path report differs from the cold one:\n%s\nwant:\n%s", got, want)
	}
}
