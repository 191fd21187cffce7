package clarinet

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"

	"repro/internal/delaynoise"
	"repro/internal/device"
	"repro/internal/funcnoise"
	"repro/internal/workload"
)

func population(t *testing.T, n int) ([]string, []*delaynoise.Case, *device.Library) {
	t.Helper()
	lib := device.NewLibrary(device.Default180())
	gen := workload.NewGenerator(lib, workload.DefaultProfile(), 31)
	cases, err := gen.Population(n)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, n)
	for i := range names {
		names[i] = "net" + string(rune('a'+i))
	}
	return names, cases, lib
}

func TestConfigDefaults(t *testing.T) {
	_, _, lib := population(t, 0)
	tool, err := New(lib, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := tool.Workers(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("default workers = %d, want GOMAXPROCS = %d", got, runtime.GOMAXPROCS(0))
	}
	if tool.Metrics() == nil {
		t.Fatal("tool must install a metrics registry")
	}
	if tool.Session().Chars() == nil {
		t.Fatal("characterization cache must be on by default")
	}
	if tool.Session().ROMs() == nil {
		t.Fatal("ROM cache must be on by default")
	}
	if _, err := New(lib, Config{Workers: -1}); err == nil {
		t.Fatal("negative worker count must be rejected")
	}
	off, err := New(lib, Config{CharCacheRes: -1})
	if err != nil {
		t.Fatal(err)
	}
	if off.Session().Chars() != nil {
		t.Fatal("characterization cache opt-out ignored")
	}
}

// TestAnalyzeAllOrderAndReport checks the core ordering guarantee: with
// more workers than nets and nondeterministic completion order, reports
// still come back in input order.
func TestAnalyzeAllOrderAndReport(t *testing.T) {
	names, cases, lib := population(t, 4)
	tool := MustNew(lib, Config{
		Hold:    delaynoise.HoldTransient,
		Align:   delaynoise.AlignReceiverInput,
		Workers: 8,
	})
	reports := tool.AnalyzeAll(names, cases)
	if len(reports) != 4 {
		t.Fatalf("got %d reports", len(reports))
	}
	for i, r := range reports {
		if r.Name != names[i] {
			t.Fatalf("report %d order broken: %s vs %s", i, r.Name, names[i])
		}
		if r.Err != nil {
			t.Fatalf("net %s failed: %v", r.Name, r.Err)
		}
		if r.Res.DelayNoise == 0 {
			t.Errorf("net %s has zero delay noise", r.Name)
		}
	}
	if got := tool.Metrics().Counter("nets.analyzed").Value(); got != 4 {
		t.Fatalf("nets.analyzed = %d", got)
	}
	var buf bytes.Buffer
	WriteReport(&buf, reports)
	out := buf.String()
	if !strings.Contains(out, "net") || !strings.Contains(out, "Rtr") {
		t.Fatalf("report missing columns:\n%s", out)
	}
	for _, n := range names {
		if !strings.Contains(out, n) {
			t.Fatalf("report missing net %s", n)
		}
	}
	var mb bytes.Buffer
	WriteMetricsSummary(&mb, tool)
	if !strings.Contains(mb.String(), "nets analyzed: 4") || !strings.Contains(mb.String(), "stopped at a settled tail") {
		t.Fatalf("metrics summary malformed:\n%s", mb.String())
	}
}

// TestAnalyzeAllDeterministicAcrossWorkerCounts runs the same batch
// serially and maximally parallel: the shared caches are evaluated at
// bucket-canonical operating points, so scheduling must not change any
// result.
func TestAnalyzeAllDeterministicAcrossWorkerCounts(t *testing.T) {
	names, cases, lib := population(t, 4)
	cfg := Config{Hold: delaynoise.HoldTransient, Align: delaynoise.AlignReceiverInput}
	cfg.Workers = 1
	serial := MustNew(lib, cfg).AnalyzeAll(names, cases)
	cfg.Workers = 8
	parallel := MustNew(lib, cfg).AnalyzeAll(names, cases)
	for i := range serial {
		if serial[i].Err != nil || parallel[i].Err != nil {
			t.Fatalf("net %d failed: %v / %v", i, serial[i].Err, parallel[i].Err)
		}
		if serial[i].Res.DelayNoise != parallel[i].Res.DelayNoise {
			t.Fatalf("net %s depends on scheduling: %v vs %v",
				names[i], serial[i].Res.DelayNoise, parallel[i].Res.DelayNoise)
		}
	}
}

// TestCancellationMidBatch cancels the context while the batch runs: the
// batch must still return one report per net, with unstarted nets
// carrying the context error.
func TestCancellationMidBatch(t *testing.T) {
	names, cases, lib := population(t, 4)
	tool := MustNew(lib, Config{
		Hold:    delaynoise.HoldTransient,
		Align:   delaynoise.AlignReceiverInput,
		Workers: 1,
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	got := 0
	canceled := 0
	for r := range tool.Stream(ctx, names, cases) {
		got++
		cancel() // fire after the first report lands
		if errors.Is(r.Err, context.Canceled) {
			canceled++
		} else if r.Err != nil {
			t.Fatalf("unexpected error: %v", r.Err)
		}
	}
	if got != len(cases) {
		t.Fatalf("stream delivered %d of %d reports", got, len(cases))
	}
	if canceled == 0 {
		t.Fatal("no net observed the cancellation")
	}

	// A context canceled before the batch starts fails every net.
	pre, preCancel := context.WithCancel(context.Background())
	preCancel()
	reports := tool.AnalyzeAllContext(pre, names, cases)
	for i, r := range reports {
		if r.Name != names[i] {
			t.Fatalf("canceled batch lost ordering at %d", i)
		}
		if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("net %s: err = %v, want context.Canceled", r.Name, r.Err)
		}
	}
}

// TestErrorInjectionDoesNotPoisonBatch makes one net structurally
// invalid: it must fail alone while every other net completes.
func TestErrorInjectionDoesNotPoisonBatch(t *testing.T) {
	names, cases, lib := population(t, 3)
	cases[1] = &delaynoise.Case{} // fails Validate: nil net
	tool := MustNew(lib, Config{
		Hold:    delaynoise.HoldTransient,
		Align:   delaynoise.AlignReceiverInput,
		Workers: 3,
	})
	reports := tool.AnalyzeAll(names, cases)
	if reports[1].Err == nil {
		t.Fatal("invalid net must fail")
	}
	for _, i := range []int{0, 2} {
		if reports[i].Err != nil {
			t.Fatalf("healthy net %s poisoned: %v", names[i], reports[i].Err)
		}
	}
	if got := tool.Metrics().Counter("nets.failed").Value(); got != 1 {
		t.Fatalf("nets.failed = %d", got)
	}
	var buf bytes.Buffer
	WriteReport(&buf, reports)
	if !strings.Contains(buf.String(), "FAILED") {
		t.Fatal("failure missing from report")
	}
}

// TestCacheHitAccounting analyzes one case under two names with separate
// AnalyzeNet calls on one session. A batch hands a copy its first
// report without reaching the caches, so this is where the hit path is
// exercised: the second call must hit the shared caches, miss nothing
// new, and report bit-identically to the first.
func TestCacheHitAccounting(t *testing.T) {
	names, cases, lib := population(t, 1)
	tool := MustNew(lib, Config{
		Hold:    delaynoise.HoldTransient,
		Align:   delaynoise.AlignReceiverInput,
		Workers: 1,
	})
	first := tool.AnalyzeNet(context.Background(), names[0], cases[0])
	_, coldMisses, _ := tool.Metrics().Snapshot().CacheRatio("cache.char.full")
	second := tool.AnalyzeNet(context.Background(), "dup", cases[0])
	if first.Err != nil || second.Err != nil {
		t.Fatalf("analysis failed: %v / %v", first.Err, second.Err)
	}
	s := tool.Metrics().Snapshot()
	for _, cache := range []string{"cache.char.full", "cache.holdres"} {
		if hits, _, _ := s.CacheRatio(cache); hits == 0 {
			t.Errorf("%s: no hits on the repeated case (counters: %v)", cache, s.Counters)
		}
	}
	if _, misses, _ := s.CacheRatio("cache.char.full"); misses != coldMisses {
		t.Errorf("repeated case missed the characterization cache: %d -> %d misses", coldMisses, misses)
	}
	first.Name = "dup"
	if got, want := wire(t, second), wire(t, first); got != want {
		t.Fatalf("cache hits changed the report:\n got %s\nwant %s", got, want)
	}
}

func TestPrecharTableCache(t *testing.T) {
	names, cases, lib := population(t, 2)
	// Force both cases to the same receiver so the table is shared.
	cases[1].Receiver = cases[0].Receiver
	cases[1].Victim.OutputRising = cases[0].Victim.OutputRising
	cases[1].Aggressors[0].OutputRising = !cases[1].Victim.OutputRising
	tool := MustNew(lib, Config{
		Hold:  delaynoise.HoldTransient,
		Align: delaynoise.AlignPrechar,
		// Small grid to keep the test fast.
		PrecharGrid: 9,
	})
	reports := tool.AnalyzeAll(names[:2], cases[:2])
	for _, r := range reports {
		if r.Err != nil {
			t.Fatalf("net %s: %v", r.Name, r.Err)
		}
	}
	if tool.Session().TableCount() != 1 {
		t.Fatalf("expected 1 cached table, got %d", tool.Session().TableCount())
	}
	s := tool.Metrics().Snapshot()
	if hits, misses, _ := s.CacheRatio("cache.tables"); hits != 1 || misses != 1 {
		t.Fatalf("table cache hit/miss = %d/%d, want 1/1", hits, misses)
	}
}

func TestJSONRoundTripThroughTool(t *testing.T) {
	names, cases, lib := population(t, 2)
	var buf bytes.Buffer
	if err := workload.Save(&buf, "generic-180nm", names, cases); err != nil {
		t.Fatal(err)
	}
	names2, cases2, err := workload.Load(&buf, lib)
	if err != nil {
		t.Fatal(err)
	}
	if len(cases2) != 2 || names2[0] != names[0] {
		t.Fatal("round trip lost cases")
	}
	if cases2[0].Victim.Cell.Name != cases[0].Victim.Cell.Name {
		t.Fatal("victim cell changed")
	}
	if cases2[0].Net.VictimIn != cases[0].Net.VictimIn {
		t.Fatal("interconnect changed")
	}
}

func TestWriteReportWithFailures(t *testing.T) {
	reports := []NetReport{
		{Name: "bad", Err: context.DeadlineExceeded},
	}
	var buf bytes.Buffer
	WriteReport(&buf, reports)
	if !strings.Contains(buf.String(), "FAILED") {
		t.Fatalf("failure not reported:\n%s", buf.String())
	}
}

func TestFunctionalAllAndReport(t *testing.T) {
	names, cases, lib := population(t, 2)
	tool := MustNew(lib, Config{})
	reports := tool.FunctionalAll(names, cases, funcnoise.Options{})
	if len(reports) != 2 {
		t.Fatalf("got %d reports", len(reports))
	}
	for _, r := range reports {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Name, r.Err)
		}
		if r.Res.RHold <= 0 {
			t.Fatalf("%s: bad hold resistance", r.Name)
		}
	}
	var buf bytes.Buffer
	WriteFuncReport(&buf, reports)
	out := buf.String()
	if !strings.Contains(out, "glitch") || !strings.Contains(out, names[0]) {
		t.Fatalf("func report malformed:\n%s", out)
	}
	// Error rendering.
	WriteFuncReport(&buf, []FuncReport{{Name: "x", Err: context.Canceled}})
	if !strings.Contains(buf.String(), "ERROR") {
		t.Fatal("func report missing error line")
	}
}
