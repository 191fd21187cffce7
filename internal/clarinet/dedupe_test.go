package clarinet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/delaynoise"
	"repro/internal/noiseerr"
	"repro/internal/resilience"
)

// copiesOf repeats every case under n names, copy-major ("neta.0",
// "netb.0", ..., "neta.1", ...), so each case's first name comes first.
func copiesOf(names []string, cases []*delaynoise.Case, n int) ([]string, []*delaynoise.Case) {
	var outNames []string
	var outCases []*delaynoise.Case
	for k := 0; k < n; k++ {
		for i, name := range names {
			outNames = append(outNames, fmt.Sprintf("%s.%d", name, k))
			outCases = append(outCases, cases[i])
		}
	}
	return outNames, outCases
}

// countCalls swaps next in as the analysis seam and counts its calls per
// net name; the returned function reads a name's count.
func countCalls(t *testing.T, next func(context.Context, *delaynoise.Case, delaynoise.Options) (*delaynoise.Result, error)) func(string) int {
	t.Helper()
	var mu sync.Mutex
	calls := map[string]int{}
	stubAnalyze(t, func(ctx context.Context, c *delaynoise.Case, opt delaynoise.Options) (*delaynoise.Result, error) {
		mu.Lock()
		calls[resilience.NetName(ctx)]++
		mu.Unlock()
		return next(ctx, c, opt)
	})
	return func(name string) int {
		mu.Lock()
		defer mu.Unlock()
		return calls[name]
	}
}

// wire is a report's serialized wire form, the unit the byte-identity
// contracts compare.
func wire(t *testing.T, r NetReport) string {
	t.Helper()
	b, err := json.Marshal(ToWireRecord(r))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// checkCounters compares the tool's counters against want.
func checkCounters(t *testing.T, tool *Tool, want map[string]int64) {
	t.Helper()
	got := tool.Metrics().Snapshot().Counters
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s = %d, want %d", name, got[name], w)
		}
	}
}

// TestDuplicateNetsMatchFreshSessions runs three copies of two real
// cases as one batch: each case is analyzed once, and every name's
// report is wire-identical to analyzing that name alone on a fresh
// session.
func TestDuplicateNetsMatchFreshSessions(t *testing.T) {
	base, baseCases, lib := population(t, 2)
	names, cases := copiesOf(base, baseCases, 3)
	cfg := Config{Hold: delaynoise.HoldTransient, Align: delaynoise.AlignReceiverInput, Workers: 2}
	tool := MustNew(lib, cfg)
	for i, r := range tool.AnalyzeBatch(context.Background(), names, cases, nil, nil) {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Name, r.Err)
		}
		alone := MustNew(lib, cfg).AnalyzeNet(context.Background(), names[i], cases[i])
		if got, want := wire(t, r), wire(t, alone); got != want {
			t.Errorf("%s: batch report differs from a fresh session:\n got %s\nwant %s", names[i], got, want)
		}
	}
	checkCounters(t, tool, map[string]int64{"nets.analyzed": 6, "nets.exact": 6, "nets.reused": 4})
	if n := tool.Metrics().Snapshot().Timers["net.analyze"].Count; n != 2 {
		t.Errorf("net.analyze observed %d analyses, want 2", n)
	}
}

// TestDuplicateNetsKeepDistinctCases: cases that differ only in Sink, in
// one ExtraLoads entry, or in one bit of a slew are analyzed apart, while
// a deep copy that shares no pointer with its original is merged.
func TestDuplicateNetsKeepDistinctCases(t *testing.T) {
	calls := countCalls(t, cannedAnalyze)
	_, cases, lib := population(t, 1)
	a := *cases[0]
	loads := func(last float64) map[string]float64 {
		return map[string]float64{a.Net.VictimIn: 1e-15, a.Net.VictimOut: last}
	}
	a.ExtraLoads = loads(2e-15)
	sink, extra, slew := a, a, a
	sink.Sink = a.Net.VictimIn
	extra.ExtraLoads = loads(math.Nextafter(2e-15, 1))
	slew.Victim.InputSlew = math.Nextafter(a.Victim.InputSlew, 1)
	net := *a.Net
	net.Circuit = a.Net.Circuit.Clone()
	net.AggIn = append([]string(nil), a.Net.AggIn...)
	net.AggOut = append([]string(nil), a.Net.AggOut...)
	deep := a
	deep.Net = &net
	deep.Aggressors = append([]delaynoise.DriverSpec(nil), a.Aggressors...)
	deep.ExtraLoads = loads(2e-15)

	names := []string{"a", "sink", "extra", "slew", "deep"}
	tool := MustNew(lib, Config{Workers: 2})
	reports := tool.AnalyzeBatch(context.Background(), names, []*delaynoise.Case{&a, &sink, &extra, &slew, &deep}, nil, nil)
	for _, n := range names[:4] {
		if c := calls(n); c != 1 {
			t.Errorf("%s analyzed %d times, want 1", n, c)
		}
	}
	if c := calls("deep"); c != 0 {
		t.Errorf("deep copy analyzed %d times, want 0 (merged with a)", c)
	}
	if reports[4].Res != reports[0].Res {
		t.Error("deep copy did not take a's report")
	}
	checkCounters(t, tool, map[string]int64{"nets.analyzed": 5, "nets.reused": 1})
}

// TestDuplicateNetsFailedFirstCopy: when a case's first name fails, its
// copies are analyzed on their own instead of inheriting the failure.
func TestDuplicateNetsFailedFirstCopy(t *testing.T) {
	calls := countCalls(t, func(ctx context.Context, c *delaynoise.Case, opt delaynoise.Options) (*delaynoise.Result, error) {
		if name := resilience.NetName(ctx); name == "neta.0" {
			return nil, noiseerr.Numericalf("injected failure on %s", name)
		}
		return cannedAnalyze(ctx, c, opt)
	})
	base, baseCases, lib := population(t, 2)
	names, cases := copiesOf(base, baseCases, 3)
	tool := MustNew(lib, Config{Workers: 2})
	for _, r := range tool.AnalyzeBatch(context.Background(), names, cases, nil, nil) {
		switch {
		case r.Name == "neta.0":
			if !errors.Is(r.Err, noiseerr.ErrNumerical) {
				t.Errorf("neta.0: err = %v, want the injected failure", r.Err)
			}
		case r.Err != nil || r.Quality != resilience.QualityExact:
			t.Errorf("%s: err=%v quality=%v", r.Name, r.Err, r.Quality)
		}
	}
	for name, want := range map[string]int{"neta.0": 1, "neta.1": 1, "neta.2": 1, "netb.0": 1, "netb.1": 0, "netb.2": 0} {
		if got := calls(name); got != want {
			t.Errorf("%s analyzed %d times, want %d", name, got, want)
		}
	}
	checkCounters(t, tool, map[string]int64{"nets.analyzed": 6, "nets.failed": 1, "nets.exact": 5, "nets.reused": 2})
}

// TestDuplicateNetsCancelMidBatch cancels the batch while its first
// analysis runs: that case's copy takes its report, the next case and
// its copy are canceled, and the stream still delivers one report per
// name.
func TestDuplicateNetsCancelMidBatch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	calls := countCalls(t, func(ctx context.Context, c *delaynoise.Case, opt delaynoise.Options) (*delaynoise.Result, error) {
		cancel()
		return cannedAnalyze(ctx, c, opt)
	})
	base, baseCases, lib := population(t, 2)
	names, cases := copiesOf(base, baseCases, 2)
	tool := MustNew(lib, Config{Workers: 1})
	got := map[string]NetReport{}
	for r := range tool.StreamBatch(ctx, names, cases, nil, nil) {
		got[r.Name] = r
	}
	if len(got) != len(names) {
		t.Fatalf("stream delivered %d distinct names, want %d", len(got), len(names))
	}
	if got["neta.0"].Err != nil || got["neta.1"].Res != got["neta.0"].Res {
		t.Errorf("completed case: neta.0 = %+v, neta.1 = %+v", got["neta.0"], got["neta.1"])
	}
	for _, n := range []string{"netb.0", "netb.1"} {
		if !errors.Is(got[n].Err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", n, got[n].Err)
		}
	}
	for _, n := range names[1:] {
		if c := calls(n); c != 0 {
			t.Errorf("%s analyzed %d times after the cancel, want 0", n, c)
		}
	}
	checkCounters(t, tool, map[string]int64{"nets.analyzed": 2, "nets.reused": 1, "nets.canceled": 2})
}

// TestDuplicateNetsResumePartial resumes a batch whose prior holds one
// copy of a case: the resumed name is delivered as recorded, the case is
// analyzed once for its remaining copies, and only fresh reports are
// journaled.
func TestDuplicateNetsResumePartial(t *testing.T) {
	for _, resumed := range []string{"neta.0", "neta.1"} {
		t.Run(resumed, func(t *testing.T) {
			calls := countCalls(t, cannedAnalyze)
			base, baseCases, lib := population(t, 2)
			names, cases := copiesOf(base, baseCases, 3)
			tool := MustNew(lib, Config{Workers: 2})
			prior := map[string]NetReport{resumed: {Res: cannedResult("recorded"), Quality: resilience.QualityRescued}}
			var journal bytes.Buffer
			var got []NetReport
			for r := range tool.StreamBatch(context.Background(), names, cases, prior, NewJournal(&journal)) {
				got = append(got, r)
			}
			if len(got) != len(names) {
				t.Fatalf("got %d reports, want %d", len(got), len(names))
			}
			if got[0].Name != resumed || got[0].Quality != resilience.QualityRescued {
				t.Fatalf("first report = %+v, want resumed %s", got[0], resumed)
			}
			// The first name of the case not found in prior is analyzed.
			analyzed := "neta.0"
			if resumed == "neta.0" {
				analyzed = "neta.1"
			}
			byName := map[string]NetReport{}
			for _, r := range got {
				byName[r.Name] = r
			}
			for _, n := range []string{"neta.0", "neta.1", "neta.2"} {
				want := 0
				if n == analyzed {
					want = 1
				}
				if c := calls(n); c != want {
					t.Errorf("%s analyzed %d times, want %d", n, c, want)
				}
				if n != resumed && byName[n].Res != byName[analyzed].Res {
					t.Errorf("%s did not take %s's report", n, analyzed)
				}
			}
			recs, err := ReadJournal(bytes.NewReader(journal.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := recs[resumed]; ok || len(recs) != len(names)-1 {
				t.Errorf("journal has %d records (resumed name among them: %v), want the %d fresh ones", len(recs), ok, len(names)-1)
			}
			checkCounters(t, tool, map[string]int64{"nets.resumed": 1, "nets.analyzed": 5, "nets.reused": 3})
		})
	}
}
