package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// mini shrinks a workload to two nets (or one short path) on one
// receiver cell; with the millisecond run time the tests pass, it plans
// a single round, so every workload and every check runs in a few
// seconds.
func mini(name string, sz sizes) sizes {
	sz.setups = 1
	sz.roundItems = 2
	sz.repeats = min(sz.repeats, 2)
	sz.stages = 3
	sz.receivers = []string{"INVX1"}
	sz.verify = 2
	sz.golden = 1
	sz.ladderMin = 3
	switch name {
	case "served-gateway":
		// Six fresh requests, so eight served nets can be compared
		// in-process, and replays one fresh request behind.
		sz.rate = 24
		sz.mix = 3
		sz.warmup = 200 * time.Millisecond
		sz.replayLag = 1
		sz.verify = 8
	case "paths-dag":
		sz.roundItems = 1
		sz.verify = 1
	}
	return sz
}

// wantChecks are the correctness checks each workload must run.
var wantChecks = map[string][]string{
	"batch-exhaustive":  {"journal_roundtrip", "rerun_identical", "golden"},
	"batch-bus-prechar": {"journal_roundtrip", "repeats_identical", "rerun_identical"},
	"served-gateway":    {"requests", "replay_identical", "served_matches_inprocess"},
	"paths-dag":         {"journal_roundtrip", "rerun_identical"},
}

func runMini(t *testing.T, name string, traced bool) *result {
	t.Helper()
	def, ok := workloadByName(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	seconds := time.Millisecond
	if name == "served-gateway" {
		seconds = 500 * time.Millisecond
	}
	res, err := runOne(ctx, def, mini(name, def.sizes), def.seed, seconds, traced, t.TempDir())
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return res
}

// requireResult checks what every run must satisfy: correct, something
// attempted, every declared metric reported exactly once in its unit,
// every expected check run, and the last printed line carrying exactly
// the result keys.
func requireResult(t *testing.T, res *result, defs []metricDef) {
	t.Helper()
	for _, c := range res.Checks {
		if !c.OK {
			t.Errorf("%s: check %s failed: %s", res.Workload, c.Name, c.Detail)
		}
	}
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
		t.Errorf("%s: correct=%t attempted=%d failed=%d", res.Workload, res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics reported, %d declared", res.Workload, len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		if !ok || m.Unit != d.Unit {
			t.Errorf("%s: metric %s = %+v, want unit %s", res.Workload, d.Name, m, d.Unit)
		}
	}
	ran := map[string]bool{}
	for _, c := range res.Checks {
		ran[c.Name] = true
	}
	for _, name := range wantChecks[res.Workload] {
		if !ran[name] {
			t.Errorf("%s: check %s did not run", res.Workload, name)
		}
	}

	var out bytes.Buffer
	res.print(&out)
	lines := map[string]int{}
	for _, l := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		if f := strings.Fields(l); len(f) == 4 && f[0] == res.Workload {
			lines[f[1]]++
		}
	}
	for _, d := range defs {
		if lines[d.Name] != 1 {
			t.Errorf("%s: metric %s printed %d times", res.Workload, d.Name, lines[d.Name])
		}
	}
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lastLine(out.Bytes())), &last); err != nil {
		t.Fatalf("%s: last line is not JSON: %v", res.Workload, err)
	}
	if len(last) != 4 || last["correct"] == nil || last["attempted"] == nil || last["failed"] == nil || last["metrics"] == nil {
		t.Errorf("%s: result line keys %v", res.Workload, keys(last))
	}
}

func keys(m map[string]json.RawMessage) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

func TestWorkloadsInMiniature(t *testing.T) {
	for _, def := range workloads {
		def := def
		t.Run(def.name, func(t *testing.T) {
			res := runMini(t, def.name, false)
			requireResult(t, res, endToEnd)
			if def.name == "served-gateway" {
				// The report digest is a pure function of the seed, even
				// where responses arrive in a different order.
				again := runMini(t, def.name, false)
				if a, b := res.Info["report_digest"], again.Info["report_digest"]; a != b {
					t.Errorf("report digest %v, then %v for the same seed", a, b)
				}
			}
		})
	}
}

func TestTracedRun(t *testing.T) {
	res := runMini(t, "paths-dag", true)
	requireResult(t, res, perLayer)
	for _, name := range []string{spanRound, spanPathRun, spanJournalWrite, spanSetup} {
		if res.Spans[name].Count == 0 {
			t.Errorf("no %s spans", name)
		}
	}
	if s := res.Spans[spanPathRun]; s.SelfMs > s.TotalMs || s.SelfMs <= 0 {
		t.Errorf("%s self time %.3f ms of %.3f ms", spanPathRun, s.SelfMs, s.TotalMs)
	}
}

// TestBenchmarkLockstep holds BENCHMARK.json and the metric tables
// together: every metric the command can print is declared with its
// unit and direction, every declared metric is printed, and the file
// stays within the benchmark contract's limits.
func TestBenchmarkLockstep(t *testing.T) {
	bench, err := readBenchmarkFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	var declaredE2E []metricDef
	for _, m := range bench.EndToEnd {
		declaredE2E = append(declaredE2E, m.metricDef)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	sameDefs(t, "end_to_end", declaredE2E, endToEnd)
	sameDefs(t, "per_layer", bench.PerLayer, perLayer)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || seen[d.Name] {
			t.Errorf("metric %q unit %q: bad or repeated name or unit", d.Name, d.Unit)
		}
		if d.Better != lower && d.Better != higher {
			t.Errorf("metric %s: better %q", d.Name, d.Better)
		}
		seen[d.Name] = true
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	var wls []string
	for _, w := range bench.Workloads {
		wls = append(wls, w.Name)
		if !name.MatchString(w.Name) || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: bad name or why", w.Name)
		}
	}
	if n := len(wls); n < 2 || n > 8 || strings.Join(wls, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("BENCHMARK.json workloads %v, command has %v", wls, workloadNames())
	}
	if bench.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, command default %d", bench.RunSeconds, runSeconds)
	}
	if strings.Join(bench.Paths, ",") != "cmd/noisebench" {
		t.Errorf("paths %v", bench.Paths)
	}
	for _, a := range bench.Command[1:] {
		if _, err := os.Stat(filepath.Join("..", "..", a)); err != nil {
			t.Errorf("command names %s: %v", a, err)
		}
	}
}

func sameDefs(t *testing.T, what string, declared, code []metricDef) {
	t.Helper()
	if len(declared) != len(code) {
		t.Errorf("%s: BENCHMARK.json declares %d metrics, the command prints %d", what, len(declared), len(code))
	}
	byName := map[string]metricDef{}
	for _, d := range declared {
		byName[d.Name] = d
	}
	for _, d := range code {
		if got, ok := byName[d.Name]; !ok || got != d {
			t.Errorf("%s: command prints %+v, BENCHMARK.json declares %+v", what, d, got)
		}
	}
}

// TestQuartiles pins the quartile method to Python's
// statistics.quantiles(xs, n=4).
func TestQuartiles(t *testing.T) {
	for _, tc := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{4}, 4, 4, 4},
	} {
		q1, med, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || med != tc.med || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", tc.xs, q1, med, q3, tc.q1, tc.med, tc.q3)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, Name: "child", StartNs: 10, EndNs: 40},
		{ID: 3, Parent: 1, Name: "child", StartNs: 30, EndNs: 60},
		{ID: 4, Parent: 1, Name: "child", StartNs: 90, EndNs: 120},
	}
	got := selfTimes(spans)
	// The children cover [10,60] and [90,100] of the parent: 60 ns.
	if p := got["parent"]; p.Count != 1 || p.SelfMs != 40e-6 || p.TotalMs != 100e-6 {
		t.Errorf("parent %+v", p)
	}
	if c := got["child"]; c.Count != 3 || c.SelfMs != c.TotalMs {
		t.Errorf("child %+v", c)
	}
}

func TestCompareVerdicts(t *testing.T) {
	bench := &benchmarkFile{}
	bench.EndToEnd = append(bench.EndToEnd, struct {
		metricDef
		Bound float64 `json:"bound"`
	}{metricDef{mThroughput, "1/s", higher}, 0.1})
	mk := func(seed int64, v float64, digest string) *runFile {
		return &runFile{workload: "w", seed: seed, metrics: map[string]metricValue{mThroughput: {v, "1/s"}},
			info: map[string]any{"report_digest": digest}}
	}
	for _, tc := range []struct {
		a, b   []float64
		want   string
		status int
	}{
		{[]float64{10, 10.1, 9.9}, []float64{10.05, 9.95, 10}, "same", 0},
		{[]float64{10, 10.1, 9.9}, []float64{8, 8.1, 7.9}, "worse", 1},
		{[]float64{10, 10.1, 9.9}, []float64{12, 12.1, 11.9}, "better", 0},
		{[]float64{5, 10, 15}, []float64{9, 10, 11}, "unresolved", 0},
	} {
		var runs [2][]*runFile
		for i, v := range tc.a {
			runs[0] = append(runs[0], mk(int64(i), v, "d"))
		}
		for i, v := range tc.b {
			runs[1] = append(runs[1], mk(int64(i), v, "d"))
		}
		var out bytes.Buffer
		status := compareRuns(bench, runs, &out)
		if status != tc.status || !strings.Contains(out.String(), " "+tc.want+"\n") {
			t.Errorf("%v vs %v: status %d, want %s/%d:\n%s", tc.a, tc.b, status, tc.want, tc.status, out.String())
		}
	}
	runs := [2][]*runFile{{mk(1, 10, "aa")}, {mk(1, 10, "bb")}}
	var out bytes.Buffer
	if compareRuns(bench, runs, &out) != 1 || !strings.Contains(out.String(), "mismatch") {
		t.Errorf("digest mismatch not reported:\n%s", out.String())
	}
}
