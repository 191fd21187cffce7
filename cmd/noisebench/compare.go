package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
)

// compare applies the bounds in BENCHMARK.json to two sets of runs:
//
//	noisebench compare [-bench BENCHMARK.json] A.json... -- B.json...
//
// Each file is a result file the benchmark wrote, or a run's captured
// standard output. For every workload and metric it prints each side's
// median and quartiles, the spread (interquartile range over median),
// the change from A to B, and a verdict: "same", "better" or "worse"
// by more than the metric's bound, or "unresolved" when either side's
// spread exceeds the bound and B does not beat A on every run.
// Per-layer metrics have no bound and get no verdict. It also checks
// that runs with the same seed produced the same report digest and the
// same deterministic accuracy figures. The exit status is 1 when any
// metric got worse or a digest differs.

// benchmarkFile is BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		metricDef
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// deterministicInfo are the info figures that depend only on the seed.
var deterministicInfo = []string{"report_digest", "model_err_mean_ps", "model_err_max_ps", "align_gap_mean_ps"}

// runFile is one run as compare reads it.
type runFile struct {
	workload string
	seed     int64
	metrics  map[string]metricValue
	info     map[string]any
}

func readRunFile(path string) (*runFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var res result
	if json.Unmarshal(b, &res) == nil && res.Workload != "" {
		return &runFile{workload: res.Workload, seed: res.Env.Seed, metrics: res.Metrics, info: res.Info}, nil
	}
	// Captured standard output: the header names the workload and seed,
	// the last line carries the metrics.
	rf := &runFile{workload: strings.TrimSuffix(filepath.Base(path), filepath.Ext(path)), seed: -1}
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) >= 3 && f[0] == "#" && f[1] == "noisebench" {
			rf.workload = f[2]
			for _, kv := range f[3:] {
				if v, ok := strings.CutPrefix(kv, "seed="); ok {
					rf.seed, _ = strconv.ParseInt(v, 10, 64)
				}
			}
		}
		if len(f) == 3 && f[0] == "info" {
			if rf.info == nil {
				rf.info = map[string]any{}
			}
			rf.info[f[1]] = f[2]
		}
	}
	var last resultLine
	if err := json.Unmarshal([]byte(lastLine(b)), &last); err != nil || last.Metrics == nil {
		return nil, fmt.Errorf("%s: neither a result file nor a run's output", path)
	}
	rf.metrics = last.Metrics
	return rf, nil
}

func runCompare(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var sides [2][]string
	side := 0
	for _, a := range fs.Args() {
		if a == "--" {
			side++
			continue
		}
		if side > 1 {
			fmt.Fprintln(os.Stderr, "compare: more than one --")
			return 2
		}
		sides[side] = append(sides[side], a)
	}
	if len(sides[0]) == 0 || len(sides[1]) == 0 {
		fmt.Fprintln(os.Stderr, "usage: noisebench compare [-bench BENCHMARK.json] A.json... -- B.json...")
		return 2
	}
	bench, err := readBenchmarkFile(*benchPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	var runs [2][]*runFile
	for s := range sides {
		for _, p := range sides[s] {
			rf, err := readRunFile(p)
			if err != nil {
				fmt.Fprintln(os.Stderr, "compare:", err)
				return 2
			}
			runs[s] = append(runs[s], rf)
		}
	}
	return compareRuns(bench, runs, w)
}

// verdict is the outcome for one metric on one workload.
type verdict struct {
	a, b             [3]float64 // q1, median, q3
	spreadA, spreadB float64    // interquartile range over median
	change           float64    // relative change A→B, positive = worse
	outcome          string
	nA, nB           int
}

func judge(a, b []float64, better string, bound float64, bounded bool) verdict {
	v := verdict{nA: len(a), nB: len(b)}
	v.a[0], v.a[1], v.a[2] = quartiles(a)
	v.b[0], v.b[1], v.b[2] = quartiles(b)
	v.spreadA = ratio(v.a[2]-v.a[0], v.a[1])
	v.spreadB = ratio(v.b[2]-v.b[0], v.b[1])
	v.change = ratio(v.b[1]-v.a[1], v.a[1])
	if better == higher {
		v.change = -v.change
	}
	if !bounded {
		v.outcome = "-"
		return v
	}
	// Every B run better than every A run settles it even when noisy.
	allBetter := true
	for _, x := range a {
		for _, y := range b {
			if (better == lower && y >= x) || (better == higher && y <= x) {
				allBetter = false
			}
		}
	}
	switch {
	case v.spreadA > bound || v.spreadB > bound:
		v.outcome = "unresolved"
		if allBetter {
			v.outcome = "better"
		}
	case v.change > bound:
		v.outcome = "worse"
	case v.change < -bound:
		v.outcome = "better"
	default:
		v.outcome = "same"
	}
	return v
}

func compareRuns(bench *benchmarkFile, runs [2][]*runFile, w io.Writer) int {
	type key struct{ workload, metric string }
	bounds := map[string]float64{}
	defs := map[string]metricDef{}
	for _, m := range bench.EndToEnd {
		bounds[m.Name] = m.Bound
		defs[m.Name] = m.metricDef
	}
	for _, m := range bench.PerLayer {
		defs[m.Name] = m
	}
	vals := map[key]*[2][]float64{}
	var keys []key
	for s := range runs {
		for _, rf := range runs[s] {
			for name, mv := range rf.metrics {
				k := key{rf.workload, name}
				if vals[k] == nil {
					vals[k] = &[2][]float64{}
					keys = append(keys, k)
				}
				vals[k][s] = append(vals[k][s], mv.Value)
			}
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].metric < keys[j].metric
	})
	status := 0
	tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median [q1, q3]\tA spread\tB median [q1, q3]\tB spread\tchange\tbound\tverdict")
	for _, k := range keys {
		v := vals[k]
		def, known := defs[k.metric]
		if !known {
			fmt.Fprintf(tw, "%s\t%s\t?\t\t\t\t\t\t\tundeclared\n", k.workload, k.metric)
			status = 1
			continue
		}
		if len(v[0]) == 0 || len(v[1]) == 0 {
			fmt.Fprintf(tw, "%s\t%s\t%s\t\t\t\t\t\t\tone-sided\n", k.workload, k.metric, def.Unit)
			continue
		}
		bound, bounded := bounds[k.metric]
		j := judge(v[0], v[1], def.Better, bound, bounded)
		boundStr := "-"
		if bounded {
			boundStr = fmt.Sprintf("%.0f%%", 100*bound)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g [%.4g, %.4g] n=%d\t%.1f%%\t%.4g [%.4g, %.4g] n=%d\t%.1f%%\t%+.1f%%\t%s\t%s\n",
			k.workload, k.metric, def.Unit, j.a[1], j.a[0], j.a[2], j.nA, 100*j.spreadA,
			j.b[1], j.b[0], j.b[2], j.nB, 100*j.spreadB, 100*j.change, boundStr, j.outcome)
		if j.outcome == "worse" {
			status = 1
		}
	}
	tw.Flush()

	// Seed-determined figures must agree wherever a seed ran twice.
	type seedKey struct {
		workload, info string
		seed           int64
	}
	seen := map[seedKey]string{}
	mismatches := 0
	for s := range runs {
		for _, rf := range runs[s] {
			for _, name := range deterministicInfo {
				val, ok := rf.info[name]
				if !ok || rf.seed < 0 {
					continue
				}
				k := seedKey{rf.workload, name, rf.seed}
				str := fmt.Sprint(val)
				if prev, ok := seen[k]; ok && prev != str {
					fmt.Fprintf(w, "mismatch %s seed %d %s: %s vs %s\n", rf.workload, rf.seed, name, prev, str)
					mismatches++
				}
				seen[k] = str
			}
		}
	}
	fmt.Fprintf(w, "deterministic figures: %d checked, %d mismatched\n", len(seen), mismatches)
	if mismatches > 0 {
		status = 1
	}
	return status
}

// lastLine returns the last non-empty line of b.
func lastLine(b []byte) string {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	for sc.Scan() {
		if s := strings.TrimSpace(sc.Text()); s != "" {
			last = s
		}
	}
	return last
}
