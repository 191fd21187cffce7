// Command noisebench is the repository's end-to-end benchmark. One
// command runs a workload — from a batch CLI flow to a served request
// mix through the gateway — measures it for a fixed time, checks that
// every output is correct, and prints every metric by name and unit.
//
// Usage:
//
//	noisebench -workload <name|all> [-seed N] [-seconds S] [-trace 0|1] [-out dir]
//	noisebench compare A.json... -- B.json...
//
// Workloads: batch-exhaustive, batch-bus-prechar, served-gateway,
// paths-dag (README.md says why each exists). -workload all runs each
// in its own process, one after another, and fails if any failed. With -trace 0 (the default)
// the run reports the end-to-end metrics; -trace 1 makes a separate
// run that records spans at every layer boundary, times the layer
// ladder, and reports the per-layer metrics instead. Output: one line
// per metric ("workload metric value unit"), check/info/span lines,
// and, as the last line, one JSON object with the keys correct,
// attempted, failed and metrics. The same data, with an environment
// header, goes to <out>/<workload>-seed<N>.json (spans to
// <out>/<workload>-seed<N>.spans.json). The exit status is 0 only when
// every check passed and no operation failed.
//
// compare applies the bounds in BENCHMARK.json to two sets of result
// files (see compare.go).
//
// The benchmark drives the system only through its public packages and
// starts its servers on loopback; it never edits program state from
// outside those APIs.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"log"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/cliutil"
	"repro/internal/device"
	"repro/internal/metrics"
)

// runSeconds is how long one run measures by default; BENCHMARK.json's
// run_seconds carries the same value (the lockstep test checks it).
const runSeconds = 20

// runTimeout bounds a whole run, set-up and checks included; a run that
// hits it fails rather than overstaying the benchmark's time budget.
const runTimeout = 170 * time.Second

func main() {
	cliutil.Init("noisebench")
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(runCompare(os.Args[2:], os.Stdout))
	}
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), " | ")+" | all")
	seed := flag.Int64("seed", -1, "input seed (-1 = the workload's default seed)")
	seconds := flag.Int("seconds", runSeconds, "measured time per run, in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	out := flag.String("out", filepath.Join(".bench_build", "results"), "directory for result and span files")
	flag.Parse()
	cliutil.ExitIfVersion()
	if *trace != 0 && *trace != 1 {
		cliutil.Usagef("-trace must be 0 or 1")
	}
	if *seconds < 1 {
		cliutil.Usagef("-seconds must be at least 1")
	}
	if flag.NArg() > 0 {
		cliutil.Usagef("unexpected arguments %q", flag.Args())
	}
	ctx, cancel := cliutil.Context(runTimeout)
	defer cancel()
	if *name == "all" {
		os.Exit(runAll(ctx, *seed, *seconds, *trace, *out))
	}
	def, ok := workloadByName(*name)
	if !ok {
		cliutil.Usagef("unknown workload %q", *name)
	}
	if *seed == -1 {
		*seed = def.seed
	}
	res, err := runOne(ctx, def, def.sizes, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *out)
	if err != nil {
		log.Fatal(err)
	}
	res.print(os.Stdout)
	if !res.Correct {
		os.Exit(1)
	}
}

// result is everything one run reports.
type result struct {
	Workload  string                 `json:"workload"`
	Env       envHeader              `json:"env"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Info      map[string]any         `json:"info,omitempty"`
	Checks    []check                `json:"checks"`
	Spans     map[string]spanStat    `json:"spans,omitempty"`
}

// envHeader records what produced a result file.
type envHeader struct {
	Nproc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go"`
	CPU        string  `json:"cpu"`
	Revision   string  `json:"revision"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	Rounds     int     `json:"rounds"`
	Rate       float64 `json:"rate_per_s,omitempty"`
}

type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// runOne runs one workload in this process and assembles its result.
func runOne(ctx context.Context, def *workloadDef, sz sizes, seed int64, seconds time.Duration, traced bool, out string) (*result, error) {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(out, def.name+"-work-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	r := &run{
		ctx:     ctx,
		seed:    seed,
		seconds: seconds,
		sz:      sz,
		dir:     dir,
		lib:     cliutil.Library(),
		info:    map[string]any{},
		digest:  fnv.New64a(),
	}
	if traced {
		r.tr = newTracer()
	}
	if err := def.run(r); err != nil {
		return nil, fmt.Errorf("%s: %w", def.name, err)
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("%s: run aborted: %w", def.name, err)
	}
	rss := peakRSSMB()
	res := &result{
		Workload:  def.name,
		Env:       environment(seed, seconds, traced, r.rounds, r.rate),
		Attempted: r.attempted,
		Failed:    r.failed,
		Info:      r.info,
		Checks:    r.checks,
	}
	r.info["report_digest"] = fmt.Sprintf("%016x", r.digest.Sum64())
	base := fmt.Sprintf("%s-seed%d", def.name, seed)
	if traced {
		base += "-trace"
		// The traced run's own end-to-end figures, against the untraced
		// runs of the same seed, give the tracing overhead.
		for name, m := range r.endToEnd(rss) {
			r.info["traced_"+name] = m.Value
		}
		if err := r.ladder(); err != nil {
			return nil, fmt.Errorf("%s: ladder: %w", def.name, err)
		}
		res.Metrics = r.perLayer()
		res.Spans, err = r.tr.writeSpans(filepath.Join(out, base+".spans.json"))
		if err != nil {
			return nil, err
		}
	} else {
		res.Metrics = r.endToEnd(rss)
	}
	res.Correct = r.failed == 0 && r.attempted > 0
	for _, c := range r.checks {
		res.Correct = res.Correct && c.OK
	}
	b, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		return nil, err
	}
	return res, os.WriteFile(filepath.Join(out, base+".json"), append(b, '\n'), 0o644)
}

// print writes the human-readable lines and, last, the result line.
func (res *result) print(w io.Writer) {
	e := res.Env
	fmt.Fprintf(w, "# noisebench %s seed=%d trace=%t seconds=%g rounds=%d rate=%g nproc=%d gomaxprocs=%d go=%s rev=%s cpu=%q\n",
		res.Workload, e.Seed, e.Trace, e.Seconds, e.Rounds, e.Rate, e.Nproc, e.GOMAXPROCS, e.GoVersion, e.Revision, e.CPU)
	defs := endToEnd
	if e.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		if m, ok := res.Metrics[d.Name]; ok {
			fmt.Fprintf(w, "%s %s %s %s\n", res.Workload, d.Name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
		}
	}
	for _, c := range res.Checks {
		status := "ok"
		if !c.OK {
			status = "FAIL"
		}
		fmt.Fprintf(w, "check %s %s %s\n", c.Name, status, c.Detail)
	}
	keys := make([]string, 0, len(res.Info))
	for k := range res.Info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "info %s %v\n", k, res.Info[k])
	}
	names := make([]string, 0, len(res.Spans))
	for n := range res.Spans {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		s := res.Spans[n]
		fmt.Fprintf(w, "span %s count=%d total_ms=%.3f self_ms=%.3f\n", n, s.Count, s.TotalMs, s.SelfMs)
	}
	line, _ := json.Marshal(resultLine{res.Correct, res.Attempted, res.Failed, res.Metrics})
	fmt.Fprintf(w, "%s\n", line)
}

// resultLine is the last line a run prints.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runAll runs every workload in a child process of its own, one after
// another, passing their output through. It fails if any of them did.
func runAll(ctx context.Context, seed int64, seconds, trace int, out string) int {
	exe, err := os.Executable()
	if err != nil {
		log.Print(err)
		return 1
	}
	status := 0
	for _, def := range workloads {
		args := []string{"-workload", def.name, "-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace), "-out", out}
		if seed != -1 {
			args = append(args, "-seed", strconv.FormatInt(seed, 10))
		}
		cmd := exec.CommandContext(ctx, exe, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			log.Printf("%s: %v", def.name, err)
			status = 1
		}
	}
	return status
}

// environment collects the result header.
func environment(seed int64, seconds time.Duration, traced bool, rounds int, rate float64) envHeader {
	rev := buildinfo.Current().Revision
	if rev == "" {
		rev = "unknown"
	}
	return envHeader{
		Nproc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPU:        cpuModel(),
		Revision:   rev,
		Seed:       seed,
		Seconds:    seconds.Seconds(),
		Trace:      traced,
		Rounds:     rounds,
		Rate:       rate,
	}
}

// cpuModel reads the processor name from /proc/cpuinfo ("unknown"
// elsewhere).
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB,
// falling back to the Go runtime's total obtained memory where /proc
// is unavailable.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// run is the state of one workload run: its inputs, what the measured
// phase recorded, and the checks and registries the reports draw on.
type run struct {
	ctx     context.Context
	seed    int64
	seconds time.Duration
	sz      sizes
	tr      *tracer // nil when untraced
	dir     string  // scratch directory, removed when the run ends
	lib     *device.Library

	setups     []float64 // seconds per set-up
	rounds     int
	rate       float64
	attempted  int
	failed     int
	measured   time.Duration // wall time of the measured phase
	latencies  []float64     // ms from a round's start to each result, or per request
	regs       []*metrics.Registry
	base       []metrics.Snapshot // registry state where the measured window began
	workers    int                // analysis workers behind the registries, together
	journal    journalStats
	baseJourn  journalCounts // journal totals where the measured window began
	journalBad int           // journaled outputs that did not read back identically
	ref        *refNet
	ladderVals map[string]float64
	checks     []check
	info       map[string]any
	digest     hash.Hash64
}

// markWindow marks the start of the measured window of a run whose
// registries also saw warm-up work; perLayer counts only what follows.
func (r *run) markWindow() {
	r.base = r.base[:0]
	for _, reg := range r.regs {
		r.base = append(r.base, reg.Snapshot())
	}
	r.baseJourn = r.journal.counts()
}

// endRound records one measured round of a batch run: its wall time,
// and the time from its start to each of its results (a net's journal
// record, a path's completing stage record), which is when a reader of
// the journal or stream could use that result.
func (r *run) endRound(d time.Duration, done []time.Duration) {
	r.measured += d
	for _, t := range done {
		r.latencies = append(r.latencies, float64(t.Nanoseconds())/1e6)
	}
}

// plannedRounds is how many rounds a batch run prepares and measures:
// as many nominal rounds as fit in its seconds, at least one. Fixing
// the count from the seconds, not from the clock, keeps a run's work
// the same however fast the machine happens to be that minute.
func (r *run) plannedRounds() int {
	return max(1, int(math.Round(r.seconds.Seconds()/r.sz.roundTime)))
}

// another reports whether a batch run starts another round: until the
// planned count, unless the machine is so slow that the next round
// would end past one and a half times the run's seconds.
func (r *run) another() bool {
	if r.rounds == 0 {
		return true
	}
	mean := r.measured / time.Duration(r.rounds)
	return r.rounds < r.plannedRounds() && r.measured+mean <= r.seconds*3/2
}

// setupsBefore is how many of a batch run's set-ups run before round
// rd. They are spread evenly over the planned rounds, so that setup_s,
// like the rounds, samples the whole run's stretch of machine time
// rather than its first fraction of a second.
func (r *run) setupsBefore(rd int) int {
	p := r.plannedRounds()
	return min(r.sz.setups, (r.sz.setups*(rd+1)+p-1)/p)
}

// setUpTo runs set-ups until n have run.
func (r *run) setUpTo(n int, setUp func() error) error {
	for len(r.setups) < n {
		if err := setUp(); err != nil {
			return err
		}
	}
	return nil
}

// timedSetup runs set-up number len(r.setups) and records its time.
func timedSetup[T any](r *run, setUp func(k int) (T, error)) (T, error) {
	start := time.Now()
	in, err := setUp(len(r.setups))
	if err != nil {
		return in, fmt.Errorf("set-up: %w", err)
	}
	r.setups = append(r.setups, time.Since(start).Seconds())
	return in, nil
}

// fail counts one failed operation, keeping the first error for the
// report.
func (r *run) fail(err error) {
	if r.failed == 0 {
		r.info["first_failure"] = err.Error()
	}
	r.failed++
}

// check records one correctness check.
func (r *run) check(name string, ok bool, format string, args ...any) {
	r.checks = append(r.checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

// endToEnd assembles the untraced run's metrics.
func (r *run) endToEnd(rssMB float64) map[string]metricValue {
	vals := map[string]float64{
		mSetup:      median(r.setups),
		mThroughput: float64(r.attempted) / r.measured.Seconds(),
		mLatencyP50: percentile(r.latencies, 0.50),
		mLatencyP90: percentile(r.latencies, 0.90),
		mPeakRSS:    rssMB,
	}
	return table(endToEnd, vals)
}

func table(defs []metricDef, vals map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.Name] = metricValue{Value: vals[d.Name], Unit: d.Unit}
	}
	return out
}

// subSeed derives the seed of one generated input from the run seed
// and the input's coordinates, so every input is a pure function of
// the run seed.
func subSeed(seed int64, parts ...int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d", seed)
	for _, p := range parts {
		fmt.Fprintf(h, "/%d", p)
	}
	return int64(h.Sum64() >> 1)
}
