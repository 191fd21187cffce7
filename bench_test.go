// Benchmarks, one per reproduced table/figure (see DESIGN.md section 4).
// Each benchmark regenerates its experiment's data series and reports the
// headline numbers as custom metrics, so `go test -bench=.` doubles as
// the experiment harness. The scatter experiments (Fig 13/14) run on
// reduced populations here; use cmd/figures -nets 300 for the full
// paper-scale run.
package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"strconv"
	"testing"
	"time"

	"repro/internal/clarinet"
	"repro/internal/delaynoise"
	"repro/internal/device"
	"repro/internal/engine"
	"repro/internal/lsim"
	"repro/internal/metrics"
	"repro/internal/mna"
	"repro/internal/mor"
	"repro/internal/netlist"
	"repro/internal/pathnoise"
	"repro/internal/repro"
	"repro/internal/stats"
	"repro/internal/warmstore"
	"repro/internal/waveform"
	"repro/internal/workload"
)

// benchNets returns the population size for scatter benchmarks,
// overridable with REPRO_NETS for full-scale runs.
func benchNets(def int) int {
	if s := os.Getenv("REPRO_NETS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return def
}

func BenchmarkFig02TheveninNoise(b *testing.B) {
	ctx := repro.NewContext()
	for i := 0; i < b.N; i++ {
		r, err := repro.Fig02(ctx)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*r.TheveninPeak/r.GoldenPeak, "thev-peak-%")
		b.ReportMetric(100*r.RtrPeak/r.GoldenPeak, "rtr-peak-%")
		b.ReportMetric(r.Rtr/r.Rth, "Rtr/Rth")
	}
}

func BenchmarkFig03ReceiverObjective(b *testing.B) {
	ctx := repro.NewContext()
	for i := 0; i < b.N; i++ {
		r, err := repro.Fig03(ctx)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.InputObjNoise*1e12, "input-obj-ps")
		b.ReportMetric(r.OutputObjNoise*1e12, "output-obj-ps")
		b.ReportMetric(r.RecvOutNoisePkV*1e3, "glitch-mV")
	}
}

// Floors of the model-error metrics (stats.FloorRelErr): against a
// reference below its floor the error is absolute, in units of the
// floor, so a near-zero golden value cannot blow the ratio up.
const (
	delayNoiseFloor = 5e-12 // s
	peakNoiseFloor  = 10e-3 // V
)

func BenchmarkFig05TransientHoldingR(b *testing.B) {
	ctx := repro.NewContext()
	for i := 0; i < b.N; i++ {
		r, err := repro.Fig02(ctx)
		if err != nil {
			b.Fatal(err)
		}
		// Figure 5's claim: the Rtr noise waveform tracks the nonlinear
		// one; report the residual peak error of both models.
		b.ReportMetric(100*stats.FloorRelErr(r.RtrPeak, r.GoldenPeak, peakNoiseFloor), "rtr-err-%")
		b.ReportMetric(100*stats.FloorRelErr(r.TheveninPeak, r.GoldenPeak, peakNoiseFloor), "thev-err-%")
	}
}

func BenchmarkFig06AggressorAlignment(b *testing.B) {
	ctx := repro.NewContext()
	for i := 0; i < b.N; i++ {
		r, err := repro.Fig06(ctx)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.SmallAlignedErr*1e12, "small-load-err-ps")
		b.ReportMetric(r.LargeAlignedErr*1e12, "large-load-err-ps")
	}
}

func BenchmarkFig07aLoadSweep(b *testing.B) {
	ctx := repro.NewContext()
	for i := 0; i < b.N; i++ {
		r, err := repro.Fig07(ctx)
		if err != nil {
			b.Fatal(err)
		}
		// Alignment sensitivity: delay spread of the smallest vs largest
		// load curve.
		small := seriesSpread(r.Loads[0])
		large := seriesSpread(r.Loads[len(r.Loads)-1])
		b.ReportMetric(small*1e12, "small-load-spread-ps")
		b.ReportMetric(large*1e12, "large-load-spread-ps")
	}
}

func BenchmarkFig07bSlewSweep(b *testing.B) {
	ctx := repro.NewContext()
	for i := 0; i < b.N; i++ {
		r, err := repro.Fig07(ctx)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(r.Slews)), "curves")
	}
}

func BenchmarkFig08AlignmentVoltage(b *testing.B) {
	ctx := repro.NewContext()
	for i := 0; i < b.N; i++ {
		r, err := repro.Fig08(ctx)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(r.Widths)+len(r.Heights)), "curves")
	}
}

func BenchmarkFig09aPredictionError(b *testing.B) {
	ctx := repro.NewContext()
	for i := 0; i < b.N; i++ {
		r, err := repro.Fig09(ctx)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*r.WorstSlewLoadErr, "worst-err-%")
	}
}

func BenchmarkFig09bPredictionError(b *testing.B) {
	ctx := repro.NewContext()
	for i := 0; i < b.N; i++ {
		r, err := repro.Fig09(ctx)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*r.WorstWidthHeightErr, "worst-err-%")
	}
}

func BenchmarkFig13DriverModelAccuracy(b *testing.B) {
	ctx := repro.NewContext().Quick(benchNets(8))
	for i := 0; i < b.N; i++ {
		r, err := repro.Fig13(ctx)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*r.Thevenin.MeanRelErr, "thev-err-%")
		b.ReportMetric(100*r.Rtr.MeanRelErr, "rtr-err-%")
		b.ReportMetric(float64(r.Thevenin.UnderestimateN), "thev-under")
	}
}

func BenchmarkFig14AlignmentAccuracy(b *testing.B) {
	ctx := repro.NewContext().Quick(benchNets(4))
	for i := 0; i < b.N; i++ {
		r, err := repro.Fig14(ctx)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Ours.WorstAbsErr*1e12, "ours-worst-ps")
		b.ReportMetric(r.Baseline.WorstAbsErr*1e12, "baseline-worst-ps")
	}
}

func BenchmarkTextAlignedPeakError(b *testing.B) {
	ctx := repro.NewContext()
	for i := 0; i < b.N; i++ {
		r, err := repro.AlignedPeakError(ctx)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*r.WorstErr, "worst-err-%")
	}
}

func BenchmarkTextConvergence(b *testing.B) {
	ctx := repro.NewContext().Quick(benchNets(8))
	for i := 0; i < b.N; i++ {
		r, err := repro.Convergence(ctx)
		if err != nil {
			b.Fatal(err)
		}
		within2 := r.Iterations[1] + r.Iterations[2]
		b.ReportMetric(100*float64(within2)/float64(r.Nets), "within-2-iters-%")
	}
}

func BenchmarkTextPrecharBudget(b *testing.B) {
	ctx := repro.NewContext()
	for i := 0; i < b.N; i++ {
		r, err := repro.PrecharBudget(ctx)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.Points), "points")
		b.ReportMetric(100*r.WorstErr, "worst-err-%")
	}
}

func BenchmarkSTAWindowIteration(b *testing.B) {
	ctx := repro.NewContext()
	for i := 0; i < b.N; i++ {
		r, err := repro.WindowIteration(ctx)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.Iterations), "iterations")
	}
}

// BenchmarkAblationHoldingModels isolates the holding-resistance choice
// on a single representative net: the error of each model against the
// nonlinear reference at the same alignment.
func BenchmarkAblationHoldingModels(b *testing.B) {
	ctx := repro.NewContext()
	gen := workload.NewGenerator(ctx.Lib, workload.DefaultProfile(), ctx.Seed)
	c, err := gen.Next(0)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		rtr, err := delaynoise.Analyze(c, delaynoise.Options{
			Hold: delaynoise.HoldTransient, Align: delaynoise.AlignExhaustive,
		})
		if err != nil {
			b.Fatal(err)
		}
		thev, err := delaynoise.Analyze(c, delaynoise.Options{
			Hold: delaynoise.HoldThevenin, Align: delaynoise.AlignExhaustive,
		})
		if err != nil {
			b.Fatal(err)
		}
		golden, err := delaynoise.GoldenAtShifts(c, delaynoise.PeakShifts(rtr.NoisePeakTimes, rtr.TPeak))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*stats.FloorRelErr(thev.DelayNoise, golden.DelayNoise, delayNoiseFloor), "thev-err-%")
		b.ReportMetric(100*stats.FloorRelErr(rtr.DelayNoise, golden.DelayNoise, delayNoiseFloor), "rtr-err-%")
	}
}

// BenchmarkAblationPRIMA compares the linear flow with and without
// model-order reduction (accuracy delta reported; time visible in ns/op
// across the two sub-benchmarks).
func BenchmarkAblationPRIMA(b *testing.B) {
	ctx := repro.NewContext()
	gen := workload.NewGenerator(ctx.Lib, workload.DefaultProfile(), ctx.Seed)
	c, err := gen.Next(1)
	if err != nil {
		b.Fatal(err)
	}
	full, err := delaynoise.Analyze(c, delaynoise.Options{Align: delaynoise.AlignReceiverInput})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := delaynoise.Analyze(c, delaynoise.Options{Align: delaynoise.AlignReceiverInput}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("prima8", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r, err := delaynoise.Analyze(c, delaynoise.Options{
				Align: delaynoise.AlignReceiverInput, PRIMAOrder: 8,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(math.Abs(r.DelayNoise-full.DelayNoise)*1e12, "delta-ps")
		}
	})
}

// BenchmarkLinearTransient is a micro-benchmark of the linear simulator
// on a reduced and a full interconnect (the efficiency argument for
// PRIMA in Section 1).
func BenchmarkLinearTransient(b *testing.B) {
	ctx := repro.NewContext()
	gen := workload.NewGenerator(ctx.Lib, workload.DefaultProfile(), ctx.Seed)
	c, err := gen.Next(2)
	if err != nil {
		b.Fatal(err)
	}
	ckt := c.Net.Circuit.Clone()
	ckt.AddDriver("d", c.Net.VictimIn, waveform.Ramp(2e-10, 2e-10, 0, ctx.Tech.Vdd), 1000)
	for k, aggIn := range c.Net.AggIn {
		ckt.AddDriver(fmt.Sprintf("h%d", k), aggIn, waveform.Constant(ctx.Tech.Vdd), 500)
	}
	sys, err := mna.Build(ckt)
	if err != nil {
		b.Fatal(err)
	}
	opt := lsim.Options{TStop: 3e-9, Step: 1e-12, InitDC: true}
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := lsim.Run(sys, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
	rom, err := mor.Reduce(sys, 8)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("prima8", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := rom.Run(opt); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkClarinetBatch times the tool-level batch flow on a bus-style
// workload (each generated net appears three times, as repeated
// structures do on real buses). The "seed" sub-benchmark pins the original shipped
// configuration — two workers, no shared caches — while "parallel" runs
// the current defaults: one worker per core plus the single-flight
// characterization and PRIMA caches. Comparing ns/op between the two
// gives the engine speedup. When REPRO_METRICS_OUT is set, the parallel
// run writes its metrics snapshot (cache hits/misses, simulation
// counts, stage timers) to that path as JSON.
func BenchmarkClarinetBatch(b *testing.B) {
	lib := device.NewLibrary(device.Default180())
	gen := workload.NewGenerator(lib, workload.DefaultProfile(), 31)
	base, err := gen.Population(benchNets(8))
	if err != nil {
		b.Fatal(err)
	}
	var names []string
	var cases []*delaynoise.Case
	for rep := 0; rep < 3; rep++ {
		for i, c := range base {
			names = append(names, fmt.Sprintf("net%04d_%d", i, rep))
			cases = append(cases, c)
		}
	}
	for _, tc := range []struct {
		name string
		cfg  clarinet.Config
	}{
		{"seed", clarinet.Config{Workers: 2, CharCacheRes: -1}},
		{"parallel", clarinet.Config{}},
	} {
		tc.cfg.Hold = delaynoise.HoldTransient
		tc.cfg.Align = delaynoise.AlignReceiverInput
		b.Run(tc.name, func(b *testing.B) {
			var tool *clarinet.Tool
			for i := 0; i < b.N; i++ {
				tool = clarinet.MustNew(lib, tc.cfg)
				for _, r := range tool.AnalyzeAll(names, cases) {
					if r.Err != nil {
						b.Fatalf("%s: %v", r.Name, r.Err)
					}
				}
			}
			s := tool.Metrics().Snapshot()
			hits, misses, _ := s.CacheRatio("cache.char.full")
			b.ReportMetric(float64(hits), "char-hits")
			b.ReportMetric(float64(misses), "char-misses")
			if out := os.Getenv("REPRO_METRICS_OUT"); out != "" && tc.name == "parallel" {
				f, err := os.Create(out)
				if err != nil {
					b.Fatal(err)
				}
				if err := s.WriteJSON(f); err != nil {
					b.Fatal(err)
				}
				if err := f.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func seriesSpread(s repro.Series) float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, y := range s.Y {
		lo = math.Min(lo, y)
		hi = math.Max(hi, y)
	}
	return hi - lo
}

// BenchmarkLargeNetSolvers exercises the "thousands of elements" regime
// the paper motivates: a long coupled line of 802 states, which
// linalg.Factor steps on the banded Cholesky under RCM.
func BenchmarkLargeNetSolvers(b *testing.B) {
	ckt := netlist.NewCircuit()
	const segs = 400
	ckt.AddDriver("agg", "a0", waveform.Ramp(2e-10, 1e-10, 1.8, 0), 300)
	ckt.AddDriver("vic", "v0", waveform.Constant(0), 900)
	for i := 1; i <= segs; i++ {
		ckt.AddR(fmt.Sprintf("ra%d", i), fmt.Sprintf("a%d", i-1), fmt.Sprintf("a%d", i), 2)
		ckt.AddC(fmt.Sprintf("ca%d", i), fmt.Sprintf("a%d", i), "0", 0.2e-15)
		ckt.AddR(fmt.Sprintf("rv%d", i), fmt.Sprintf("v%d", i-1), fmt.Sprintf("v%d", i), 2)
		ckt.AddC(fmt.Sprintf("cv%d", i), fmt.Sprintf("v%d", i), "0", 0.2e-15)
		ckt.AddC(fmt.Sprintf("cc%d", i), fmt.Sprintf("v%d", i), fmt.Sprintf("a%d", i), 0.1e-15)
	}
	sys, err := mna.Build(ckt)
	if err != nil {
		b.Fatal(err)
	}
	opt := lsim.Options{TStop: 1e-9, Step: 2e-12, InitDC: true}
	b.Run("bandedRCM", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := lsim.Run(sys, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationCorners re-runs the single-net holding-model
// comparison at the fast and slow process corners: the paper's
// conclusion (Rtr beats the Thevenin holding resistance) should be
// process-robust.
func BenchmarkAblationCorners(b *testing.B) {
	for _, tc := range []struct {
		name string
		tech *device.Technology
	}{
		{"tt", device.Default180()},
		{"ff", device.Fast180()},
		{"ss", device.Slow180()},
	} {
		b.Run(tc.name, func(b *testing.B) {
			lib := device.NewLibrary(tc.tech)
			gen := workload.NewGenerator(lib, workload.DefaultProfile(), 20010618)
			c, err := gen.Next(0)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				rtr, err := delaynoise.Analyze(c, delaynoise.Options{
					Hold: delaynoise.HoldTransient, Align: delaynoise.AlignExhaustive,
				})
				if err != nil {
					b.Fatal(err)
				}
				thev, err := delaynoise.Analyze(c, delaynoise.Options{
					Hold: delaynoise.HoldThevenin, Align: delaynoise.AlignExhaustive,
				})
				if err != nil {
					b.Fatal(err)
				}
				golden, err := delaynoise.GoldenAtShifts(c, delaynoise.PeakShifts(rtr.NoisePeakTimes, rtr.TPeak))
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(100*stats.FloorRelErr(thev.DelayNoise, golden.DelayNoise, delayNoiseFloor), "thev-err-%")
				b.ReportMetric(100*stats.FloorRelErr(rtr.DelayNoise, golden.DelayNoise, delayNoiseFloor), "rtr-err-%")
			}
		})
	}
}

// BenchmarkAblationAggressorTransient measures the paper's sketched
// extension (transient holding resistances for the shorted aggressor
// drivers) against the plain flow.
func BenchmarkAblationAggressorTransient(b *testing.B) {
	ctx := repro.NewContext()
	gen := workload.NewGenerator(ctx.Lib, workload.DefaultProfile(), ctx.Seed+7)
	c, err := gen.Next(0)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		plain, err := delaynoise.Analyze(c, delaynoise.Options{
			Hold: delaynoise.HoldTransient, Align: delaynoise.AlignExhaustive,
		})
		if err != nil {
			b.Fatal(err)
		}
		ext, err := delaynoise.Analyze(c, delaynoise.Options{
			Hold: delaynoise.HoldTransient, Align: delaynoise.AlignExhaustive,
			AggressorTransient: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		golden, err := delaynoise.GoldenAtShifts(c, delaynoise.PeakShifts(ext.NoisePeakTimes, ext.TPeak))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*stats.FloorRelErr(plain.DelayNoise, golden.DelayNoise, delayNoiseFloor), "plain-err-%")
		b.ReportMetric(100*stats.FloorRelErr(ext.DelayNoise, golden.DelayNoise, delayNoiseFloor), "ext-err-%")
	}
}

// journalBenchRecords builds a reference batch of journal records with
// full-entropy solver floats (quantized values would print short in
// JSON and flatter the binary ratio). Every tenth net is an error
// record, mirroring a realistic rescue-ladder mix.
func journalBenchRecords(n int) []clarinet.JournalRecord {
	state := uint64(0x9e3779b97f4a7c15)
	next := func(scale float64) float64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return scale * (1 + float64(state>>11)/(1<<53))
	}
	recs := make([]clarinet.JournalRecord, n)
	for i := range recs {
		name := fmt.Sprintf("net%04d", i)
		if i%10 == 9 {
			recs[i] = clarinet.JournalRecord{
				Net: name, Class: "convergence",
				Error: fmt.Sprintf("nlsim: newton stalled at t=%g", next(1e-10)),
			}
			continue
		}
		quiet, noise := next(2e-10), next(2e-11)
		recs[i] = clarinet.JournalRecord{
			Net: name, Quality: "exact",
			Result: &clarinet.JournalResult{
				VictimCeff: next(1e-13), VictimRth: next(800), VictimRtr: next(600),
				PulseHeight: next(0.4), PulseWidth: next(3e-11), TPeak: next(1.5e-10),
				QuietCombinedDelay: quiet, NoisyCombinedDelay: quiet + noise,
				DelayNoise: noise, InterconnectDelayNoise: next(1e-12),
				Iterations: 2 + i%5,
			},
		}
	}
	return recs
}

// BenchmarkJournalCodec encodes the 300-net reference batch through
// both journal codecs and reports bytes per net for each — the binary
// codec's acceptance bar is >=5x fewer bytes per net than JSONL.
func BenchmarkJournalCodec(b *testing.B) {
	recs := journalBenchRecords(300)
	encode := func(codec clarinet.JournalCodec) int {
		var buf bytes.Buffer
		w := codec.NewWriter(&buf)
		for _, rec := range recs {
			if err := w.WriteRecord(rec); err != nil {
				b.Fatal(err)
			}
		}
		return buf.Len()
	}
	var binLen, jsonlLen int
	for i := 0; i < b.N; i++ {
		binLen = encode(clarinet.Binary)
		jsonlLen = encode(clarinet.JSONL)
	}
	nets := float64(len(recs))
	b.ReportMetric(float64(binLen)/nets, "journal-B/net")
	b.ReportMetric(float64(jsonlLen)/nets, "jsonl-B/net")
	b.ReportMetric(float64(jsonlLen)/float64(binLen), "jsonl/binary-x")
}

// BenchmarkWarmStart measures second-process session startup: a cold
// session builds its alignment tables from scratch; a warm one loads
// them from a content-addressed warmstore entry saved by an earlier
// process. The acceptance bar is a >=10x faster warm start.
func BenchmarkWarmStart(b *testing.B) {
	ctx := context.Background()
	st, err := warmstore.Open(b.TempDir(), metrics.NewRegistry())
	if err != nil {
		b.Fatal(err)
	}
	cfg := func() engine.Config {
		return engine.Config{PrecharGrid: 5, Metrics: metrics.NewRegistry()}
	}
	startup := func(warm bool) {
		s := engine.New(cfg())
		if warm {
			ok, err := s.LoadWarm(st)
			if err != nil || !ok {
				b.Fatalf("LoadWarm = (%v, %v), want hit", ok, err)
			}
		}
		for _, cellName := range []string{"INVX2", "NAND2X1"} {
			cell, err := s.Lib().Cell(cellName)
			if err != nil {
				b.Fatal(err)
			}
			for _, rising := range []bool{true, false} {
				if _, err := s.Table(ctx, cell, rising); err != nil {
					b.Fatal(err)
				}
			}
		}
		if !warm {
			if err := s.SaveWarm(st); err != nil {
				b.Fatal(err)
			}
		}
	}
	var coldNs, warmNs time.Duration
	for i := 0; i < b.N; i++ {
		start := time.Now()
		startup(false)
		coldNs += time.Since(start)
		start = time.Now()
		startup(true)
		warmNs += time.Since(start)
	}
	n := float64(b.N)
	b.ReportMetric(float64(coldNs)/float64(time.Millisecond)/n, "cold-ms")
	b.ReportMetric(float64(warmNs)/float64(time.Millisecond)/n, "warm-ms")
	b.ReportMetric(float64(coldNs)/float64(warmNs), "warm-speedup-x")
}

// BenchmarkPathBatch times path-mode analysis of 8 independent 4-stage
// paths. The "serial" sub-benchmark forces one worker, so every stage
// of every path executes back to back — the per-stage baseline a
// non-DAG batch would pay — while "dag" runs the scheduler at the
// default worker count, overlapping independent paths while respecting
// stage dependencies within each. Comparing ns/op between the two gives
// the scheduler speedup (acceptance bar: >1.5x on a multi-core runner);
// stages/s counts stage executions and nets/s the underlying per-net
// engine runs (two chains per stage).
func BenchmarkPathBatch(b *testing.B) {
	lib := device.NewLibrary(device.Default180())
	gen := workload.NewGenerator(lib, workload.DefaultProfile(), 47)
	_, _, paths, err := gen.PathPopulation(benchNets(8), 4)
	if err != nil {
		b.Fatal(err)
	}
	stageCount := 0
	for _, p := range paths {
		stageCount += len(p.Stages)
	}
	cfg := clarinet.Config{Hold: delaynoise.HoldTransient, Align: delaynoise.AlignReceiverInput}
	for _, tc := range []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{"dag", 0}, // tool default: one worker per core
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tool := clarinet.MustNew(lib, cfg)
				start := time.Now()
				reports, err := pathnoise.Run(context.Background(), tool, paths,
					pathnoise.Options{MaxIterations: 1, Workers: tc.workers})
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range reports {
					if r.Failed() {
						b.Fatalf("path %s: %s", r.Name, r.Error)
					}
				}
				elapsed := time.Since(start).Seconds()
				b.ReportMetric(float64(stageCount)/elapsed, "stages/s")
				b.ReportMetric(float64(2*stageCount)/elapsed, "nets/s")
			}
		})
	}
}
