// Command clarinet runs the delay-noise analysis over a JSON case file
// produced by netgen, reproducing the per-net flow of the paper's
// industrial tool: C-effective + Thevenin characterization, linear
// superposition with the transient holding resistance, and worst-case
// aggressor alignment. Nets are analyzed in parallel across a worker
// pool with shared single-flight caches for receiver alignment tables,
// driver characterizations, and PRIMA reduced-order models.
//
// Usage:
//
//	clarinet -i nets.json [-hold thevenin|transient] [-align exhaustive|input|prechar]
//	         [-workers N] [-timeout 30s] [-net-timeout 5s] [-rescue] [-fallback]
//	         [-journal run.journal] [-journal-format binary|jsonl] [-resume run.journal]
//	         [-quality] [-metrics run.json] [-warm-store dir]
//	clarinet -path -i paths.json [-path-iterations 2] [-path-timeout 60s]
//	         [-path-report report.json] [-journal run.journal] [-resume run.journal]
//
// Path mode (-path) analyzes the case file's multi-stage fabrics end to
// end (netgen -topology path): each stage's noisy receiver-output
// waveform becomes the next stage's victim input, and the report
// decomposes the end-to-end 50%->50% path delay noise into per-stage
// increments next to the per-stage worst-case sum. -journal/-resume
// checkpoint at stage granularity — a killed path run resumes mid-path,
// re-simulating nothing it already journaled, and produces a
// byte-identical -path-report. The warm-store identity of a path run
// includes the stage-graph topology hash, so path and per-net runs
// never share warm state.
//
// -workers 0 (the default) uses one worker per available core
// (runtime.GOMAXPROCS); negative values are rejected. -char-cache-res
// tunes the relative bucket resolution of the shared driver
// characterization cache; a negative value disables that cache.
//
// Resilience: -rescue arms the full convergence rescue ladder (DC
// homotopy and timestep halving in the nonlinear solver, then the
// prechar-alignment fallback); -fallback arms only the last rung, as
// before. -net-timeout bounds each net's wall-clock budget — a net
// that overruns fails alone with the deadline error class while the
// batch continues. -quality appends a report column recording how each
// result was obtained (exact / rescued / fallback).
//
// Checkpoint/resume: -journal appends one record per completed net as
// it lands, so a killed run loses at most one record. The default
// encoding is the compact colblob binary framing; -journal-format=jsonl
// keeps the human-readable JSONL debug view. -resume replays a journal
// of either format (sniffed from the first byte), skips the nets it
// already covers, appends new records to the same file in its existing
// format, and produces the same merged report an uninterrupted run
// would have — both codecs round-trip float64 bit-exactly.
//
// Warm start: -warm-store points at a content-addressed store of
// session state (alignment tables, driver characterizations, PRIMA
// models). The batch loads the entry matching its exact configuration
// before analyzing and saves its accumulated state after, so repeated
// runs skip re-characterization entirely. State computed under a
// different technology, library, or cache configuration lives under a
// different key and reads as a clean miss.
//
// The run aborts cleanly on SIGINT/SIGTERM or when -timeout fires:
// in-flight nets stop at the next solver checkpoint and the partial
// report is still written. A run killed by -timeout exits with status
// 3 (cliutil.ExitCodeDeadline) after reporting, so schedulers can tell
// a slow batch from a broken one.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/clarinet"
	"repro/internal/cliutil"
	"repro/internal/delaynoise"
	"repro/internal/funcnoise"
	"repro/internal/pathnoise"
	"repro/internal/resilience"
	"repro/internal/warmstore"
)

func main() {
	cliutil.Init("clarinet")
	in := flag.String("i", "nets.json", "input case file (from netgen)")
	mode := flag.String("mode", "delay", "analysis mode: delay | func")
	holdFlag := flag.String("hold", "transient", "victim holding model: thevenin | transient")
	alignFlag := flag.String("align", "exhaustive", "alignment method: exhaustive | input | prechar")
	workers := flag.Int("workers", 0, "parallel analysis workers (0 = one per core, negative rejected)")
	timeout := flag.Duration("timeout", 0, "abort the batch after this duration (0 = no limit)")
	netTimeout := flag.Duration("net-timeout", 0, "per-net analysis budget, rescue included (0 = no limit)")
	rescueFlag := flag.Bool("rescue", false, "arm the full convergence rescue ladder (homotopy, timestep halving, prechar fallback)")
	fallback := flag.Bool("fallback", false, "fall back to prechar alignment when the exhaustive search fails to converge")
	journalPath := flag.String("journal", "", "append one record per completed net to this file")
	journalFormat := flag.String("journal-format", "binary", "journal encoding: binary (compact colblob frames) | jsonl (debug view)")
	resumePath := flag.String("resume", "", "resume from this journal: skip its completed nets and append new records to it")
	quality := flag.Bool("quality", false, "append a result-quality column (exact / rescued / fallback) to the report")
	metricsOut := flag.String("metrics", "", "write run metrics as JSON to this file")
	warmStore := flag.String("warm-store", "", "content-addressed warm-start store directory: load session state before the batch, save it after")
	charRes := flag.Float64("char-cache-res", 0, "driver characterization cache bucket resolution (0 = default, negative disables)")
	pathMode := flag.Bool("path", false, "path mode: analyze the file's multi-stage fabrics end to end")
	pathIters := flag.Int("path-iterations", 0, "window-fixpoint passes per path (0 = default)")
	pathTimeout := flag.Duration("path-timeout", 0, "per-path analysis budget (0 = no limit)")
	pathReport := flag.String("path-report", "", "write the canonical path report JSON to this file")
	flag.Parse()
	cliutil.ExitIfVersion()

	hold, err := clarinet.ParseHold(*holdFlag)
	if err != nil {
		cliutil.Usagef("unknown hold model %q", *holdFlag)
	}
	alignMethod, err := clarinet.ParseAlign(*alignFlag)
	if err != nil {
		cliutil.Usagef("unknown alignment method %q", *alignFlag)
	}
	if *mode != "delay" && *mode != "func" {
		cliutil.Usagef("unknown mode %q", *mode)
	}
	if (*journalPath != "" || *resumePath != "") && *mode != "delay" {
		cliutil.Usagef("-journal/-resume only apply to -mode delay")
	}
	if *pathMode && *mode != "delay" {
		cliutil.Usagef("-path only applies to -mode delay")
	}

	var policy resilience.Policy
	if *rescueFlag {
		policy = resilience.DefaultPolicy()
	}
	if *fallback {
		policy.FallbackToPrechar = true
	}
	if *netTimeout > 0 {
		policy.NetTimeout = *netTimeout
	}

	lib := cliutil.Library()
	var names []string
	var cases []*delaynoise.Case
	var paths []*pathnoise.Path
	if *pathMode {
		names, cases, paths = cliutil.MustLoadPaths(*in, lib)
		log.Printf("loaded %d paths (%d stage cases) from %s", len(paths), len(cases), *in)
	} else {
		names, cases = cliutil.MustLoadCases(*in, lib)
		log.Printf("loaded %d nets from %s", len(cases), *in)
	}

	tool, err := clarinet.New(lib, clarinet.Config{
		Hold:         hold,
		Align:        alignMethod,
		Workers:      *workers,
		CharCacheRes: *charRes,
		Resilience:   policy,
	})
	if err != nil {
		log.Fatal(err)
	}
	if *pathMode {
		// Before any warm-store traffic: path-mode warm state is keyed
		// by the stage-graph topology, never shared with per-net runs.
		tool.Session().SetTopology(pathnoise.TopologyHash(paths))
	}

	var store *warmstore.Store
	if *warmStore != "" {
		store, err = warmstore.Open(*warmStore, tool.Metrics())
		if err != nil {
			log.Fatal(err)
		}
		if ok, err := tool.Session().LoadWarm(store); err != nil {
			log.Fatal(err)
		} else if ok {
			log.Printf("warm start: loaded session state from %s (%d alignment tables resident)",
				*warmStore, tool.Session().TableCount())
		}
	}

	if *pathMode {
		runPathMode(tool, store, paths, pathFlags{
			iterations:    *pathIters,
			pathTimeout:   *pathTimeout,
			timeout:       *timeout,
			journalPath:   *journalPath,
			journalFormat: *journalFormat,
			resumePath:    *resumePath,
			reportPath:    *pathReport,
			metricsOut:    *metricsOut,
		})
		return
	}

	// Resume before opening the journal for append: the journal file and
	// the resume file are usually the same path.
	var prior map[string]clarinet.NetReport
	if *resumePath != "" {
		prior, err = clarinet.ReadJournalFile(*resumePath)
		if err != nil {
			log.Fatal(err)
		}
		if len(prior) > 0 {
			log.Printf("resuming: %d nets already complete in %s", len(prior), *resumePath)
		} else {
			log.Printf("resume journal %s empty or absent; starting fresh", *resumePath)
		}
		if *journalPath == "" {
			*journalPath = *resumePath
		}
	}
	var journal *clarinet.Journal
	if *journalPath != "" {
		codec, err := clarinet.CodecByName(*journalFormat)
		if err != nil {
			cliutil.Usagef("%v", err)
		}
		j, closeJournal, err := clarinet.OpenJournal(*journalPath, codec)
		if err != nil {
			log.Fatal(err)
		}
		defer closeJournal()
		journal = j
	}

	ctx, cancel := cliutil.Context(*timeout)
	defer cancel()

	start := time.Now()
	switch *mode {
	case "delay":
		reports := tool.AnalyzeBatch(ctx, names, cases, prior, journal)
		clarinet.WriteReportOpts(os.Stdout, reports, clarinet.ReportOptions{Quality: *quality})
		fmt.Printf("\nanalyzed %d nets in %v (%s hold, %s alignment)\n",
			len(cases), time.Since(start).Round(time.Millisecond), hold, alignMethod)
	case "func":
		reports := tool.FunctionalAllContext(ctx, names, cases, funcnoise.Options{})
		clarinet.WriteFuncReport(os.Stdout, reports)
		fmt.Printf("\nfunctional-noise analysis of %d nets in %v\n",
			len(cases), time.Since(start).Round(time.Millisecond))
	default:
		cliutil.Usagef("unknown mode %q", *mode)
	}
	clarinet.WriteMetricsSummary(os.Stdout, tool)
	if err := ctx.Err(); err != nil {
		log.Printf("batch interrupted: %v", err)
	}
	if store != nil {
		// A failed save costs the next run its warm start, not this run
		// its report.
		if err := tool.Session().SaveWarm(store); err != nil {
			log.Printf("warm store save failed: %v", err)
		}
	}
	cliutil.MustWriteMetrics(*metricsOut, tool.Metrics().Snapshot())
	cliutil.ExitIfDeadline(ctx, *timeout)
}

// pathFlags carries the -path mode flag values into runPathMode.
type pathFlags struct {
	iterations    int
	pathTimeout   time.Duration
	timeout       time.Duration
	journalPath   string
	journalFormat string
	resumePath    string
	reportPath    string
	metricsOut    string
}

// runPathMode is the -path counterpart of the delay-mode batch flow:
// stage-granular journal/resume, the end-to-end path report on stdout,
// and the canonical report JSON for downstream byte comparison.
func runPathMode(tool *clarinet.Tool, store *warmstore.Store, paths []*pathnoise.Path, f pathFlags) {
	var prior map[pathnoise.StageKey]pathnoise.StageRecord
	if f.resumePath != "" {
		var err error
		prior, err = pathnoise.ReadPathJournalFile(f.resumePath)
		if err != nil {
			log.Fatal(err)
		}
		if len(prior) > 0 {
			log.Printf("resuming: %d stage records already in %s", len(prior), f.resumePath)
		} else {
			log.Printf("resume journal %s empty or absent; starting fresh", f.resumePath)
		}
		if f.journalPath == "" {
			f.journalPath = f.resumePath
		}
	}
	var journal *pathnoise.PathJournal
	if f.journalPath != "" {
		codec, err := pathnoise.StageCodecByName(f.journalFormat)
		if err != nil {
			cliutil.Usagef("%v", err)
		}
		j, closeJournal, err := pathnoise.OpenPathJournal(f.journalPath, codec)
		if err != nil {
			log.Fatal(err)
		}
		defer closeJournal()
		journal = j
	}

	ctx, cancel := cliutil.Context(f.timeout)
	defer cancel()

	start := time.Now()
	reports, err := pathnoise.Run(ctx, tool, paths, pathnoise.Options{
		MaxIterations: f.iterations,
		PathTimeout:   f.pathTimeout,
		Journal:       journal,
		Prior:         prior,
	})
	if err != nil {
		log.Printf("path run interrupted: %v", err)
	}
	pathnoise.WriteReport(os.Stdout, reports)
	fmt.Printf("\nanalyzed %d paths in %v\n", len(paths), time.Since(start).Round(time.Millisecond))
	if f.reportPath != "" {
		b, err := pathnoise.MarshalReport(reports)
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(f.reportPath, b, 0o644); err != nil {
			log.Fatal(err)
		}
		log.Printf("path report written to %s", f.reportPath)
	}
	clarinet.WriteMetricsSummary(os.Stdout, tool)
	if store != nil {
		if err := tool.Session().SaveWarm(store); err != nil {
			log.Printf("warm store save failed: %v", err)
		}
	}
	cliutil.MustWriteMetrics(f.metricsOut, tool.Metrics().Snapshot())
	cliutil.ExitIfDeadline(ctx, f.timeout)
}
