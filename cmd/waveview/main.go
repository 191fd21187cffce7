// Command waveview dumps the key waveforms of one net's analysis as CSV
// for plotting: the noiseless victim transition at the receiver input,
// the per-aggressor noise pulses, the worst-aligned composite, the noisy
// waveform, and the full nonlinear reference.
//
// Path mode (-path) dumps stage-by-stage panels for one multi-stage
// fabric instead: the receiver-output waveform of every stage of the
// path, quiet chain and noisy chain overlaid per stage, all shifted
// into the path-absolute time frame so the panels line up on one axis
// and the accumulating arrival skew is visible directly. A stage's
// series end where the settled-tail certificate stopped its receiver
// run, with the output within 2% of Vdd of its final value; each curve
// holds flat after that point.
//
// Usage:
//
//	waveview -i nets.json -net net0000 [-o waves.csv] [-points 800]
//	waveview -i paths.json -path p0 [-o waves.csv] [-points 800]
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/align"
	"repro/internal/clarinet"
	"repro/internal/cliutil"
	"repro/internal/delaynoise"
	"repro/internal/pathnoise"
	"repro/internal/waveform"
)

func main() {
	cliutil.Init("waveview")
	in := flag.String("i", "nets.json", "input case file (from netgen)")
	netName := flag.String("net", "", "net name to dump (default: first)")
	pathName := flag.String("path", "", "path mode: dump per-stage panels for this path (file needs a paths section)")
	out := flag.String("o", "", "output CSV (default: stdout)")
	points := flag.Int("points", 800, "samples per waveform")
	flag.Parse()
	cliutil.ExitIfVersion()

	w := os.Stdout
	if *out != "" {
		file, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer file.Close()
		w = file
	}
	if *pathName != "" {
		dumpPath(w, *in, *pathName, *points)
		return
	}
	dumpNet(w, *in, *netName, *points)
}

// dumpNet is the classic single-net view: one analysis, every waveform
// the alignment decision was made from.
func dumpNet(w io.Writer, in, netName string, points int) {
	lib := cliutil.Library()
	names, cases := cliutil.MustLoadCases(in, lib)
	idx := cliutil.MustFindNet(names, netName)
	c := cases[idx]

	res, err := delaynoise.Analyze(c, delaynoise.Options{
		Hold: delaynoise.HoldTransient, Align: delaynoise.AlignExhaustive,
	})
	if err != nil {
		log.Fatal(err)
	}
	goldenNoisy, goldenQuiet, err := delaynoise.GoldenWaveforms(c,
		delaynoise.PeakShifts(res.NoisePeakTimes, res.TPeak))
	if err != nil {
		log.Fatal(err)
	}

	cols := []waveform.Column{
		{Name: "noiseless_linear", W: res.NoiselessRecvIn},
		{Name: "noisy_linear", W: align.NoisyInput(res.NoiselessRecvIn, res.Composite, res.TPeak)},
		{Name: "composite_noise", W: res.Composite.Shift(res.TPeak)},
		{Name: "noiseless_nonlinear", W: goldenQuiet},
		{Name: "noisy_nonlinear", W: goldenNoisy},
	}
	for k, p := range res.NoisePulses {
		cols = append(cols, waveform.Column{
			Name: "aggressor_" + string(rune('a'+k)), W: p,
		})
	}

	t0, t1 := waveform.Span(cols)
	if err := waveform.WriteCSV(w, t0, t1, points, cols); err != nil {
		log.Fatal(err)
	}
	log.Printf("net %s: delay noise %.2f ps at tpeak %.1f ps (Rth %.0f -> Rtr %.0f ohm)",
		names[idx], res.DelayNoise*1e12, res.TPeak*1e12, res.VictimRth, res.VictimRtr)
}

// dumpPath analyzes one path end to end and emits two columns per
// stage — sNN_noiseless and sNN_noisy, the receiver-output waveform of
// the quiet and noisy chains — shifted into the path-absolute frame.
// The records come from the final window-fixpoint pass, the same pass
// the path report is assembled from.
func dumpPath(w io.Writer, in, pathName string, points int) {
	lib := cliutil.Library()
	_, _, paths := cliutil.MustLoadPaths(in, lib)
	var p *pathnoise.Path
	for _, cand := range paths {
		if cand.Name == pathName {
			p = cand
		}
	}
	if p == nil {
		log.Fatalf("no path %q in %s", pathName, in)
	}

	tool, err := clarinet.New(lib, clarinet.Config{
		Hold: delaynoise.HoldTransient, Align: delaynoise.AlignExhaustive, Workers: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	ctx, cancel := cliutil.Context(0)
	defer cancel()
	recs := map[pathnoise.StageKey]pathnoise.StageRecord{}
	reports, err := pathnoise.Run(ctx, tool, []*pathnoise.Path{p}, pathnoise.Options{
		Emit: func(rec pathnoise.StageRecord) { recs[rec.Key()] = rec },
	})
	if err != nil {
		log.Fatal(err)
	}
	rep := reports[0]
	if rep.Failed() {
		log.Fatalf("path %s failed [%s]: %s", rep.Name, rep.Class, rep.Error)
	}

	last := rep.Iterations - 1
	var cols []waveform.Column
	for s := range p.Stages {
		rec, ok := recs[pathnoise.StageKey{Path: p.Name, Stage: s, Iter: last}]
		if !ok || rec.Result == nil || len(rec.QuietOutT) < 2 || len(rec.NoisyOutT) < 2 {
			log.Fatalf("stage %d of path %s has no waveform series in pass %d", s, p.Name, last)
		}
		cols = append(cols,
			waveform.Column{
				Name: fmt.Sprintf("s%02d_noiseless", s),
				W:    waveform.New(rec.QuietOutT, rec.QuietOutV).Shift(rec.Result.QuietShift),
			},
			waveform.Column{
				Name: fmt.Sprintf("s%02d_noisy", s),
				W:    waveform.New(rec.NoisyOutT, rec.NoisyOutV).Shift(rec.Result.NoisyShift),
			})
		log.Printf("stage %d %-14s arr quiet %.4gps noisy %.4gps  incr %.4gps cum %.4gps",
			s, rec.Net, rec.Result.QuietArr*1e12, rec.Result.NoisyArr*1e12,
			rec.Result.Incremental*1e12, rec.Result.Cumulative*1e12)
	}

	t0, t1 := waveform.Span(cols)
	if err := waveform.WriteCSV(w, t0, t1, points, cols); err != nil {
		log.Fatal(err)
	}
	log.Printf("path %s: %d stages, %d passes, path noise %.4g ps (sum-of-stages %.4g ps)",
		rep.Name, len(rep.Stages), rep.Iterations, rep.PathDelayNoise*1e12, rep.SumStageNoise*1e12)
}
