package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/clarinet"
	"repro/internal/delaynoise"
	"repro/internal/pathnoise"
	"repro/internal/resilience"
	"repro/internal/workload"
)

// pathIterations is the window-fixpoint pass count of every path run.
const pathIterations = 2

func (r *run) pathConfig() clarinet.Config {
	return clarinet.Config{Hold: delaynoise.HoldTransient, Align: delaynoise.AlignReceiverInput, Workers: runtime.GOMAXPROCS(0), Resilience: resilience.DefaultPolicy()}
}

// runPathsDAG measures path-level analysis: each round hands a set of
// chained multi-stage paths to pathnoise.Run on a fresh session, with a
// binary stage journal. Stages of one path depend on each other, so the
// DAG scheduler can only overlap different paths.
func runPathsDAG(r *run) error {
	cfg := r.pathConfig()
	r.workers = cfg.Workers
	var rounds [][]*pathnoise.Path
	setUp := func() (err error) {
		rounds, err = timedSetup(r, r.setupPaths)
		return err
	}
	var first []*pathnoise.PathReport
	for rd := 0; r.another(); rd++ {
		if err := r.setUpTo(r.setupsBefore(rd), setUp); err != nil {
			return err
		}
		reports, err := r.pathRound(cfg, rounds[rd])
		if err != nil {
			return err
		}
		if rd == 0 {
			first = reports
		}
		r.rounds++
	}
	if err := r.setUpTo(r.sz.setups, setUp); err != nil {
		return err
	}
	r.info["stages_per_round"] = len(rounds[0]) * r.sz.stages
	r.check("journal_roundtrip", r.journalBad == 0, "%d of %d rounds reassemble differently from their journal", r.journalBad, r.rounds)

	// Determinism: the first paths again, alone, on a fresh session.
	tool, err := clarinet.New(r.lib, cfg)
	if err != nil {
		return err
	}
	again, err := pathnoise.Run(r.ctx, tool, rounds[0][:r.sz.verify], pathnoise.Options{MaxIterations: pathIterations})
	if err != nil {
		return err
	}
	want, err := pathnoise.MarshalReport(first[:r.sz.verify])
	if err != nil {
		return err
	}
	got, err := pathnoise.MarshalReport(again)
	if err != nil {
		return err
	}
	r.check("rerun_identical", bytes.Equal(got, want), "%d path(s) re-analyzed alone", len(again))

	st := rounds[0][0].Stages[0]
	r.ref = &refNet{c: st.Case, align: cfg.Align}
	return nil
}

// setupPaths generates every round's paths, writes them as a path case
// file and reads them back (the input path of clarinet -path).
func (r *run) setupPaths(k int) ([][]*pathnoise.Path, error) {
	sp := r.tr.begin(spanSetup, 0, "")
	defer sp.end()
	var names []string
	var cases []*delaynoise.Case
	var paths []*pathnoise.Path
	for rd := 0; rd < r.plannedRounds(); rd++ {
		for i := 0; i < r.sz.roundItems; i++ {
			g := rd*r.sz.roundItems + i
			gen := workload.NewGenerator(r.lib, stratified(workload.DefaultProfile(), r.sz.receivers, g), subSeed(r.seed, g))
			ns, cs, p, err := gen.NextPath(fmt.Sprintf("r%d.p%d", rd, i), r.sz.stages)
			if err != nil {
				return nil, err
			}
			names = append(names, ns...)
			cases = append(cases, cs...)
			paths = append(paths, p)
		}
	}
	err := r.viaFile(fmt.Sprintf("paths-%d.json", k),
		func(w io.Writer) error { return workload.SavePaths(w, r.lib.Tech.Name, names, cases, paths) },
		func(f io.Reader) (err error) {
			_, _, paths, err = workload.LoadPaths(f, r.lib)
			return err
		})
	if err != nil {
		return nil, err
	}
	var rounds [][]*pathnoise.Path
	for rd := 0; rd < r.plannedRounds(); rd++ {
		rounds = append(rounds, paths[rd*r.sz.roundItems:(rd+1)*r.sz.roundItems])
	}
	return rounds, nil
}

// pathRound runs one measured round.
func (r *run) pathRound(cfg clarinet.Config, paths []*pathnoise.Path) ([]*pathnoise.PathReport, error) {
	tool, err := clarinet.New(r.lib, cfg)
	if err != nil {
		return nil, err
	}
	round := r.tr.begin(spanRound, 0, "")
	runSpan := r.tr.begin(spanPathRun, round.id(), "")
	var journal bytes.Buffer
	j := pathnoise.NewPathJournal(&journal, stageJournal{st: &r.journal, tr: r.tr, parent: runSpan.id()})
	var done []time.Duration
	start := time.Now()
	reports, err := pathnoise.Run(r.ctx, tool, paths, pathnoise.Options{
		MaxIterations: pathIterations,
		Journal:       j,
		// Emit calls are serialized, so done needs no lock.
		Emit: func(rec pathnoise.StageRecord) {
			if rec.Done {
				done = append(done, time.Since(start))
			}
		},
	})
	elapsed := time.Since(start)
	runSpan.end()
	round.end()
	if err != nil {
		return nil, err
	}
	r.endRound(elapsed, done)
	r.regs = append(r.regs, tool.Metrics())
	r.attempted += len(reports)
	for _, rep := range reports {
		if rep.Failed() {
			r.fail(fmt.Errorf("path %s: %s", rep.Name, rep.Error))
		}
	}
	canonical, err := pathnoise.MarshalReport(reports)
	if err != nil {
		return nil, err
	}
	r.digest.Write(canonical)

	// The journal alone must reassemble the same report.
	recs, err := pathnoise.ReadPathJournal(bytes.NewReader(journal.Bytes()))
	if err != nil {
		r.journalBad++
		return reports, nil
	}
	again, err := pathnoise.MarshalReport(pathnoise.Assemble(paths, recs))
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(again, canonical) {
		r.journalBad++
	}
	return reports, nil
}
