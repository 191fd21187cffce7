package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/clarinet"
	"repro/internal/delaynoise"
	"repro/internal/engine"
	"repro/internal/resilience"
	"repro/internal/warmstore"
	"repro/internal/workload"
)

// batchSpec is what distinguishes the two batch workloads.
type batchSpec struct {
	profile workload.Profile
	align   delaynoise.AlignMethod
	tables  bool // pre-characterize the receivers in set-up and warm-load them per round
}

// batchInputs is the prepared input of a batch run: base nets per
// round, read back from the case file set-up wrote, and the warm store
// holding the set-up's tables (nil without tables).
type batchInputs struct {
	names [][]string
	cases [][]*delaynoise.Case
	store *warmstore.Store
}

// runBatchExhaustive is the paper's reference flow with the cmd/clarinet
// defaults: transient holding resistance, exhaustive alignment, one
// worker per core.
func runBatchExhaustive(r *run) error {
	return r.batch(batchSpec{profile: workload.DefaultProfile(), align: delaynoise.AlignExhaustive})
}

// runBatchBusPrechar analyzes bus structures that repeat within a round
// under table-driven alignment, with the tables built in set-up.
func runBatchBusPrechar(r *run) error {
	return r.batch(batchSpec{profile: workload.BusProfile(), align: delaynoise.AlignPrechar, tables: true})
}

func (r *run) batchConfig(spec batchSpec) clarinet.Config {
	return clarinet.Config{Hold: delaynoise.HoldTransient, Align: spec.align, Workers: runtime.GOMAXPROCS(0), Resilience: resilience.DefaultPolicy()}
}

// batch sets up, measures and checks one batch workload. Each round is
// one clarinet invocation: a fresh session (warm-loaded from the store
// when the workload has tables) runs AnalyzeBatch over the round's nets
// with a binary journal. Every round analyzes different nets.
func (r *run) batch(spec batchSpec) error {
	cfg := r.batchConfig(spec)
	r.workers = cfg.Workers
	var in *batchInputs
	setUp := func() (err error) {
		in, err = timedSetup(r, func(k int) (*batchInputs, error) { return r.setupBatch(spec, cfg, k) })
		return err
	}

	var first []clarinet.NetReport
	var firstNames []string
	var firstCases []*delaynoise.Case
	for rd := 0; r.another(); rd++ {
		if err := r.setUpTo(r.setupsBefore(rd), setUp); err != nil {
			return err
		}
		names, cases := r.roundNets(in, rd)
		reports, err := r.batchRound(cfg, in.store, names, cases)
		if err != nil {
			return err
		}
		if rd == 0 {
			first, firstNames, firstCases = reports, names, cases
		}
		r.rounds++
	}
	if err := r.setUpTo(r.sz.setups, setUp); err != nil {
		return err
	}
	r.info["nets_per_round"] = len(in.cases[0]) * max(1, r.sz.repeats)
	r.check("journal_roundtrip", r.journalBad == 0, "%d of %d journaled reports differ when read back", r.journalBad, r.attempted)
	if spec.tables {
		r.checkCopies(first)
	}
	v := r.sz.verify
	if err := r.checkRerun(cfg, in.store, firstNames[:v], firstCases[:v], first[:v]); err != nil {
		return err
	}
	if spec.align == delaynoise.AlignExhaustive {
		r.modelError(in.cases[0][:r.sz.golden], first[:r.sz.golden])
	} else if r.tr != nil {
		if err := r.alignGap(in.cases[0][:r.sz.golden], first[:r.sz.golden]); err != nil {
			return err
		}
	}
	i := exactIndex(first)
	r.ref = &refNet{c: firstCases[i], res: first[i].Res, report: first[i], align: spec.align, store: in.store}
	return nil
}

// setupBatch generates every round's nets, writes them as a case file
// and reads them back (the input path of the clarinet CLI), and, for
// table workloads, builds the receiver tables and saves them to a
// fresh warm store.
func (r *run) setupBatch(spec batchSpec, cfg clarinet.Config, k int) (*batchInputs, error) {
	sp := r.tr.begin(spanSetup, 0, "")
	defer sp.end()
	var names []string
	var cases []*delaynoise.Case
	for rd := 0; rd < r.plannedRounds(); rd++ {
		for i := 0; i < r.sz.roundItems; i++ {
			g := rd*r.sz.roundItems + i
			gen := workload.NewGenerator(r.lib, stratified(spec.profile, r.sz.receivers, g), subSeed(r.seed, g))
			c, err := gen.Next(g)
			if err != nil {
				return nil, err
			}
			names = append(names, fmt.Sprintf("r%d.n%d", rd, i))
			cases = append(cases, c)
		}
	}
	err := r.viaFile(fmt.Sprintf("cases-%d.json", k),
		func(w io.Writer) error { return workload.Save(w, r.lib.Tech.Name, names, cases) },
		func(f io.Reader) (err error) {
			names, cases, err = workload.Load(f, r.lib)
			return err
		})
	if err != nil {
		return nil, err
	}
	in := &batchInputs{}
	for rd := 0; rd < r.plannedRounds(); rd++ {
		lo, hi := rd*r.sz.roundItems, (rd+1)*r.sz.roundItems
		in.names = append(in.names, names[lo:hi])
		in.cases = append(in.cases, cases[lo:hi])
	}
	if !spec.tables {
		return in, nil
	}
	tool, err := clarinet.New(r.lib, cfg)
	if err != nil {
		return nil, err
	}
	if err := buildTables(r.ctx, tool.Session(), r.lib, r.sz.receivers, cfg.Workers, r.tr, sp.id()); err != nil {
		return nil, err
	}
	in.store, err = warmstore.Open(filepath.Join(r.dir, fmt.Sprintf("warm-%d", k)), nil)
	if err != nil {
		return nil, err
	}
	save := r.tr.begin(spanSaveWarm, sp.id(), "")
	defer save.end()
	return in, tool.Session().SaveWarm(in.store)
}

// roundNets expands round rd's base nets into the analyzed batch: with
// repeats, every base net appears that many times under distinct
// names, as repeated structures do on a real bus.
func (r *run) roundNets(in *batchInputs, rd int) ([]string, []*delaynoise.Case) {
	if r.sz.repeats <= 1 {
		return in.names[rd], in.cases[rd]
	}
	var names []string
	var cases []*delaynoise.Case
	for rep := 0; rep < r.sz.repeats; rep++ {
		for i, c := range in.cases[rd] {
			names = append(names, fmt.Sprintf("%s.c%d", in.names[rd][i], rep))
			cases = append(cases, c)
		}
	}
	return names, cases
}

// batchRound runs one measured round and checks its journal.
func (r *run) batchRound(cfg clarinet.Config, store *warmstore.Store, names []string, cases []*delaynoise.Case) ([]clarinet.NetReport, error) {
	tool, err := clarinet.New(r.lib, cfg)
	if err != nil {
		return nil, err
	}
	round := r.tr.begin(spanRound, 0, "")
	start := time.Now()
	if store != nil {
		sp := r.tr.begin(spanLoadWarm, round.id(), "")
		err := loadWarm(tool.Session(), store)
		sp.end()
		if err != nil {
			round.end()
			return nil, err
		}
	}
	batch := r.tr.begin(spanBatch, round.id(), "")
	var journal bytes.Buffer
	var mu sync.Mutex
	var done []time.Duration
	codec := netJournal{st: &r.journal, tr: r.tr, parent: batch.id(), done: func(at time.Time) {
		mu.Lock()
		done = append(done, at.Sub(start))
		mu.Unlock()
	}}
	reports := tool.AnalyzeBatch(r.ctx, names, cases, nil, clarinet.NewJournalWith(&journal, codec))
	batch.end()
	round.end()
	r.endRound(time.Since(start), done)
	r.regs = append(r.regs, tool.Metrics())
	r.attempted += len(reports)
	for _, rep := range reports {
		if rep.Err != nil {
			r.fail(rep.Err)
		}
	}
	r.addDigest(reports)
	r.journalBad += r.journalMismatches(journal.Bytes(), reports)
	return reports, nil
}

// loadWarm seeds a session from the set-up's store. A miss is an error
// here: set-up has just saved the entry.
func loadWarm(sess *engine.Session, store *warmstore.Store) error {
	ok, err := sess.LoadWarm(store)
	if err != nil {
		return fmt.Errorf("warm load: %w", err)
	}
	if !ok {
		return errors.New("warm load: the set-up's entry is missing")
	}
	return nil
}

// exactIndex returns the first report that succeeded on the first
// pass, without rescue (0 if none did): the ladder re-runs the
// reference net without a rescue ladder.
func exactIndex(reports []clarinet.NetReport) int {
	for i, rep := range reports {
		if rep.Err == nil && rep.Quality == resilience.QualityExact {
			return i
		}
	}
	return 0
}

// wireJSON is a report's serialized wire form, the unit every
// byte-identity check compares.
func wireJSON(rep clarinet.NetReport) string {
	b, _ := json.Marshal(clarinet.ToWireRecord(rep))
	return string(b)
}

// addDigest folds a round's reports, in name order, into the run's
// report digest.
func (r *run) addDigest(reports []clarinet.NetReport) {
	lines := make([]string, len(reports))
	for i, rep := range reports {
		lines[i] = wireJSON(rep)
	}
	sort.Strings(lines)
	for _, l := range lines {
		fmt.Fprintln(r.digest, l)
	}
}

// journalMismatches reads a round's binary journal back and counts the
// reports that do not come back byte-identical.
func (r *run) journalMismatches(journal []byte, reports []clarinet.NetReport) int {
	prior, err := clarinet.ReadJournal(bytes.NewReader(journal))
	if err != nil {
		return len(reports)
	}
	bad := 0
	for _, rep := range reports {
		if got, ok := prior[rep.Name]; !ok || wireJSON(got) != wireJSON(rep) {
			bad++
		}
	}
	return bad
}

// checkCopies requires the copies of each repeated base net to report
// identically (cache hits are evaluated at the bucket point, so a hit
// and a miss must agree bit for bit).
func (r *run) checkCopies(reports []clarinet.NetReport) {
	byBase := map[string]string{}
	bad := 0
	for _, rep := range reports {
		base := rep.Name[:len(rep.Name)-len(filepath.Ext(rep.Name))]
		rec := clarinet.ToWireRecord(rep)
		rec.Net = base
		b, _ := json.Marshal(rec)
		if prev, ok := byBase[base]; ok && prev != string(b) {
			bad++
		}
		byBase[base] = string(b)
	}
	r.check("repeats_identical", bad == 0, "%d of %d repeated nets differ from their base", bad, len(reports))
}

// checkRerun analyzes the first nets again in a fresh session, outside
// the measured time, and requires byte-identical reports.
func (r *run) checkRerun(cfg clarinet.Config, store *warmstore.Store, names []string, cases []*delaynoise.Case, want []clarinet.NetReport) error {
	tool, err := clarinet.New(r.lib, cfg)
	if err != nil {
		return err
	}
	if _, err := tool.Session().LoadWarm(store); err != nil {
		return err
	}
	got := tool.AnalyzeBatch(r.ctx, names, cases, nil, nil)
	bad := 0
	for i := range got {
		if wireJSON(got[i]) != wireJSON(want[i]) {
			bad++
		}
	}
	r.check("rerun_identical", bad == 0, "%d of %d re-analyzed nets differ", bad, len(got))
	return nil
}

// modelError compares the first nets' delay noise with the nonlinear
// golden simulation at the alignment the analysis chose (the paper's
// Fig 13 error, absolute).
func (r *run) modelError(cases []*delaynoise.Case, reports []clarinet.NetReport) {
	var sum, worst float64
	n := 0
	for i, c := range cases {
		res := reports[i].Res
		if res == nil {
			continue
		}
		g, err := delaynoise.GoldenAtShiftsContext(r.ctx, c, delaynoise.PeakShifts(res.NoisePeakTimes, res.TPeak))
		if err != nil {
			r.check("golden", false, "%s: %v", reports[i].Name, err)
			return
		}
		e := math.Abs(res.DelayNoise-g.DelayNoise) * 1e12
		sum += e
		worst = math.Max(worst, e)
		n++
	}
	ok := n == len(cases) && !math.IsNaN(sum) && !math.IsInf(sum, 0)
	r.check("golden", ok, "%d nets simulated against the nonlinear golden", n)
	if n > 0 {
		r.info["model_err_mean_ps"] = sum / float64(n)
		r.info["model_err_max_ps"] = worst
	}
}

// alignGap measures how much delay noise the table-driven alignment
// misses against the exhaustive search on the first base nets (the
// paper's Fig 9/14 gap). It is costly, so only traced runs take it.
func (r *run) alignGap(cases []*delaynoise.Case, reports []clarinet.NetReport) error {
	tool, err := clarinet.New(r.lib, r.batchConfig(batchSpec{align: delaynoise.AlignExhaustive}))
	if err != nil {
		return err
	}
	names := make([]string, len(cases))
	for i := range cases {
		names[i] = reports[i].Name
	}
	exh := tool.AnalyzeBatch(r.ctx, names, cases, nil, nil)
	var sum float64
	for i, rep := range exh {
		if rep.Err != nil || reports[i].Res == nil {
			r.check("align_gap", false, "%s: %v", rep.Name, rep.Err)
			return nil
		}
		sum += math.Max(0, rep.Res.DelayNoise-reports[i].Res.DelayNoise) * 1e12
	}
	r.info["align_gap_mean_ps"] = sum / float64(len(exh))
	return nil
}
