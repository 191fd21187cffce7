package clarinet

import (
	"context"
	"errors"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"repro/internal/delaynoise"
	"repro/internal/funcnoise"
	"repro/internal/noiseerr"
	"repro/internal/resilience"
)

// analyze and analyzeFunc are seams for tests that need to observe or
// fail per-net analyses without building pathological circuits
// (internal/faultinject wraps them for the chaos suite).
var (
	analyze      = delaynoise.AnalyzeContext
	analyzeQuiet = delaynoise.AnalyzeQuietContext
	analyzeFunc  = funcnoise.AnalyzeContext
)

// AnalyzeNet runs one net. A canceled context fails fast; an in-flight
// analysis is interrupted at the next solver checkpoint (see
// lsim.CtxCheckInterval and nlsim.CtxCheckInterval). Every error is
// attributed to the net and its pipeline stage via noiseerr.StageError.
//
// Resilience: when the configured policy sets a NetTimeout, the net
// runs under its own deadline and a budget overrun fails just that net
// with the noiseerr.ErrDeadline class (nets.deadline) while the batch
// continues. Convergence failures climb the policy's rescue ladder (see
// resilience.Policy); the report's Quality field records which rung
// produced the surviving result.
//
// Counters: a net aborted by the caller's context counts only in
// nets.canceled — never in nets.analyzed or nets.failed, so failure
// totals reflect real per-net outcomes, not how early the batch was
// killed. In a batch, a copy that reuses another name's report counts
// as analyzed too (see reuse).
func (t *Tool) AnalyzeNet(ctx context.Context, name string, c *delaynoise.Case) NetReport {
	return t.AnalyzeNetWindow(ctx, name, c, nil)
}

// AnalyzeNetWindow is AnalyzeNet with a switching-window constraint on
// the aggressor alignment: when win is non-nil the composite pulse peak
// is clamped to it (delaynoise.Options.Window). Path-level analysis
// uses this to thread the sta-style window/noise fixpoint through the
// pool; a nil window is exactly AnalyzeNet.
func (t *Tool) AnalyzeNetWindow(ctx context.Context, name string, c *delaynoise.Case, win *delaynoise.Window) NetReport {
	m := t.session.Metrics()
	if err := ctx.Err(); err != nil {
		m.Counter(mNetsCanceled).Inc()
		return NetReport{Name: name, Err: noiseerr.WithNet(name, noiseerr.Canceled(err))}
	}
	start := time.Now()
	pol := t.Cfg.Resilience
	netCtx := resilience.WithNet(ctx, name)
	cancel := func() {}
	if pol.NetTimeout > 0 {
		netCtx, cancel = context.WithTimeout(netCtx, pol.NetTimeout)
	}
	defer cancel()

	opt := t.analysisOptions()
	if win != nil {
		opt.Window = win
	}
	quality := resilience.QualityExact
	var res *delaynoise.Result
	var err error
	if opt.Align == delaynoise.AlignPrechar && opt.Table == nil {
		tab, terr := t.session.Table(netCtx, c.Receiver, c.Victim.OutputRising)
		if terr != nil {
			err = terr
		} else {
			opt.Table = tab
		}
	}
	if err == nil {
		res, err = analyze(netCtx, c, opt)
	}
	if err != nil && noiseerr.Class(err) == noiseerr.ErrConvergence && netCtx.Err() == nil {
		res, quality, err = t.rescue(netCtx, c, opt, pol, err)
	}
	m.Observe(mNetAnalyze, time.Since(start))

	if err != nil {
		switch {
		case ctx.Err() != nil:
			// The caller gave up on the whole batch: not a per-net
			// failure, and not analyzed either.
			m.Counter(mNetsCanceled).Inc()
		case errors.Is(netCtx.Err(), context.DeadlineExceeded):
			// The net's own budget expired while the batch kept going.
			m.Counter(mNetsAnalyzed).Inc()
			m.Counter(mNetsDeadline).Inc()
			m.Counter(mNetsFailed).Inc()
			err = noiseerr.Reclass(noiseerr.ErrDeadline, err)
		default:
			m.Counter(mNetsAnalyzed).Inc()
			m.Counter(mNetsFailed).Inc()
		}
		return NetReport{Name: name, Err: noiseerr.WithNet(name, err)}
	}
	m.Counter(mNetsAnalyzed).Inc()
	m.Counter(qualityCounter(quality)).Inc()
	return NetReport{Name: name, Res: res, Quality: quality}
}

// qualityCounter names the nets.* counter of a successful report's
// quality.
func qualityCounter(q resilience.Quality) string {
	switch q {
	case resilience.QualityRescued:
		return mNetsRescued
	case resilience.QualityFallback:
		return mNetsFallback
	}
	return mNetsExact
}

// AnalyzeQuietNet runs only the quiet half of one net's analysis
// (driver characterization, noiseless victim simulation, one nonlinear
// receiver simulation — delaynoise.AnalyzeQuietContext) under the same
// session caches, per-net deadline budget, and error attribution as
// AnalyzeNet. It deliberately does not touch the nets.* outcome
// counters — those partition full noise analyses — and has no rescue
// ladder: the quiet flow has no alignment search to fall back from, and
// its simulations are the ones every full analysis already survives.
// Path-level analysis uses it for the noiseless reference chain.
func (t *Tool) AnalyzeQuietNet(ctx context.Context, name string, c *delaynoise.Case) NetReport {
	if err := ctx.Err(); err != nil {
		return NetReport{Name: name, Err: noiseerr.WithNet(name, noiseerr.Canceled(err))}
	}
	m := t.session.Metrics()
	start := time.Now()
	pol := t.Cfg.Resilience
	netCtx := resilience.WithNet(ctx, name)
	cancel := func() {}
	if pol.NetTimeout > 0 {
		netCtx, cancel = context.WithTimeout(netCtx, pol.NetTimeout)
	}
	defer cancel()
	res, err := analyzeQuiet(netCtx, c, t.analysisOptions())
	m.Observe(mNetQuiet, time.Since(start))
	if err != nil {
		if ctx.Err() == nil && errors.Is(netCtx.Err(), context.DeadlineExceeded) {
			err = noiseerr.Reclass(noiseerr.ErrDeadline, err)
		}
		return NetReport{Name: name, Err: noiseerr.WithNet(name, err)}
	}
	return NetReport{Name: name, Res: res, Quality: resilience.QualityExact}
}

// rescue climbs the policy's ladder after a convergence failure. Each
// solver rung re-runs the analysis with the rung's nlsim aids armed on
// the context; the prechar rung retries with table-driven alignment.
// Climbing stops on the first success, on any non-convergence error,
// or when the context dies (the caller maps the context's own error).
func (t *Tool) rescue(ctx context.Context, c *delaynoise.Case, opt delaynoise.Options, pol resilience.Policy, first error) (*delaynoise.Result, resilience.Quality, error) {
	err := first
	rungs := pol.Ladder()
	if len(rungs) == 0 {
		return nil, resilience.QualityExact, err
	}
	m := t.session.Metrics()
	start := time.Now()
	defer func() { m.Observe(noiseerr.StageRescue.TimerName(), time.Since(start)) }()
	for _, rung := range rungs {
		if ctx.Err() != nil {
			return nil, resilience.QualityExact, err
		}
		var res *delaynoise.Result
		var rerr error
		if rung.Prechar {
			if opt.Align == delaynoise.AlignPrechar {
				continue // the first pass was already table-driven
			}
			tab, terr := t.session.Table(ctx, c.Receiver, c.Victim.OutputRising)
			if terr != nil {
				continue // keep the original failure
			}
			fopt := opt
			fopt.Align = delaynoise.AlignPrechar
			fopt.Table = tab
			m.Counter(mRescueAttempts).Inc()
			m.Counter(mRescuePrefix + rung.Name).Inc()
			res, rerr = analyze(ctx, c, fopt)
		} else {
			m.Counter(mRescueAttempts).Inc()
			m.Counter(mRescuePrefix + rung.Name).Inc()
			res, rerr = analyze(resilience.WithSolverRescue(ctx, rung.Solver), c, opt)
		}
		if rerr == nil {
			return res, rung.Quality(), nil
		}
		err = rerr
		if noiseerr.Class(rerr) != noiseerr.ErrConvergence {
			break // numerical/canceled failures do not climb further
		}
	}
	return nil, resilience.QualityExact, err
}

// panicReport converts a recovered worker panic into a failed report:
// the batch continues, the net counts in nets.panicked (and failed),
// and the error chain carries the panic value, stack, and net name
// under the noiseerr.ErrInternal class.
func (t *Tool) panicReport(name string, p *noiseerr.PanicError) NetReport {
	m := t.session.Metrics()
	m.Counter(mNetsAnalyzed).Inc()
	m.Counter(mNetsPanicked).Inc()
	m.Counter(mNetsFailed).Inc()
	return NetReport{Name: name, Err: noiseerr.WithNet(name, noiseerr.InStage(noiseerr.StageResilience, p))}
}

// funcPanicReport is panicReport for the functional-noise flow.
func (t *Tool) funcPanicReport(name string, p *noiseerr.PanicError) FuncReport {
	m := t.session.Metrics()
	m.Counter(mNetsAnalyzed).Inc()
	m.Counter(mNetsPanicked).Inc()
	m.Counter(mNetsFailed).Inc()
	return FuncReport{Name: name, Err: noiseerr.WithNet(name, noiseerr.InStage(noiseerr.StageResilience, p))}
}

// fanOut spreads f over every index i in [0, n) across the given number
// of worker goroutines. Each index is handed to f exactly once; emit
// receives (i, f(i)) from worker goroutines and must be safe for
// concurrent use across distinct indices. Cancellation is f's job:
// the per-net workers check their context before starting real work and
// at solver checkpoints within it, so a canceled batch drains quickly
// but still emits every index.
//
// contain, when non-nil, converts a panic out of f(i) into a result so
// one poisoned net cannot sink the batch or wedge the pool (an
// unrecovered worker panic would kill the process; a swallowed one
// would deadlock Wait). A nil contain lets panics propagate.
func fanOut[R any](workers, n int, f func(int) R, emit func(int, R), contain func(int, *noiseerr.PanicError) R) {
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	run := f
	if contain != nil {
		run = func(i int) (r R) {
			defer func() {
				if p := recover(); p != nil {
					r = contain(i, &noiseerr.PanicError{Value: p, Stack: debug.Stack()})
				}
			}()
			return f(i)
		}
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				emit(i, run(i))
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
}

// checkBatch validates the batch invariants shared by every entry point.
func checkBatch(names []string, cases []*delaynoise.Case) {
	if len(names) != len(cases) {
		panic("clarinet: names and cases length mismatch")
	}
}

// AnalyzeAll runs every net, preserving input order, with bounded
// parallelism.
func (t *Tool) AnalyzeAll(names []string, cases []*delaynoise.Case) []NetReport {
	return t.AnalyzeAllContext(context.Background(), names, cases)
}

// AnalyzeAllContext is AnalyzeAll with cancellation/deadline support.
// The returned slice is always fully populated in input order: nets not
// started when the context fires carry the context's error, and
// in-flight nets abort at the next solver checkpoint. The report order
// is deterministic regardless of worker count or completion order.
func (t *Tool) AnalyzeAllContext(ctx context.Context, names []string, cases []*delaynoise.Case) []NetReport {
	return t.AnalyzeBatch(ctx, names, cases, nil, nil)
}

// AnalyzeBatch is AnalyzeAllContext with checkpoint/resume support.
// Nets found in prior (keyed by name, e.g. from ReadJournal) are
// returned as-is without re-analysis and counted in nets.resumed; every
// freshly completed report is appended to j as it lands (nil disables
// journaling). Names whose cases have the same content are analyzed
// once (see runGroups). Worker panics are contained: the poisoned net
// reports a noiseerr.ErrInternal-class failure carrying the stack,
// counts in nets.panicked, and the rest of the batch proceeds.
func (t *Tool) AnalyzeBatch(ctx context.Context, names []string, cases []*delaynoise.Case, prior map[string]NetReport, j *Journal) []NetReport {
	resumed, groups := t.planBatch(names, cases, prior)
	reports := make([]NetReport, len(cases))
	for _, i := range resumed {
		reports[i] = resumedReport(prior, names[i])
	}
	t.runGroups(ctx, names, cases, groups, func(i int, r NetReport) {
		reports[i] = r
		j.Record(r)
	})
	return reports
}

// planBatch splits a batch into the indices found in prior (counted in
// nets.resumed) and groups of the remaining indices whose cases have
// equal delaynoise.Case.Key, in input order.
func (t *Tool) planBatch(names []string, cases []*delaynoise.Case, prior map[string]NetReport) (resumed []int, groups [][]int) {
	checkBatch(names, cases)
	m := t.session.Metrics()
	byKey := map[string]int{}
	for i, name := range names {
		if _, ok := prior[name]; ok {
			resumed = append(resumed, i)
			m.Counter(mNetsResumed).Inc()
			continue
		}
		key := cases[i].Key()
		if g, ok := byKey[key]; ok {
			groups[g] = append(groups[g], i)
			continue
		}
		byKey[key] = len(groups)
		groups = append(groups, []int{i})
	}
	return resumed, groups
}

// resumedReport is prior's report for name, under that name.
func resumedReport(prior map[string]NetReport, name string) NetReport {
	r := prior[name]
	r.Name = name
	return r
}

// runGroups analyzes the first name of every group on the worker pool.
// When that analysis succeeds, its report is emitted and then, right
// after it, emitted again under the name of every other copy in its
// group (see reuse). Failures are not shared: when it fails for any
// reason, the copies are analyzed on their own once the first pass
// drains. emit receives each index exactly once, from worker goroutines.
func (t *Tool) runGroups(ctx context.Context, names []string, cases []*delaynoise.Case, groups [][]int, emit func(int, NetReport)) {
	var mu sync.Mutex
	var alone []int
	fanOut(t.Cfg.Workers, len(groups),
		func(g int) NetReport { return t.AnalyzeNet(ctx, names[groups[g][0]], cases[groups[g][0]]) },
		func(g int, r NetReport) {
			emit(groups[g][0], r)
			copies := groups[g][1:]
			if r.Err != nil {
				mu.Lock()
				alone = append(alone, copies...)
				mu.Unlock()
				return
			}
			for _, i := range copies {
				emit(i, t.reuse(r, names[i]))
			}
		},
		func(g int, p *noiseerr.PanicError) NetReport { return t.panicReport(names[groups[g][0]], p) })
	sort.Ints(alone)
	fanOut(t.Cfg.Workers, len(alone),
		func(k int) NetReport { return t.AnalyzeNet(ctx, names[alone[k]], cases[alone[k]]) },
		func(k int, r NetReport) { emit(alone[k], r) },
		func(k int, p *noiseerr.PanicError) NetReport { return t.panicReport(names[alone[k]], p) })
}

// reuse hands a copy the successful report of its group's analysis
// under its own name; Res is shared and read-only. The copy counts in
// nets.analyzed, in the report's quality counter and in nets.reused,
// but not in the net.analyze timer, which times real analyses only.
func (t *Tool) reuse(r NetReport, name string) NetReport {
	m := t.session.Metrics()
	m.Counter(mNetsAnalyzed).Inc()
	m.Counter(qualityCounter(r.Quality)).Inc()
	m.Counter(mNetsReused).Inc()
	r.Name = name
	return r
}

// Stream runs every net and delivers reports in completion order on the
// returned channel, which is closed once the batch finishes. Use this
// for progress display or incremental consumers; use AnalyzeAllContext
// when input-ordered results matter. Cancellation drains the remaining
// nets as error reports, so exactly len(cases) reports are always
// delivered. Worker panics are contained as in AnalyzeBatch.
func (t *Tool) Stream(ctx context.Context, names []string, cases []*delaynoise.Case) <-chan NetReport {
	return t.StreamBatch(ctx, names, cases, nil, nil)
}

// StreamBatch is Stream with the checkpoint/resume semantics of
// AnalyzeBatch: nets found in prior are delivered first, as-is, without
// re-analysis (counted in nets.resumed), then the remaining nets stream
// in completion order; every freshly completed report is appended to j
// as it lands (nil disables journaling), and names whose cases have the
// same content are analyzed once, as in AnalyzeBatch. The noised
// serving layer is built on this: one request's NDJSON stream is
// exactly this channel, and a resumed request replays its journal
// before analyzing the rest.
// Exactly len(cases) reports are always delivered; the caller must
// drain the channel.
func (t *Tool) StreamBatch(ctx context.Context, names []string, cases []*delaynoise.Case, prior map[string]NetReport, j *Journal) <-chan NetReport {
	resumed, groups := t.planBatch(names, cases, prior)
	out := make(chan NetReport)
	go func() {
		defer close(out)
		for _, i := range resumed {
			// The doc contract above bounds this goroutine: exactly
			// len(cases) reports are delivered and the caller must drain,
			// so every send completes.
			//lint:ignore noiselint/goleak the caller-must-drain contract (doc comment) bounds the sends
			out <- resumedReport(prior, names[i])
		}
		t.runGroups(ctx, names, cases, groups, func(_ int, r NetReport) {
			j.Record(r)
			out <- r
		})
	}()
	return out
}

// FuncReport is the per-net outcome of a functional-noise run.
type FuncReport struct {
	Name string
	Res  *funcnoise.Result
	Err  error
}

// FunctionalAll runs the functional-noise flow on every net.
func (t *Tool) FunctionalAll(names []string, cases []*delaynoise.Case, opt funcnoise.Options) []FuncReport {
	return t.FunctionalAllContext(context.Background(), names, cases, opt)
}

// FunctionalAllContext is FunctionalAll with cancellation/deadline
// support, with the same ordering, drain, cancellation-counting, and
// panic-containment guarantees as AnalyzeBatch.
func (t *Tool) FunctionalAllContext(ctx context.Context, names []string, cases []*delaynoise.Case, opt funcnoise.Options) []FuncReport {
	checkBatch(names, cases)
	m := t.session.Metrics()
	reports := make([]FuncReport, len(cases))
	fanOut(t.Cfg.Workers, len(cases),
		func(i int) FuncReport {
			if err := ctx.Err(); err != nil {
				m.Counter(mNetsCanceled).Inc()
				return FuncReport{Name: names[i], Err: noiseerr.WithNet(names[i], noiseerr.Canceled(err))}
			}
			start := time.Now()
			res, err := analyzeFunc(ctx, cases[i], opt)
			m.Observe(mNetFunctional, time.Since(start))
			if err != nil {
				if ctx.Err() != nil {
					m.Counter(mNetsCanceled).Inc()
				} else {
					m.Counter(mNetsAnalyzed).Inc()
					m.Counter(mNetsFailed).Inc()
				}
				return FuncReport{Name: names[i], Err: noiseerr.WithNet(names[i], err)}
			}
			m.Counter(mNetsAnalyzed).Inc()
			return FuncReport{Name: names[i], Res: res}
		},
		func(i int, r FuncReport) { reports[i] = r },
		func(i int, p *noiseerr.PanicError) FuncReport { return t.funcPanicReport(names[i], p) })
	return reports
}
