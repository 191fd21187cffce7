package pathnoise

import (
	"context"
	"errors"
	"math"
	"sync"
	"time"

	"repro/internal/clarinet"
	"repro/internal/delaynoise"
	"repro/internal/noiseerr"
	"repro/internal/resilience"
	"repro/internal/waveform"
)

// The DAG-aware scheduler. A path workload is a dependency graph of
// stage executions: node (path p, stage s, iteration i) depends on
// (p, s-1, i) — the chains hand waveforms forward, and execute derives
// stage s's input and, from pass 2 on, its switching window from those
// same-pass handoffs — and node (p, 0, i) depends on (p, S-1, i-1)
// only through the Tol test, which compares the two passes' final
// arrivals. No pass reads an earlier pass's arrivals: pass 1 is
// unconstrained and feeds only the Tol test, and pass 3 receives
// exactly pass 2's inputs, so it repeats pass 2 bit for bit and stops
// the path. The quiet chain reads no window, so it is the same in every
// pass: from pass 2 on, node (p, s, i) takes its quiet result from
// (p, s, 0), which the pass order has already run. Within a path the graph is a line, so the scheduler keeps
// exactly one ready node per unfinished path and runs ready nodes on a
// bounded worker pool: independent paths overlap freely, dependent
// stages never reorder, and a path that fails or converges early frees
// its worker for the others immediately.
//
// Each path runs under its own deadline (Options.PathTimeout) layered
// on the caller's context, and each stage execution inherits the
// clarinet tool's per-net resilience policy, so the Quality ladder of
// the per-net engine propagates upward: a path is as degraded as its
// worst stage.

// Options configures a path run. The zero value is usable.
type Options struct {
	// MaxIterations bounds the window/noise fixpoint passes over each
	// path (default DefaultMaxIterations). Pass 1 aligns every stage
	// worst-case unconstrained; passes >=2 clamp each stage's composite
	// peak to the switching window implied by the same pass's upstream
	// chains. A pass's windows do not depend on earlier passes, so pass
	// 3 repeats pass 2 exactly and meets the Tol test: values above 3
	// run no further passes.
	MaxIterations int
	// PathTimeout is the per-path deadline (0 = none). A path that
	// overruns fails with the deadline class; other paths continue.
	PathTimeout time.Duration
	// Journal receives every freshly computed stage record (nil = no
	// journaling). Canceled stages are never journaled, so a resumed
	// run re-executes them.
	Journal *PathJournal
	// Prior seeds the run with records from an earlier journal
	// (ReadPathJournalFile). Stages found there are adopted instead of
	// re-simulated; the handoff into the next stage is rebuilt from the
	// record's waveform series.
	Prior map[StageKey]StageRecord
	// Emit, when non-nil, observes every stage record in execution
	// order per path (adopted prior records included, so a resumed
	// stream is complete). Calls are serialized across paths.
	Emit func(StageRecord)
}

// DefaultMaxIterations mirrors the internal/sta iteration structure but
// is lower: a path re-derives every downstream stage input and window
// from the same pass's freshly simulated waveforms, so the second pass
// already sees self-consistent arrivals, and a third would repeat it
// exactly.
const DefaultMaxIterations = 2

// arrivalTol stops a path's fixpoint early: the Tol test passes when
// its end-to-end noisy arrival moves by at most this between passes.
const arrivalTol = 1e-12 // s

func (o *Options) defaults() {
	if o.MaxIterations <= 0 {
		o.MaxIterations = DefaultMaxIterations
	}
}

// pathState is one path's position in the graph: the next ready node
// (stage, iter) and the chain state entering it. A pathState is only
// ever touched by one worker at a time.
type pathState struct {
	path   *Path
	ctx    context.Context
	cancel context.CancelFunc

	stage int
	iter  int
	quiet Handoff // chain state entering `stage` (undefined at stage 0)
	noisy Handoff

	prevFinalArr float64 // previous pass's end-to-end noisy arrival
	hasPrev      bool

	// records holds the path's stage records in execution order,
	// adopted ones included, so records[s] is pass 1's record of stage
	// s once pass 1 is complete.
	records  []StageRecord
	quality  resilience.Quality
	err      error
	canceled bool
	start    time.Time
}

type runner struct {
	tool *clarinet.Tool
	opt  Options
	emit sync.Mutex // serializes Options.Emit across workers
}

// Run analyzes a path set end to end on the tool's engine session and
// returns one report per path, in input order, running at most the
// tool's worker count of stages at once. See Options for journaling,
// resume, and streaming hooks. Run validates the path set.
func Run(ctx context.Context, t *clarinet.Tool, paths []*Path, opt Options) ([]*PathReport, error) {
	if err := ValidatePaths(paths); err != nil {
		return nil, err
	}
	opt.defaults()
	workers := t.Workers()
	if workers > len(paths) {
		workers = len(paths)
	}
	if workers < 1 {
		workers = 1
	}

	r := &runner{tool: t, opt: opt}
	states := make([]*pathState, len(paths))
	// Every path has at most one entry in the ready queue, so the
	// buffer can hold the whole workload and re-enqueues never block.
	ready := make(chan *pathState, len(paths))
	for i, p := range paths {
		pctx, cancel := context.WithCancel(ctx)
		if opt.PathTimeout > 0 {
			pctx, cancel = context.WithTimeout(ctx, opt.PathTimeout)
		}
		states[i] = &pathState{path: p, ctx: pctx, cancel: cancel, start: time.Now()}
		ready <- states[i]
	}

	var outstanding sync.WaitGroup
	outstanding.Add(len(paths))
	//lint:ignore noiselint/goleak bounded: outstanding reaches zero once every path finishes (workers call Done even on cancellation), and the close releases the worker range loops below
	go func() {
		outstanding.Wait()
		close(ready)
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ps := range ready {
				if r.step(ps) {
					ready <- ps
					continue
				}
				r.finish(ps)
				outstanding.Done()
			}
		}()
	}
	wg.Wait()

	reports := assembleStates(states)
	if err := ctx.Err(); err != nil {
		return reports, noiseerr.Canceled(err)
	}
	return reports, nil
}

// finish closes out one path: releases its context and settles the
// path-level counters.
func (r *runner) finish(ps *pathState) {
	ps.cancel()
	m := r.tool.Metrics()
	m.Observe(mPathAnalyze, time.Since(ps.start))
	switch {
	case ps.canceled:
		m.Counter(mPathsCanceled).Inc()
	case ps.err != nil:
		m.Counter(mPathsAnalyzed).Inc()
		m.Counter(mPathsFailed).Inc()
	default:
		m.Counter(mPathsAnalyzed).Inc()
	}
}

// step executes the path's ready node and advances its state, reporting
// whether the path has more work.
func (r *runner) step(ps *pathState) (more bool) {
	if err := ps.ctx.Err(); err != nil {
		return r.fail(ps, noiseerr.Canceled(err))
	}
	key := StageKey{Path: ps.path.Name, Stage: ps.stage, Iter: ps.iter}
	if prior, ok := r.opt.Prior[key]; ok {
		if done, adopted := r.adopt(ps, prior); adopted {
			return !done && r.advance(ps, prior)
		}
	}
	rec, err := r.execute(ps)
	if err != nil {
		return r.fail(ps, err)
	}
	return r.advance(ps, rec)
}

// adopt replays a prior journal record in place of executing the node.
// A record is adoptable when the run can continue from it: an error
// record, or a success whose waveform series rebuild into valid
// handoffs. Adopted successes re-emit (so resumed streams are
// complete) but are not re-journaled.
func (r *runner) adopt(ps *pathState, rec StageRecord) (done, adopted bool) {
	if rec.Error != "" {
		// The prior run failed this path terminally; carry the failure.
		ps.records = append(ps.records, rec)
		ps.err = errors.New(rec.Error)
		r.tool.Metrics().Counter(mStagesResumed).Inc()
		r.emitRecord(rec)
		return true, true
	}
	if rec.Result == nil {
		return false, false
	}
	q, ok1 := handoffWave(rec.QuietOutT, rec.QuietOutV)
	n, ok2 := handoffWave(rec.NoisyOutT, rec.NoisyOutV)
	if !ok1 || !ok2 {
		return false, false // unusable record: re-simulate the node
	}
	rising := ps.path.StageRising(ps.stage)
	ps.quiet = Handoff{Wave: q, Rising: rising, Cross: rec.Result.QuietCross, Shift: rec.Result.QuietShift}
	ps.noisy = Handoff{Wave: n, Rising: rising, Cross: rec.Result.NoisyCross, Shift: rec.Result.NoisyShift}
	ps.quality = worseQuality(ps.quality, resilience.QualityFromString(rec.Quality))
	ps.records = append(ps.records, rec)
	r.tool.Metrics().Counter(mStagesResumed).Inc()
	r.emitRecord(rec)
	return false, true
}

// handoffWave validates a journaled waveform series. Journal float
// columns are lossless, so a well-formed record round-trips exactly;
// anything else (torn, hand-edited) is rejected rather than handed to
// waveform.New, which panics on bad breakpoints.
func handoffWave(t, v []float64) (*waveform.PWL, bool) {
	if len(t) < 2 || len(t) != len(v) {
		return nil, false
	}
	for i := 1; i < len(t); i++ {
		if !(t[i] > t[i-1]) { // also rejects NaN
			return nil, false
		}
	}
	return waveform.New(t, v), true
}

// execute runs one graph node: both chains of stage (ps.stage) at
// fixpoint pass (ps.iter), journaling and emitting the resulting
// record. A canceled stage returns the error without journaling.
func (r *runner) execute(ps *pathState) (StageRecord, error) {
	st := ps.path.Stages[ps.stage]
	start := time.Now()
	m := r.tool.Metrics()

	// Derive each chain's victim input from its handoff (stage 0 uses
	// the workload's primary input for both chains, frame shift 0).
	qc, nc := st.Case, st.Case
	var qshift, nshift float64
	if ps.stage > 0 {
		var err error
		if qc, qshift, err = stageInput(st.Case, ps.quiet); err != nil {
			return StageRecord{}, err
		}
		if nc, nshift, err = stageInput(st.Case, ps.noisy); err != nil {
			return StageRecord{}, err
		}
	}
	quietArrIn := inputArrival(qc, qshift)
	noisyArrIn := inputArrival(nc, nshift)

	// Quiet chain: noiseless reference, no alignment, no rescue ladder.
	quiet, err := r.quietStage(ps, qc)
	if err != nil {
		return StageRecord{}, err
	}

	// Noisy chain: the full per-net flow; passes >=2 clamp the
	// composite peak to the switching window the current chains imply
	// (the sta fixpoint, stage-local frame).
	var win *delaynoise.Window
	if ps.iter > 0 {
		win = stageWindow(nc, noisyArrIn-quietArrIn)
	}
	nrep := r.tool.AnalyzeStage(ps.ctx, st.Net, nc, win)
	if nrep.Err != nil {
		return StageRecord{}, nrep.Err
	}
	m.Observe(mStageAnalyze, time.Since(start))
	m.Counter(mStagesRun).Inc()
	noisyOut := nrep.Res.NoisyRecvOut

	res := &StageResult{
		InSlewQuiet: qc.Victim.InputSlew,
		InSlewNoisy: nc.Victim.InputSlew,
		QuietShift:  qshift,
		NoisyShift:  nshift,
		QuietCross:  quiet.cross,
		NoisyCross:  nrep.Res.NoisyOutCross,
		QuietArr:    quiet.cross + qshift,
		NoisyArr:    nrep.Res.NoisyOutCross + nshift,
		StageQuiet:  quiet.stageDelay,
		StageNoise:  nrep.Res.DelayNoise,
		TPeak:       nrep.Res.TPeak,
		Iterations:  nrep.Res.Iterations,
	}
	res.Cumulative = res.NoisyArr - res.QuietArr
	res.Incremental = res.Cumulative - (noisyArrIn - quietArrIn)

	rec := StageRecord{
		Path:  ps.path.Name,
		Stage: ps.stage,
		Iter:  ps.iter,
		Net:   st.Net,
		Final: ps.stage == len(ps.path.Stages)-1,
		// The quiet chain is always exact, so the stage's quality is
		// the noisy analysis's rung.
		Quality: nrep.Quality.String(),
		Result:  res,

		QuietOutT: quiet.out.T,
		QuietOutV: quiet.out.V,
		NoisyOutT: noisyOut.T,
		NoisyOutV: noisyOut.V,
	}
	if rec.Final && (ps.iter+1 >= r.opt.MaxIterations ||
		(ps.hasPrev && math.Abs(res.NoisyArr-ps.prevFinalArr) <= arrivalTol)) {
		rec.Done = true
	}

	ps.quality = worseQuality(ps.quality, nrep.Quality)
	rising := ps.path.StageRising(ps.stage)
	ps.quiet = Handoff{Wave: quiet.out, Rising: rising, Cross: quiet.cross, Shift: qshift}
	ps.noisy = Handoff{Wave: noisyOut, Rising: rising, Cross: nrep.Res.NoisyOutCross, Shift: nshift}

	if err := r.opt.Journal.Record(rec); err != nil {
		return StageRecord{}, noiseerr.Reclass(noiseerr.ErrInternal, err)
	}
	ps.records = append(ps.records, rec)
	r.emitRecord(rec)
	return rec, nil
}

// quietResult is one stage's quiet-chain outcome: the receiver output
// (ending at its settled stop), its final 50% crossing, and the stage's
// quiet combined delay.
type quietResult struct {
	out               *waveform.PWL
	cross, stageDelay float64
}

// quietStage runs the quiet chain of the path's ready stage on its
// derived case qc. The quiet chain never reads a window, so every pass
// after the first repeats pass 1's quiet analyses exactly: from pass 2
// on, the stage takes its quiet result from the path's pass-1 record of
// the same stage instead of analyzing it again. An adopted pass-1
// record serves the same way, series included.
func (r *runner) quietStage(ps *pathState, qc *delaynoise.Case) (quietResult, error) {
	if ps.iter > 0 {
		rec := ps.records[ps.stage]
		return quietResult{
			out:        waveform.New(rec.QuietOutT, rec.QuietOutV),
			cross:      rec.Result.QuietCross,
			stageDelay: rec.Result.StageQuiet,
		}, nil
	}
	qrep := r.tool.AnalyzeQuietNet(ps.ctx, ps.path.Stages[ps.stage].Net, qc)
	if qrep.Err != nil {
		return quietResult{}, qrep.Err
	}
	return quietResult{out: qrep.Res.QuietRecvOut, cross: qrep.Res.QuietOutCross, stageDelay: qrep.Res.QuietCombinedDelay}, nil
}

// advance moves the path's ready node past a successful record,
// reporting whether more nodes remain.
func (r *runner) advance(ps *pathState, rec StageRecord) (more bool) {
	ps.stage++
	if ps.stage < len(ps.path.Stages) {
		return true
	}
	// Pass complete.
	r.tool.Metrics().Counter(mPathIters).Inc()
	if rec.Done {
		return false
	}
	finalArr := rec.Result.NoisyArr
	if ps.iter+1 >= r.opt.MaxIterations ||
		(ps.hasPrev && math.Abs(finalArr-ps.prevFinalArr) <= arrivalTol) {
		// Adopted final records decide termination here (fresh ones
		// carry Done from execute); an adopted non-Done final record at
		// the iteration cap means the prior run used more iterations.
		return false
	}
	ps.prevFinalArr, ps.hasPrev = finalArr, true
	ps.stage, ps.iter = 0, ps.iter+1
	ps.quiet, ps.noisy = Handoff{}, Handoff{}
	return true
}

// fail records a path's terminal error. Cancellation leaves no journal
// record — the work didn't happen, and a resumed run must redo it —
// while real failures journal a terminal Done record so downstream
// consumers (gateway reshard, resume) see the path as settled.
func (r *runner) fail(ps *pathState, err error) (more bool) {
	err = noiseerr.WithNet(ps.path.Name, err)
	ps.err = err
	if errors.Is(ps.ctx.Err(), context.DeadlineExceeded) {
		// The path's own budget expired: a real, journaled failure.
		err = noiseerr.Reclass(noiseerr.ErrDeadline, err)
		ps.err = err
	} else if noiseerr.Class(err) == noiseerr.ErrCanceled {
		// The caller gave up on the run: not a path outcome.
		ps.canceled = true
		return false
	}
	rec := StageRecord{
		Path:  ps.path.Name,
		Stage: ps.stage,
		Iter:  ps.iter,
		Net:   ps.path.Stages[ps.stage].Net,
		Final: ps.stage == len(ps.path.Stages)-1,
		Done:  true,
		Class: noiseerr.ClassName(err),
		Error: err.Error(),
	}
	// A failed journal write here is unreportable beyond the in-memory
	// record; the resumed run simply re-executes the stage.
	_ = r.opt.Journal.Record(rec)
	ps.records = append(ps.records, rec)
	r.emitRecord(rec)
	return false
}

func (r *runner) emitRecord(rec StageRecord) {
	if r.opt.Emit == nil {
		return
	}
	r.emit.Lock()
	defer r.emit.Unlock()
	r.opt.Emit(rec)
}

// stageWindow is the sta-style switching window for a stage's noisy
// chain, in the stage's local frame: the victim input can arrive
// anywhere between the quiet chain's arrival and the noisy chain's
// (upstream noise shifts it by cumIn), padded by half the derived input
// slew on both sides — the same pad convention sta.aggressorWindow
// applies to arrival uncertainty.
func stageWindow(c *delaynoise.Case, cumIn float64) *delaynoise.Window {
	t50 := c.Victim.InputStart + c.Victim.InputSlew/2
	pad := 0.5 * c.Victim.InputSlew
	return &delaynoise.Window{
		Lo: t50 - pad - math.Max(cumIn, 0),
		Hi: t50 + pad - math.Min(cumIn, 0),
	}
}

// worseQuality returns the more degraded of two ladder rungs.
func worseQuality(a, b resilience.Quality) resilience.Quality {
	if b > a {
		return b
	}
	return a
}
