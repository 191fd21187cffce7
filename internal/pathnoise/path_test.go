package pathnoise_test

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clarinet"
	"repro/internal/delaynoise"
	"repro/internal/device"
	"repro/internal/nlsim"
	"repro/internal/pathnoise"
	"repro/internal/resilience"
	"repro/internal/waveform"
	"repro/internal/workload"
)

func pathPopulation(t testing.TB, n, stages int, seed int64) ([]*pathnoise.Path, *device.Library) {
	t.Helper()
	lib := device.NewLibrary(device.Default180())
	gen := workload.NewGenerator(lib, workload.DefaultProfile(), seed)
	_, _, paths, err := gen.PathPopulation(n, stages)
	if err != nil {
		t.Fatal(err)
	}
	return paths, lib
}

func pathTool(t testing.TB, lib *device.Library, workers int) *clarinet.Tool {
	t.Helper()
	return clarinet.MustNew(lib, clarinet.Config{
		Hold:    delaynoise.HoldTransient,
		Align:   delaynoise.AlignReceiverInput,
		Workers: workers,
	})
}

// stageRuns are one stage execution's receiver runs, rebuilt from the
// journaled records: each chain's case, and the full run of each
// chain's receiver input to its horizon.
type stageRuns struct {
	quietCase, noisyCase *delaynoise.Case
	quietFull, noisyFull *waveform.PWL
}

// rebuildStage rebuilds pass iter's execution of stage s of p from the
// upstream record's handoffs, as the scheduler derives it: the quiet
// chain's input is a fresh quiet analysis's noiseless input, the noisy
// chain's the noisy report input of a stage analysis under the pass's
// window. It fails the test when the rebuilt inputs, alignment or quiet
// stage delay differ from the record's.
func rebuildStage(t *testing.T, tool *clarinet.Tool, p *pathnoise.Path, recs map[pathnoise.StageKey]pathnoise.StageRecord, iter, s int) stageRuns {
	t.Helper()
	ctx := context.Background()
	st := p.Stages[s]
	rec, ok := recs[pathnoise.StageKey{Path: p.Name, Stage: s, Iter: iter}]
	if !ok || rec.Result == nil {
		t.Fatalf("pass %d stage %d: no successful record", iter+1, s)
	}
	res := rec.Result
	qc, nc := st.Case, st.Case
	var qshift, nshift float64
	if s > 0 {
		up := recs[pathnoise.StageKey{Path: p.Name, Stage: s - 1, Iter: iter}]
		rising := p.StageRising(s - 1)
		qh := pathnoise.Handoff{Wave: waveform.New(up.QuietOutT, up.QuietOutV), Rising: rising, Cross: up.Result.QuietCross, Shift: up.Result.QuietShift}
		nh := pathnoise.Handoff{Wave: waveform.New(up.NoisyOutT, up.NoisyOutV), Rising: rising, Cross: up.Result.NoisyCross, Shift: up.Result.NoisyShift}
		var err error
		if qc, qshift, err = pathnoise.StageInput(st.Case, qh); err != nil {
			t.Fatal(err)
		}
		if nc, nshift, err = pathnoise.StageInput(st.Case, nh); err != nil {
			t.Fatal(err)
		}
	}
	if qc.Victim.InputSlew != res.InSlewQuiet || qshift != res.QuietShift ||
		nc.Victim.InputSlew != res.InSlewNoisy || nshift != res.NoisyShift {
		t.Fatalf("pass %d stage %d: rebuilt inputs differ from the record's", iter+1, s)
	}

	qrep := tool.AnalyzeQuietNet(ctx, st.Net, qc)
	if qrep.Err != nil {
		t.Fatal(qrep.Err)
	}
	if qrep.Res.QuietCombinedDelay != res.StageQuiet {
		t.Fatalf("pass %d stage %d: stage delay %g, a fresh quiet analysis %g", iter+1, s, res.StageQuiet, qrep.Res.QuietCombinedDelay)
	}
	var win *delaynoise.Window
	if iter > 0 {
		win = pathnoise.StageWindow(nc, pathnoise.InputArrival(nc, nshift)-pathnoise.InputArrival(qc, qshift))
	}
	nrep := tool.AnalyzeStage(ctx, st.Net, nc, win)
	if nrep.Err != nil {
		t.Fatal(nrep.Err)
	}
	if nrep.Res.TPeak != res.TPeak {
		t.Fatalf("pass %d stage %d: aligned at %g, the record at %g", iter+1, s, nrep.Res.TPeak, res.TPeak)
	}
	quietFull, err := qc.Objective(ctx, nil).Output(qrep.Res.NoiselessRecvIn)
	if err != nil {
		t.Fatal(err)
	}
	noisyFull, err := nc.Objective(ctx, nil).Output(nrep.Res.NoisyRecvIn)
	if err != nil {
		t.Fatal(err)
	}
	return stageRuns{quietCase: qc, noisyCase: nc, quietFull: quietFull, noisyFull: noisyFull}
}

// TestGoldenHandoffReuse is the handoff guarantee the whole subsystem
// rests on. At every stage of both fixpoint passes, each chain's
// journaled series is the first rows of the full receiver run of the
// stage's receiver input: the noiseless input of a quiet analysis and
// the noisy report input of a windowed stage analysis, on the case
// rebuilt from the upstream record's handoff. A series ends where the
// settled-tail certificate stopped its run, which keeps all a chain
// reads: the derived slew and the final crossing are the full run's,
// bit for bit, and the crossing is the one the record reports. Pass 2
// takes its quiet chain from pass 1's records, so its quiet series must
// also be a fresh quiet analysis's.
func TestGoldenHandoffReuse(t *testing.T) {
	paths, lib := pathPopulation(t, 1, 3, 7)
	tool := pathTool(t, lib, 2)
	p := paths[0]

	recs := map[pathnoise.StageKey]pathnoise.StageRecord{}
	_, err := pathnoise.Run(context.Background(), tool, paths, pathnoise.Options{
		MaxIterations: 2,
		Emit:          func(rec pathnoise.StageRecord) { recs[rec.Key()] = rec },
	})
	if err != nil {
		t.Fatal(err)
	}

	// check holds one chain's series to the full run of its input.
	stopped := 0
	check := func(label string, c *delaynoise.Case, full *waveform.PWL, rising bool, outT, outV []float64, cross float64) {
		t.Helper()
		if len(outT) < 2 || len(outT) > len(full.T) || len(outV) != len(outT) {
			t.Fatalf("%s: series has %d points, the full run %d", label, len(outT), len(full.T))
		}
		for i := range outT {
			if outT[i] != full.T[i] || outV[i] != full.V[i] {
				t.Fatalf("%s: series diverges from the full run at %d: (%g,%g) vs (%g,%g)",
					label, i, outT[i], outV[i], full.T[i], full.V[i])
			}
		}
		if len(outT) < len(full.T) {
			stopped++
		}
		got := waveform.New(outT, outV)
		vdd, nominal := c.Victim.Cell.Tech.Vdd, c.Victim.InputSlew
		gs := pathnoise.DerivedSlew(pathnoise.Handoff{Wave: got, Rising: rising}, vdd, nominal)
		ws := pathnoise.DerivedSlew(pathnoise.Handoff{Wave: full, Rising: rising}, vdd, nominal)
		if math.Float64bits(gs) != math.Float64bits(ws) {
			t.Fatalf("%s: derived slew %g, the full run's %g", label, gs, ws)
		}
		obj := c.Objective(context.Background(), nil)
		gc, gErr := obj.Cross(got)
		wc, wErr := obj.Cross(full)
		if gErr != nil || wErr != nil || math.Float64bits(gc) != math.Float64bits(wc) || gc != cross {
			t.Fatalf("%s: crosses at %g (%v), the full run at %g (%v), the record at %g", label, gc, gErr, wc, wErr, cross)
		}
	}
	for iter := 0; iter < 2; iter++ {
		for s := range p.Stages {
			runs := rebuildStage(t, tool, p, recs, iter, s)
			rec := recs[pathnoise.StageKey{Path: p.Name, Stage: s, Iter: iter}]
			label := fmt.Sprintf("pass %d stage %d", iter+1, s)
			rising := p.StageRising(s)
			check(label+" quiet", runs.quietCase, runs.quietFull, rising, rec.QuietOutT, rec.QuietOutV, rec.Result.QuietCross)
			check(label+" noisy", runs.noisyCase, runs.noisyFull, rising, rec.NoisyOutT, rec.NoisyOutV, rec.Result.NoisyCross)
		}
	}
	if stopped == 0 {
		t.Fatal("no handoff series ended at a settled stop")
	}
}

// TestResumeAcrossPassBoundary resumes a two-pass run from journals cut
// after pass 1 and in the middle of pass 2, each with a torn frame at
// the cut. Pass 2 takes its quiet chain from pass 1's records, adopted
// ones included, so neither resume analyzes a quiet stage of pass 2:
// both must reproduce the uninterrupted run's report and its pass-2
// stage records byte for byte, quiet fields and series included. A
// pass-1 journal whose series run to the receiver horizon, as journals
// written before the settled handoff do, must resume to the same report.
func TestResumeAcrossPassBoundary(t *testing.T) {
	paths, lib := pathPopulation(t, 1, 3, 17)
	p := paths[0]
	ctx := context.Background()
	opt := pathnoise.Options{MaxIterations: 2}

	// Reference: an uninterrupted run, journaled, with the journal's
	// length after each record (one worker, so records land in order).
	var journal bytes.Buffer
	ends := map[pathnoise.StageKey]int{}
	ref := map[pathnoise.StageKey]pathnoise.StageRecord{}
	tool := pathTool(t, lib, 1)
	full := opt
	full.Journal = pathnoise.NewPathJournal(&journal, nil)
	full.Emit = func(rec pathnoise.StageRecord) {
		ends[rec.Key()] = journal.Len()
		ref[rec.Key()] = rec
	}
	refReports, err := pathnoise.Run(ctx, tool, paths, full)
	if err != nil {
		t.Fatal(err)
	}
	refJSON, err := pathnoise.MarshalReport(refReports)
	if err != nil {
		t.Fatal(err)
	}
	if n := tool.Metrics().Timer("net.quiet").Count(); n != int64(len(p.Stages)) {
		t.Fatalf("uninterrupted run analyzed %d quiet stages, want pass 1's %d", n, len(p.Stages))
	}

	// encode renders a record as binary journal bytes.
	encode := func(rec pathnoise.StageRecord) []byte {
		var buf bytes.Buffer
		if err := pathnoise.NewPathJournal(&buf, pathnoise.BinaryStages).Record(rec); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	resume := func(label string, prior map[pathnoise.StageKey]pathnoise.StageRecord) (map[pathnoise.StageKey]pathnoise.StageRecord, *clarinet.Tool) {
		t.Helper()
		got := map[pathnoise.StageKey]pathnoise.StageRecord{}
		tool := pathTool(t, lib, 1)
		resumed := opt
		resumed.Prior = prior
		resumed.Emit = func(rec pathnoise.StageRecord) { got[rec.Key()] = rec }
		reports, err := pathnoise.Run(ctx, tool, paths, resumed)
		if err != nil {
			t.Fatal(err)
		}
		gotJSON, err := pathnoise.MarshalReport(reports)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotJSON, refJSON) {
			t.Fatalf("%s: resumed report differs:\n--- resumed\n%s\n--- reference\n%s", label, gotJSON, refJSON)
		}
		return got, tool
	}

	for _, cut := range []struct {
		label string
		after pathnoise.StageKey
	}{
		{"after pass 1", pathnoise.StageKey{Path: p.Name, Stage: len(p.Stages) - 1, Iter: 0}},
		{"mid pass 2", pathnoise.StageKey{Path: p.Name, Stage: 0, Iter: 1}},
	} {
		prior, err := pathnoise.ReadPathJournal(bytes.NewReader(journal.Bytes()[:ends[cut.after]+7]))
		if err != nil {
			t.Fatal(err)
		}
		if len(prior) != len(p.Stages)*cut.after.Iter+cut.after.Stage+1 {
			t.Fatalf("%s: the cut journal holds %d records", cut.label, len(prior))
		}
		got, tool := resume(cut.label, prior)
		for s := range p.Stages {
			key := pathnoise.StageKey{Path: p.Name, Stage: s, Iter: 1}
			if !bytes.Equal(encode(got[key]), encode(ref[key])) {
				t.Errorf("%s: pass-2 stage %d differs from the uninterrupted run's", cut.label, s)
			}
		}
		if n := tool.Metrics().Timer("net.quiet").Count(); n != 0 {
			t.Errorf("%s: the resumed run analyzed %d quiet stages, want none", cut.label, n)
		}
	}

	// Pass 1 journaled with full-horizon series.
	var old bytes.Buffer
	oldJ := pathnoise.NewPathJournal(&old, nil)
	for s := range p.Stages {
		key := pathnoise.StageKey{Path: p.Name, Stage: s, Iter: 0}
		runs := rebuildStage(t, tool, p, ref, 0, s)
		rec := ref[key]
		if len(rec.QuietOutT) == len(runs.quietFull.T) && len(rec.NoisyOutT) == len(runs.noisyFull.T) {
			t.Fatalf("stage %d: neither series ended at a settled stop", s)
		}
		rec.QuietOutT, rec.QuietOutV = runs.quietFull.T, runs.quietFull.V
		rec.NoisyOutT, rec.NoisyOutV = runs.noisyFull.T, runs.noisyFull.V
		if err := oldJ.Record(rec); err != nil {
			t.Fatal(err)
		}
	}
	prior, err := pathnoise.ReadPathJournal(bytes.NewReader(old.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	resume("full-horizon pass 1", prior)
}

// TestStageSolvesRunUnderNetContext: every nonlinear solve of a path
// run, the noisy handoff included, runs inside its stage's per-net
// context, so it carries the net's name (the key of solver fault
// injection and rescue) and the net's deadline.
func TestStageSolvesRunUnderNetContext(t *testing.T) {
	paths, lib := pathPopulation(t, 1, 2, 7)
	var solves, stray atomic.Int64
	restore := nlsim.SetCheckpointHook(func(ctx context.Context, _ float64) error {
		solves.Add(1)
		if _, ok := ctx.Deadline(); !ok || resilience.NetName(ctx) == "" {
			stray.Add(1)
		}
		return nil
	})
	defer restore()
	tool := clarinet.MustNew(lib, clarinet.Config{
		Hold:       delaynoise.HoldTransient,
		Align:      delaynoise.AlignReceiverInput,
		Workers:    2,
		Resilience: resilience.Policy{NetTimeout: time.Hour},
	})
	reports, err := pathnoise.Run(context.Background(), tool, paths, pathnoise.Options{MaxIterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 1 || reports[0].Failed() {
		t.Fatalf("reports %+v", reports)
	}
	if solves.Load() == 0 || stray.Load() != 0 {
		t.Fatalf("%d of %d solver checkpoints ran outside a stage's net context", stray.Load(), solves.Load())
	}
}

// TestRunEndToEnd runs a small path set through the scheduler and
// checks the report invariants: per-stage rows in order, cumulative =
// final arrival gap, incremental sums to cumulative, and the DAG
// ordering (a stage record never precedes its predecessor stage within
// the same pass).
func TestRunEndToEnd(t *testing.T) {
	paths, lib := pathPopulation(t, 2, 3, 11)
	tool := pathTool(t, lib, 4)

	lastSeen := map[string][2]int{} // path -> (iter, stage) most recently emitted
	var recs []pathnoise.StageRecord
	reports, err := pathnoise.Run(context.Background(), tool, paths, pathnoise.Options{
		MaxIterations: 1,
		Emit: func(rec pathnoise.StageRecord) {
			prev, ok := lastSeen[rec.Path]
			if ok && (rec.Iter < prev[0] || (rec.Iter == prev[0] && rec.Stage != prev[1]+1)) {
				t.Errorf("out-of-order record for %s: %v after %v", rec.Path, [2]int{rec.Iter, rec.Stage}, prev)
			}
			lastSeen[rec.Path] = [2]int{rec.Iter, rec.Stage}
			recs = append(recs, rec)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 2 || len(recs) != 6 {
		t.Fatalf("%d reports, %d records", len(reports), len(recs))
	}
	for i, rep := range reports {
		if rep.Failed() {
			t.Fatalf("path %s failed: %s", rep.Name, rep.Error)
		}
		if rep.Name != paths[i].Name || len(rep.Stages) != 3 {
			t.Fatalf("report %d malformed: %+v", i, rep)
		}
		var sum float64
		for k, st := range rep.Stages {
			sum += st.Incremental
			if k > 0 && st.Cumulative != rep.Stages[k-1].Cumulative+st.Incremental {
				t.Fatalf("path %s stage %d: cumulative %g != prev %g + incr %g",
					rep.Name, k, st.Cumulative, rep.Stages[k-1].Cumulative, st.Incremental)
			}
		}
		final := rep.Stages[2]
		if rep.PathDelayNoise != final.Cumulative || rep.NoisyArrival-rep.QuietArrival != final.Cumulative {
			t.Fatalf("path %s: end-to-end figures inconsistent: %+v", rep.Name, rep)
		}
		if diff := sum - final.Cumulative; diff > 1e-20 || diff < -1e-20 {
			t.Fatalf("path %s: incremental sum %g != cumulative %g", rep.Name, sum, final.Cumulative)
		}
		if rep.PathDelayNoise <= 0 {
			t.Errorf("path %s: no delay noise propagated (%g)", rep.Name, rep.PathDelayNoise)
		}
	}
	// Terminal records carry Done.
	for _, rec := range recs {
		if rec.Final && rec.Stage == 2 && !rec.Done {
			t.Fatalf("final record not Done: %+v", rec)
		}
	}
}

// TestRunFixpointIterates runs two window-fixpoint passes: pass 2 must
// re-run every stage with a window, journal records for both passes,
// and the report must come from the final pass.
func TestRunFixpointIterates(t *testing.T) {
	paths, lib := pathPopulation(t, 1, 2, 13)
	tool := pathTool(t, lib, 2)

	var recs []pathnoise.StageRecord
	reports, err := pathnoise.Run(context.Background(), tool, paths, pathnoise.Options{
		MaxIterations: 2,
		Emit:          func(rec pathnoise.StageRecord) { recs = append(recs, rec) },
	})
	if err != nil {
		t.Fatal(err)
	}
	iters := map[int]int{}
	for _, rec := range recs {
		iters[rec.Iter]++
	}
	if iters[0] != 2 || iters[1] != 2 {
		t.Fatalf("pass coverage: %v (want 2 records in each of 2 passes)", iters)
	}
	if reports[0].Iterations != 2 {
		t.Fatalf("report iterations = %d", reports[0].Iterations)
	}
	if got := tool.Metrics().Counter("paths.iterations").Value(); got != 2 {
		t.Fatalf("paths.iterations = %d", got)
	}
}

// TestRunFixpointRepeatsPassTwo pins the fixpoint's structure: every
// pass derives each stage's input and window from that pass's own
// upstream handoffs, so pass 3 gets exactly pass 2's inputs and repeats
// it bit for bit. Its final arrival then meets the Tol test, and the
// path stops after 3 passes even when more are allowed.
func TestRunFixpointRepeatsPassTwo(t *testing.T) {
	paths, lib := pathPopulation(t, 1, 3, 13)
	tool := pathTool(t, lib, 2)

	recs := map[pathnoise.StageKey]pathnoise.StageRecord{}
	_, err := pathnoise.Run(context.Background(), tool, paths, pathnoise.Options{
		MaxIterations: 4,
		Emit:          func(rec pathnoise.StageRecord) { recs[rec.Key()] = rec },
	})
	if err != nil {
		t.Fatal(err)
	}
	// encode renders a record as binary journal bytes with the pass
	// fields cleared, so equal bytes mean bit-equal results and series.
	encode := func(rec pathnoise.StageRecord) []byte {
		rec.Iter, rec.Done = 0, false
		var buf bytes.Buffer
		if err := pathnoise.NewPathJournal(&buf, pathnoise.BinaryStages).Record(rec); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	p := paths[0]
	for s := range p.Stages {
		pass2, ok2 := recs[pathnoise.StageKey{Path: p.Name, Stage: s, Iter: 1}]
		pass3, ok3 := recs[pathnoise.StageKey{Path: p.Name, Stage: s, Iter: 2}]
		if !ok2 || !ok3 || pass2.Result == nil || pass3.Result == nil {
			t.Fatalf("stage %d: pass 2 or 3 missing or failed", s)
		}
		if !bytes.Equal(encode(pass2), encode(pass3)) {
			t.Errorf("stage %d: pass 3 differs from pass 2 (%+v vs %+v)", s, *pass3.Result, *pass2.Result)
		}
		if _, ok := recs[pathnoise.StageKey{Path: p.Name, Stage: s, Iter: 3}]; ok {
			t.Errorf("stage %d ran a fourth pass", s)
		}
	}
	if last := recs[pathnoise.StageKey{Path: p.Name, Stage: len(p.Stages) - 1, Iter: 2}]; !last.Done {
		t.Error("pass 3's final record is not Done")
	}
	if got := tool.Metrics().Counter("paths.iterations").Value(); got != 3 {
		t.Fatalf("paths.iterations = %d, want 3", got)
	}
}

// TestRunJournalResume is the checkpoint/resume contract at stage
// granularity: a run killed mid-path resumes from its journal without
// re-simulating completed stages, and the final report is byte-identical
// to an uninterrupted run's.
func TestRunJournalResume(t *testing.T) {
	paths, lib := pathPopulation(t, 1, 3, 17)
	tool := pathTool(t, lib, 2)
	ctx := context.Background()
	opt := pathnoise.Options{MaxIterations: 1}

	// Reference: uninterrupted run.
	refReports, err := pathnoise.Run(ctx, tool, paths, opt)
	if err != nil {
		t.Fatal(err)
	}
	refJSON, err := pathnoise.MarshalReport(refReports)
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: cancel after the first stage record lands.
	file := filepath.Join(t.TempDir(), "stages.journal")
	j, closeJ, err := pathnoise.OpenPathJournal(file, nil)
	if err != nil {
		t.Fatal(err)
	}
	killCtx, kill := context.WithCancel(ctx)
	killed := opt
	killed.Journal = j
	killed.Emit = func(rec pathnoise.StageRecord) {
		if rec.Stage == 0 {
			kill()
		}
	}
	if _, err := pathnoise.Run(killCtx, tool, paths, killed); err == nil {
		t.Fatal("killed run reported success")
	}
	kill()
	if err := closeJ(); err != nil {
		t.Fatal(err)
	}
	prior, err := pathnoise.ReadPathJournalFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if len(prior) == 0 || len(prior) >= 3 {
		t.Fatalf("kill left %d journal records, want a strict subset (>=1)", len(prior))
	}

	// Resume on a fresh tool (cold caches prove records, not cache
	// state, carry the work) and compare bytes.
	tool2 := pathTool(t, lib, 2)
	j2, closeJ2, err := pathnoise.OpenPathJournal(file, nil)
	if err != nil {
		t.Fatal(err)
	}
	resumed := opt
	resumed.Journal = j2
	resumed.Prior = prior
	gotReports, err := pathnoise.Run(ctx, tool2, paths, resumed)
	if err != nil {
		t.Fatal(err)
	}
	if err := closeJ2(); err != nil {
		t.Fatal(err)
	}
	gotJSON, err := pathnoise.MarshalReport(gotReports)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJSON, refJSON) {
		t.Fatalf("resumed report differs from uninterrupted run:\n--- resumed\n%s\n--- reference\n%s", gotJSON, refJSON)
	}
	if got := tool2.Metrics().Counter("paths.stages.resumed").Value(); got != int64(len(prior)) {
		t.Fatalf("paths.stages.resumed = %d, want %d", got, len(prior))
	}
	// The journal now holds the complete run: assembling from it alone
	// must reproduce the same bytes too.
	all, err := pathnoise.ReadPathJournalFile(file)
	if err != nil {
		t.Fatal(err)
	}
	fromJournal, err := pathnoise.MarshalReport(pathnoise.Assemble(paths, all))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fromJournal, refJSON) {
		t.Fatalf("journal-assembled report differs:\n%s", fromJournal)
	}
}

// TestRunCanceledBeforeStart: a dead context yields canceled reports
// and no journal records.
func TestRunCanceledBeforeStart(t *testing.T) {
	paths, lib := pathPopulation(t, 1, 2, 19)
	tool := pathTool(t, lib, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var buf bytes.Buffer
	reports, err := pathnoise.Run(ctx, tool, paths, pathnoise.Options{Journal: pathnoise.NewPathJournal(&buf, nil)})
	if err == nil {
		t.Fatal("canceled run reported success")
	}
	if len(reports) != 1 || !reports[0].Failed() {
		t.Fatalf("reports = %+v", reports)
	}
	if buf.Len() != 0 {
		t.Fatalf("canceled run journaled %d bytes", buf.Len())
	}
	if got := tool.Metrics().Counter("paths.canceled").Value(); got != 1 {
		t.Fatalf("paths.canceled = %d", got)
	}
}

// TestValidateRejectsBrokenChain: a stage boundary whose cells don't
// match must fail validation.
func TestValidateRejectsBrokenChain(t *testing.T) {
	paths, lib := pathPopulation(t, 1, 2, 29)
	p := paths[0]
	other, err := lib.Cell("INVX16")
	if err != nil {
		t.Fatal(err)
	}
	broken := *p.Stages[1].Case
	broken.Victim.Cell = other
	bad := &pathnoise.Path{Name: p.Name, Stages: []pathnoise.Stage{p.Stages[0], {Net: "x", Case: &broken}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("mismatched boundary cell accepted")
	}
	if err := pathnoise.ValidatePaths([]*pathnoise.Path{p, {Name: p.Name, Stages: p.Stages}}); err == nil {
		t.Fatal("duplicate path names accepted")
	}
}
