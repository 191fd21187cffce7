package pathnoise_test

import (
	"bytes"
	"context"
	"path/filepath"
	"testing"

	"repro/internal/clarinet"
	"repro/internal/delaynoise"
	"repro/internal/device"
	"repro/internal/pathnoise"
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

// TestGoldenHandoffReuse is the reuse guarantee the whole subsystem
// rests on: the noisy waveform a stage hands to its successor is the
// alignment-objective waveform delaynoise computed — the same slice
// contents, bit for bit — not a re-simulation or an approximation of
// it. Stage 0 runs on the workload's nominal case, so an independent
// per-net analysis of that exact case must reproduce the journaled
// stage-0 series exactly.
func TestGoldenHandoffReuse(t *testing.T) {
	paths, lib := pathPopulation(t, 1, 2, 7)
	tool := pathTool(t, lib, 2)

	var recs []pathnoise.StageRecord
	_, err := pathnoise.Run(context.Background(), tool, paths, pathnoise.Options{
		MaxIterations: 1,
		Emit:          func(rec pathnoise.StageRecord) { recs = append(recs, rec) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d stage records, want 2", len(recs))
	}
	s0 := recs[0]
	if s0.Stage != 0 || s0.Result == nil {
		t.Fatalf("stage 0 record malformed: %+v", s0)
	}

	// Independent per-net analysis of the same case.
	rep := tool.AnalyzeNet(context.Background(), "golden", paths[0].Stages[0].Case)
	if rep.Err != nil {
		t.Fatal(rep.Err)
	}
	want := rep.Res.NoisyRecvOut
	if len(s0.NoisyOutT) != len(want.T) {
		t.Fatalf("stage-0 noisy series has %d points, per-net analysis %d", len(s0.NoisyOutT), len(want.T))
	}
	for i := range want.T {
		if s0.NoisyOutT[i] != want.T[i] || s0.NoisyOutV[i] != want.V[i] {
			t.Fatalf("noisy handoff diverges from the alignment objective at %d: (%g,%g) vs (%g,%g)",
				i, s0.NoisyOutT[i], s0.NoisyOutV[i], want.T[i], want.V[i])
		}
	}
	if s0.Result.NoisyCross != rep.Res.NoisyOutCross {
		t.Fatalf("noisy crossing %g != alignment objective's %g", s0.Result.NoisyCross, rep.Res.NoisyOutCross)
	}
	quiet := rep.Res.QuietRecvOut
	for i := range quiet.T {
		if s0.QuietOutT[i] != quiet.T[i] || s0.QuietOutV[i] != quiet.V[i] {
			t.Fatalf("quiet handoff diverges at %d", i)
		}
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

// TestTopologyHash pins the identity properties the warm store depends
// on: nonzero, order-insensitive over the path set, and sensitive to
// the chain structure.
func TestTopologyHash(t *testing.T) {
	paths, _ := pathPopulation(t, 2, 2, 23)
	h := pathnoise.TopologyHash(paths)
	if h == 0 {
		t.Fatal("topology hash must never be zero (zero is the per-net identity)")
	}
	if got := pathnoise.TopologyHash([]*pathnoise.Path{paths[1], paths[0]}); got != h {
		t.Fatalf("hash is order-sensitive: %x vs %x", got, h)
	}
	if got := pathnoise.TopologyHash(paths[:1]); got == h {
		t.Fatal("dropping a path kept the hash")
	}
	shuffled := &pathnoise.Path{Name: paths[0].Name, Stages: []pathnoise.Stage{paths[0].Stages[1], paths[0].Stages[0]}}
	if got := pathnoise.TopologyHash([]*pathnoise.Path{shuffled, paths[1]}); got == h {
		t.Fatal("reordering stages kept the hash")
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
