package clarinet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/align"
	"repro/internal/delaynoise"
	"repro/internal/faultinject"
	"repro/internal/nlsim"
	"repro/internal/noiseerr"
	"repro/internal/resilience"
)

// cannedResult derives a deterministic Result from a string (a net name
// or a case key), standing in for a real analysis in chaos tests: the
// scalar fields are all the report and journal layers consume.
func cannedResult(name string) *delaynoise.Result {
	h := fnv.New64a()
	h.Write([]byte(name))
	x := h.Sum64()
	f := func(k uint, scale float64) float64 {
		return scale * (0.1 + float64((x>>k)&0xff)/256)
	}
	res := &delaynoise.Result{
		VictimCeff:             f(0, 1e-13),
		VictimRth:              f(8, 1000),
		VictimRtr:              f(16, 800),
		TPeak:                  f(24, 1e-9),
		QuietCombinedDelay:     f(32, 1e-10),
		DelayNoise:             5e-11 * (0.1 + float64(x>>11)/(1<<53)), // unique: sort key
		InterconnectDelayNoise: f(48, 2e-11),
		Iterations:             int(x%7) + 1,
	}
	res.NoisyCombinedDelay = res.QuietCombinedDelay + res.DelayNoise
	res.Pulse = align.Pulse{Height: f(56, 0.5), Width: f(4, 1e-10)}
	return res
}

// cannedAnalyze is the fault-free base analysis of the chaos suite. Its
// result derives from the case, not the net name, so copies of a case
// analyzed on their own agree with the report a batch hands them.
func cannedAnalyze(ctx context.Context, c *delaynoise.Case, opt delaynoise.Options) (*delaynoise.Result, error) {
	return cannedResult(c.Key()), nil
}

// TestChaosDuplicateNets runs fault-injected copies of the same cases.
// A convergence fault on a case's first name is rescued once and every
// copy reports the same rescued quality without reaching the analysis
// seam; a panic or a stall on a first name leaves its copies to be
// analyzed on their own, each under its own fault schedule.
func TestChaosDuplicateNets(t *testing.T) {
	const copies = 3
	firstKinds := []faultinject.Kind{faultinject.KindNone, faultinject.KindConvergence, faultinject.KindPanic, faultinject.KindStall}
	for _, seed := range chaosSeeds(t) {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			base, baseCases, lib := population(t, len(firstKinds))
			names, cases := copiesOf(base, baseCases, copies)
			plan := faultinject.New(seed, faultinject.Config{ConvergenceFrac: 0.3})
			// The seed rotates which case's first name gets which fault.
			firstKind := map[string]faultinject.Kind{}
			for i, n := range base {
				k := firstKinds[(i+int(seed))%len(firstKinds)]
				plan.Assign(n+".0", k)
				firstKind[n] = k
			}
			calls := countCalls(t, plan.WrapAnalyze(cannedAnalyze))
			pol := resilience.DefaultPolicy()
			pol.NetTimeout = 50 * time.Millisecond // only the stalled net ever hits it
			tool := MustNew(lib, Config{Workers: 4, Resilience: pol})
			var journal bytes.Buffer
			reports := tool.AnalyzeBatch(context.Background(), names, cases, nil, NewJournal(&journal))

			byName := map[string]NetReport{}
			for i, r := range reports {
				if r.Name != names[i] {
					t.Fatalf("report %d out of order: %s", i, r.Name)
				}
				byName[r.Name] = r
			}
			var exact, rescued, reused int64
			tally := func(q resilience.Quality) {
				if q == resilience.QualityRescued {
					rescued++
				} else {
					exact++
				}
			}
			for _, n := range base {
				first := byName[n+".0"]
				switch firstKind[n] {
				case faultinject.KindPanic:
					var pe *noiseerr.PanicError
					if !errors.As(first.Err, &pe) {
						t.Errorf("%s.0 (panic): err = %v, want PanicError", n, first.Err)
					}
				case faultinject.KindStall:
					if !errors.Is(first.Err, noiseerr.ErrDeadline) {
						t.Errorf("%s.0 (stall): err = %v, want deadline", n, first.Err)
					}
				default:
					wantQ := resilience.QualityExact
					if firstKind[n] == faultinject.KindConvergence {
						wantQ = resilience.QualityRescued
					}
					if first.Err != nil || first.Quality != wantQ {
						t.Errorf("%s.0 (%v): err=%v quality=%v", n, firstKind[n], first.Err, first.Quality)
					}
					tally(first.Quality)
				}
				for k := 1; k < copies; k++ {
					name := fmt.Sprintf("%s.%d", n, k)
					r := byName[name]
					if first.Err == nil {
						// Reused: the first report under this name, no analysis.
						if r.Err != nil || r.Res != first.Res || r.Quality != first.Quality || calls(name) != 0 {
							t.Errorf("%s: err=%v quality=%v calls=%d, want %s.0's report reused", name, r.Err, r.Quality, calls(name), n)
						}
						reused++
					} else {
						// Analyzed alone, under its own fault schedule.
						wantQ := resilience.QualityExact
						if plan.Kind(name) == faultinject.KindConvergence {
							wantQ = resilience.QualityRescued
						}
						if r.Err != nil || r.Quality != wantQ || calls(name) == 0 {
							t.Errorf("%s: err=%v quality=%v calls=%d, want analyzed alone with quality %v", name, r.Err, r.Quality, calls(name), wantQ)
						}
					}
					tally(r.Quality)
				}
			}
			checkCounters(t, tool, map[string]int64{
				"nets.analyzed": int64(len(names)),
				"nets.exact":    exact,
				"nets.rescued":  rescued,
				"nets.reused":   reused,
				"nets.failed":   2,
				"nets.panicked": 1,
				"nets.deadline": 1,
				"nets.canceled": 0,
			})
			prior, err := ReadJournal(bytes.NewReader(journal.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if len(prior) != len(names) {
				t.Errorf("journal has %d records, want %d", len(prior), len(names))
			}
		})
	}
}

// chaosSeeds returns the fault-injection seeds to run: CHAOS_SEED
// overrides the default 3-seed matrix (the CI chaos job runs one seed
// per matrix entry).
func chaosSeeds(t *testing.T) []uint64 {
	if s := os.Getenv("CHAOS_SEED"); s != "" {
		seed, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			t.Fatalf("CHAOS_SEED=%q: %v", s, err)
		}
		return []uint64{seed}
	}
	return []uint64{1, 2, 3}
}

// TestChaosBatch is the fault-injected acceptance batch: seeded
// convergence failures plus exactly one panic and one stalled net. The
// batch must complete with exact/rescued/fallback/failed/panicked/
// deadline counts derived from the injection plan, never from luck.
func TestChaosBatch(t *testing.T) {
	for _, seed := range chaosSeeds(t) {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			names, cases, lib := population(t, 12)
			plan := faultinject.New(seed, faultinject.Config{
				ConvergenceFrac: 0.25,
				PersistentFrac:  0.15,
				FailureFrac:     0.10,
			})
			plan.Assign(names[0], faultinject.KindPanic) // exactly one panic
			plan.Assign(names[1], faultinject.KindStall) // exactly one runaway net
			stubAnalyze(t, plan.WrapAnalyze(cannedAnalyze))

			pol := resilience.DefaultPolicy()
			pol.NetTimeout = 50 * time.Millisecond // only the stalled net ever hits it
			tool := MustNew(lib, Config{
				Align:       delaynoise.AlignExhaustive,
				Workers:     4,
				PrecharGrid: 5,
				Resilience:  pol,
			})
			// Warm the alignment-table cache outside the deadline: the
			// prechar rescue rung then hits the cache instead of spending
			// the persistent nets' 50ms budgets on a real table build.
			exp := plan.Expect(names)
			idx := map[string]int{}
			for i, n := range names {
				idx[n] = i
			}
			for _, n := range exp[faultinject.KindPersistent] {
				c := cases[idx[n]]
				if _, err := tool.Session().Table(context.Background(), c.Receiver, c.Victim.OutputRising); err != nil {
					t.Fatal(err)
				}
			}

			var journal bytes.Buffer
			reports := tool.AnalyzeBatch(context.Background(), names, cases, nil, NewJournal(&journal))

			kindOf := map[string]faultinject.Kind{}
			for k, nets := range exp {
				for _, n := range nets {
					kindOf[n] = k
				}
			}
			for i, r := range reports {
				if r.Name != names[i] {
					t.Fatalf("report %d out of order: %s", i, r.Name)
				}
				switch kindOf[r.Name] {
				case faultinject.KindNone:
					if r.Err != nil || r.Quality != resilience.QualityExact {
						t.Errorf("%s (none): err=%v quality=%v", r.Name, r.Err, r.Quality)
					}
				case faultinject.KindConvergence:
					if r.Err != nil || r.Quality != resilience.QualityRescued {
						t.Errorf("%s (convergence): err=%v quality=%v", r.Name, r.Err, r.Quality)
					}
				case faultinject.KindPersistent:
					if r.Err != nil || r.Quality != resilience.QualityFallback {
						t.Errorf("%s (persistent): err=%v quality=%v", r.Name, r.Err, r.Quality)
					}
				case faultinject.KindFailure:
					if !errors.Is(r.Err, noiseerr.ErrNumerical) {
						t.Errorf("%s (failure): err=%v, want ErrNumerical", r.Name, r.Err)
					}
				case faultinject.KindPanic:
					var pe *noiseerr.PanicError
					if !errors.As(r.Err, &pe) || len(pe.Stack) == 0 {
						t.Errorf("%s (panic): err=%v, want PanicError with stack", r.Name, r.Err)
					}
					if noiseerr.ClassName(r.Err) != "internal" {
						t.Errorf("%s (panic): class=%s", r.Name, noiseerr.ClassName(r.Err))
					}
				case faultinject.KindStall:
					if !errors.Is(r.Err, noiseerr.ErrDeadline) || noiseerr.ClassName(r.Err) != "deadline" {
						t.Errorf("%s (stall): err=%v class=%s, want deadline", r.Name, r.Err, noiseerr.ClassName(r.Err))
					}
				}
			}

			m := tool.Metrics().Snapshot()
			wantFailed := int64(len(exp[faultinject.KindFailure]) + len(exp[faultinject.KindPanic]) + len(exp[faultinject.KindStall]))
			for counter, want := range map[string]int64{
				"nets.analyzed": int64(len(names)),
				"nets.exact":    int64(len(exp[faultinject.KindNone])),
				"nets.rescued":  int64(len(exp[faultinject.KindConvergence])),
				"nets.fallback": int64(len(exp[faultinject.KindPersistent])),
				"nets.failed":   wantFailed,
				"nets.panicked": 1,
				"nets.deadline": 1,
				"nets.canceled": 0,
			} {
				if got := m.Counters[counter]; got != want {
					t.Errorf("%s = %d, want %d (plan: %v)", counter, got, want, exp)
				}
			}

			// Every net has a journal entry (nothing was canceled), and
			// the journal replays to the same outcomes.
			prior, err := ReadJournal(bytes.NewReader(journal.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if len(prior) != len(names) {
				t.Errorf("journal has %d records, want %d", len(prior), len(names))
			}
			if out := os.Getenv("CHAOS_JOURNAL_OUT"); out != "" {
				if err := os.WriteFile(fmt.Sprintf("%s.seed%d.jsonl", out, seed), journal.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// cancelAfter is a journal sink that cancels a context once n records
// have landed — the deterministic stand-in for kill -9 mid-batch.
type cancelAfter struct {
	mu     sync.Mutex
	buf    bytes.Buffer
	n      int
	cancel context.CancelFunc
}

func (w *cancelAfter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	n, err := w.buf.Write(p)
	if w.n--; w.n == 0 {
		w.cancel()
	}
	return n, err
}

// TestResumeByteIdentical kills a journaled batch after a few records,
// resumes from the journal, and demands the merged reports render
// byte-identically to an uninterrupted run — the acceptance criterion
// for checkpoint/resume.
func TestResumeByteIdentical(t *testing.T) {
	const seed = 5
	cfg := faultinject.Config{ConvergenceFrac: 0.3, FailureFrac: 0.2}
	toolCfg := Config{
		Align:      delaynoise.AlignExhaustive,
		Workers:    2,
		Resilience: resilience.Policy{DCHomotopy: true, FallbackToPrechar: true},
	}
	render := func(reports []NetReport) string {
		var b bytes.Buffer
		WriteReportOpts(&b, reports, ReportOptions{Quality: true})
		return b.String()
	}

	// Reference: one uninterrupted run.
	names, cases, lib := population(t, 8)
	stubAnalyze(t, faultinject.New(seed, cfg).WrapAnalyze(cannedAnalyze))
	want := render(MustNew(lib, toolCfg).AnalyzeAllContext(context.Background(), names, cases))

	// Interrupted run: the journal sink kills the batch after 3 records.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sink := &cancelAfter{n: 3, cancel: cancel}
	stubAnalyze(t, faultinject.New(seed, cfg).WrapAnalyze(cannedAnalyze))
	killed := MustNew(lib, toolCfg)
	killed.AnalyzeBatch(ctx, names, cases, nil, NewJournal(sink))
	if got := killed.Metrics().Counter("nets.canceled").Value(); got == 0 {
		t.Fatal("interrupted run canceled no nets; the kill came too late to test resume")
	}

	// Resume from the journal — with a torn trailing line, as a real
	// kill mid-write would leave.
	journal := append(sink.buf.Bytes(), []byte(`{"net":"torn","resu`)...)
	prior, err := ReadJournal(bytes.NewReader(journal))
	if err != nil {
		t.Fatal(err)
	}
	if len(prior) == 0 {
		t.Fatal("journal replay found no completed nets")
	}
	stubAnalyze(t, faultinject.New(seed, cfg).WrapAnalyze(cannedAnalyze))
	resumedTool := MustNew(lib, toolCfg)
	got := render(resumedTool.AnalyzeBatch(context.Background(), names, cases, prior, nil))
	if got != want {
		t.Fatalf("resumed report differs from uninterrupted run:\n--- want ---\n%s--- got ---\n%s", want, got)
	}
	if n := resumedTool.Metrics().Counter("nets.resumed").Value(); n != int64(len(prior)) {
		t.Fatalf("nets.resumed = %d, want %d", n, len(prior))
	}
}

// TestPerNetDeadline runs a batch with one stalled net under a per-net
// budget: only that net may fail, with the deadline class and stage
// attribution, while the batch and its siblings complete.
func TestPerNetDeadline(t *testing.T) {
	names, cases, lib := population(t, 3)
	plan := faultinject.New(9, faultinject.Config{})
	plan.Assign(names[1], faultinject.KindStall)
	stubAnalyze(t, plan.WrapAnalyze(cannedAnalyze))
	tool := MustNew(lib, Config{Workers: 3, Resilience: resilience.Policy{NetTimeout: 40 * time.Millisecond}})
	reports := tool.AnalyzeAllContext(context.Background(), names, cases)

	r := reports[1]
	if !errors.Is(r.Err, noiseerr.ErrDeadline) {
		t.Fatalf("stalled net err = %v, want ErrDeadline", r.Err)
	}
	if !errors.Is(r.Err, context.DeadlineExceeded) {
		t.Fatalf("stalled net err = %v, want context.DeadlineExceeded in chain", r.Err)
	}
	var se *noiseerr.StageError
	if !errors.As(r.Err, &se) || se.Net != names[1] {
		t.Fatalf("stalled net lacks attribution: %v", r.Err)
	}
	for _, i := range []int{0, 2} {
		if reports[i].Err != nil {
			t.Fatalf("sibling %s failed: %v", names[i], reports[i].Err)
		}
	}
	m := tool.Metrics()
	if got := m.Counter("nets.deadline").Value(); got != 1 {
		t.Fatalf("nets.deadline = %d, want 1", got)
	}
	if got := m.Counter("nets.failed").Value(); got != 1 {
		t.Fatalf("nets.failed = %d, want 1", got)
	}
	if got := m.Counter("nets.canceled").Value(); got != 0 {
		t.Fatalf("nets.canceled = %d, want 0", got)
	}
}

// TestCanceledBatchCountsCanceledNotFailed is the counter bugfix test:
// a pre-canceled batch must count every net in nets.canceled and none
// in nets.failed or nets.analyzed.
func TestCanceledBatchCountsCanceledNotFailed(t *testing.T) {
	names, cases, lib := population(t, 4)
	tool := MustNew(lib, Config{Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tool.AnalyzeAllContext(ctx, names, cases)
	m := tool.Metrics()
	if got := m.Counter("nets.canceled").Value(); got != 4 {
		t.Fatalf("nets.canceled = %d, want 4", got)
	}
	if got := m.Counter("nets.failed").Value(); got != 0 {
		t.Fatalf("nets.failed = %d, want 0", got)
	}
	if got := m.Counter("nets.analyzed").Value(); got != 0 {
		t.Fatalf("nets.analyzed = %d, want 0", got)
	}
}

// TestFanOutPanicContainment injects a panic into one worker: the
// batch must complete, the poisoned net must carry a PanicError with
// stack and net attribution, and the Stream path must contain it too.
func TestFanOutPanicContainment(t *testing.T) {
	names, cases, lib := population(t, 3)
	plan := faultinject.New(11, faultinject.Config{})
	plan.Assign(names[2], faultinject.KindPanic)
	stubAnalyze(t, plan.WrapAnalyze(cannedAnalyze))
	tool := MustNew(lib, Config{Workers: 3})
	reports := tool.AnalyzeAllContext(context.Background(), names, cases)

	var pe *noiseerr.PanicError
	if !errors.As(reports[2].Err, &pe) {
		t.Fatalf("panicked net err = %v, want PanicError", reports[2].Err)
	}
	if !strings.Contains(fmt.Sprint(pe.Value), names[2]) || len(pe.Stack) == 0 {
		t.Fatalf("panic payload incomplete: value=%v stack=%d bytes", pe.Value, len(pe.Stack))
	}
	if !errors.Is(reports[2].Err, noiseerr.ErrInternal) {
		t.Fatal("panic not classified internal")
	}
	var se *noiseerr.StageError
	if !errors.As(reports[2].Err, &se) || se.Net != names[2] || se.Stage != noiseerr.StageResilience {
		t.Fatalf("panic attribution = %+v", se)
	}
	for _, i := range []int{0, 1} {
		if reports[i].Err != nil {
			t.Fatalf("sibling %s poisoned: %v", names[i], reports[i].Err)
		}
	}
	if got := tool.Metrics().Counter("nets.panicked").Value(); got != 1 {
		t.Fatalf("nets.panicked = %d, want 1", got)
	}

	// Stream must survive the same poison without wedging.
	got := 0
	for range tool.Stream(context.Background(), names, cases) {
		got++
	}
	if got != len(names) {
		t.Fatalf("stream delivered %d of %d reports", got, len(names))
	}
}

// TestSolverRescueEndToEnd injects convergence failures at real nlsim
// checkpoints (no stubbed analysis): the unrescued tool must fail the
// net with a convergence error, and the homotopy rung must heal it with
// quality "rescued".
func TestSolverRescueEndToEnd(t *testing.T) {
	names, cases, lib := population(t, 1)
	plan := faultinject.New(13, faultinject.Config{})
	plan.Assign(names[0], faultinject.KindSolverConvergence)
	restore := nlsim.SetCheckpointHook(plan.SolverCheckpoint())
	defer restore()

	base := Config{
		Hold:    delaynoise.HoldTransient,
		Align:   delaynoise.AlignReceiverInput,
		Workers: 1,
	}
	r := MustNew(lib, base).AnalyzeNet(context.Background(), names[0], cases[0])
	if !errors.Is(r.Err, noiseerr.ErrConvergence) {
		t.Fatalf("unrescued err = %v, want ErrConvergence", r.Err)
	}

	rescued := base
	rescued.Resilience = resilience.Policy{DCHomotopy: true}
	tool := MustNew(lib, rescued)
	r = tool.AnalyzeNet(context.Background(), names[0], cases[0])
	if r.Err != nil {
		t.Fatalf("rescued net failed: %v", r.Err)
	}
	if r.Quality != resilience.QualityRescued {
		t.Fatalf("quality = %v, want rescued", r.Quality)
	}
	m := tool.Metrics()
	if got := m.Counter("nets.rescued").Value(); got != 1 {
		t.Fatalf("nets.rescued = %d, want 1", got)
	}
	if got := m.Counter("rescue.homotopy").Value(); got != 1 {
		t.Fatalf("rescue.homotopy = %d, want 1", got)
	}
}

// TestJournalRoundTrip exercises the journal layer directly: canceled
// reports are skipped, failures round-trip message and class, torn and
// garbage lines are tolerated, and the last record for a net wins.
func TestJournalRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf)
	okRep := NetReport{Name: "good", Res: cannedResult("good"), Quality: resilience.QualityRescued}
	if err := j.Record(okRep); err != nil {
		t.Fatal(err)
	}
	failRep := NetReport{Name: "bad", Err: noiseerr.WithNet("bad", noiseerr.Numericalf("singular"))}
	if err := j.Record(failRep); err != nil {
		t.Fatal(err)
	}
	if err := j.Record(NetReport{Name: "dying", Err: noiseerr.Canceled(context.Canceled)}); err != nil {
		t.Fatal(err)
	}
	// A superseding record for "good" and assorted corruption.
	better := NetReport{Name: "good", Res: cannedResult("better"), Quality: resilience.QualityExact}
	if err := j.Record(better); err != nil {
		t.Fatal(err)
	}
	buf.WriteString("not json at all\n")
	buf.WriteString(`{"net":"torn","resul`)

	prior, err := ReadJournal(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(prior) != 2 {
		t.Fatalf("replayed %d nets, want 2 (got %v)", len(prior), prior)
	}
	if _, ok := prior["dying"]; ok {
		t.Fatal("canceled report must not be journaled")
	}
	good := prior["good"]
	if good.Quality != resilience.QualityExact || good.Res.DelayNoise != cannedResult("better").DelayNoise {
		t.Fatalf("last record did not win: %+v", good)
	}
	bad := prior["bad"]
	if bad.Err == nil || bad.Err.Error() != failRep.Err.Error() {
		t.Fatalf("failure message changed: %v vs %v", bad.Err, failRep.Err)
	}
	if !errors.Is(bad.Err, noiseerr.ErrNumerical) {
		t.Fatal("failure class lost through the journal")
	}
	// A nil journal is a valid sink.
	var nilJ *Journal
	if err := nilJ.Record(okRep); err != nil {
		t.Fatal(err)
	}
}

// TestQualityColumn checks the opt-in report column.
func TestQualityColumn(t *testing.T) {
	reports := []NetReport{
		{Name: "a", Res: cannedResult("a"), Quality: resilience.QualityFallback},
		{Name: "b", Err: noiseerr.Numericalf("boom")},
	}
	var buf bytes.Buffer
	WriteReportOpts(&buf, reports, ReportOptions{Quality: true})
	out := buf.String()
	if !strings.Contains(out, "quality") || !strings.Contains(out, "fallback") {
		t.Fatalf("quality column missing:\n%s", out)
	}
	buf.Reset()
	WriteReport(&buf, reports)
	if strings.Contains(buf.String(), "quality") {
		t.Fatal("quality column must be opt-in")
	}
}
