package clarinet

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/delaynoise"
	"repro/internal/noiseerr"
	"repro/internal/resilience"
)

// stubAnalyze swaps the per-net analysis seam for the test's lifetime.
func stubAnalyze(t *testing.T, fn func(context.Context, *delaynoise.Case, delaynoise.Options) (*delaynoise.Result, error)) {
	t.Helper()
	orig := analyze
	analyze = fn
	t.Cleanup(func() { analyze = orig })
}

// TestCancellationMidSimulationBoundedAbort cancels the batch only once
// the first net is inside a solver loop: the in-flight net must abort at
// a bounded-step checkpoint and every failed report must classify as
// both context.Canceled and noiseerr.ErrCanceled, with net attribution.
func TestCancellationMidSimulationBoundedAbort(t *testing.T) {
	names, cases, lib := population(t, 3)
	tool := MustNew(lib, Config{
		Hold:    delaynoise.HoldTransient,
		Align:   delaynoise.AlignReceiverInput,
		Workers: 1,
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan []NetReport, 1)
	go func() { done <- tool.AnalyzeAllContext(ctx, names, cases) }()
	// Wait for the first net to reach a simulation, then fire.
	m := tool.Metrics()
	deadline := time.Now().Add(30 * time.Second)
	for m.Counter("sim.linear").Value() == 0 && m.Counter("sim.nonlinear.receiver").Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("batch never reached a simulation")
		}
		time.Sleep(50 * time.Microsecond)
	}
	cancel()
	reports := <-done

	canceled := 0
	for _, r := range reports {
		if r.Err == nil {
			continue // a net may have completed before the flip
		}
		if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("net %s: err = %v, want context.Canceled in chain", r.Name, r.Err)
		}
		if !errors.Is(r.Err, noiseerr.ErrCanceled) {
			t.Fatalf("net %s: err = %v, want noiseerr.ErrCanceled in chain", r.Name, r.Err)
		}
		var se *noiseerr.StageError
		if !errors.As(r.Err, &se) || se.Net != r.Name {
			t.Fatalf("net %s: error lacks net attribution: %v", r.Name, r.Err)
		}
		if noiseerr.ClassName(r.Err) != "canceled" {
			t.Fatalf("net %s: classified as %s", r.Name, noiseerr.ClassName(r.Err))
		}
		canceled++
	}
	if canceled == 0 {
		t.Fatal("no net observed the cancellation")
	}
}

// TestErrorTaxonomyThroughBatch pushes a classified stage error through
// the tool layer and checks errors.Is/As resolve both the class sentinel
// and the stage attribution from the report the caller sees.
func TestErrorTaxonomyThroughBatch(t *testing.T) {
	names, cases, lib := population(t, 1)
	tool := MustNew(lib, Config{Align: delaynoise.AlignReceiverInput})
	stubAnalyze(t, func(context.Context, *delaynoise.Case, delaynoise.Options) (*delaynoise.Result, error) {
		return nil, noiseerr.InStage(noiseerr.StageSimulate,
			noiseerr.Numericalf("lsim: singular conductance matrix"))
	})
	r := tool.AnalyzeNet(context.Background(), names[0], cases[0])
	if !errors.Is(r.Err, noiseerr.ErrNumerical) {
		t.Fatalf("err = %v, want noiseerr.ErrNumerical in chain", r.Err)
	}
	var se *noiseerr.StageError
	if !errors.As(r.Err, &se) {
		t.Fatalf("err = %v, want a StageError in chain", r.Err)
	}
	if se.Net != names[0] || se.Stage != noiseerr.StageSimulate {
		t.Fatalf("attribution = net %q stage %q, want net %q stage %q",
			se.Net, se.Stage, names[0], noiseerr.StageSimulate)
	}
	if got := tool.Metrics().Counter("nets.failed").Value(); got != 1 {
		t.Fatalf("nets.failed = %d", got)
	}
}

// TestInvalidCaseClassified runs a structurally bad case end to end: the
// validation failure must classify as ErrInvalidCase at the tool layer.
func TestInvalidCaseClassified(t *testing.T) {
	_, _, lib := population(t, 0)
	tool := MustNew(lib, Config{Align: delaynoise.AlignReceiverInput})
	r := tool.AnalyzeNet(context.Background(), "bad", &delaynoise.Case{})
	if !errors.Is(r.Err, noiseerr.ErrInvalidCase) {
		t.Fatalf("err = %v, want noiseerr.ErrInvalidCase in chain", r.Err)
	}
	if noiseerr.ClassName(r.Err) != "invalid-case" {
		t.Fatalf("classified as %s", noiseerr.ClassName(r.Err))
	}
}

// TestFallbackToPrechar degrades an exhaustive-search convergence
// failure to the table-driven alignment: the net must succeed, count in
// nets.fallback, and not count as failed.
func TestFallbackToPrechar(t *testing.T) {
	names, cases, lib := population(t, 1)
	tool := MustNew(lib, Config{
		Hold:        delaynoise.HoldTransient,
		Align:       delaynoise.AlignExhaustive,
		Resilience:  resilience.Policy{FallbackToPrechar: true},
		PrecharGrid: 5, // keep the on-demand table build fast
	})
	stubAnalyze(t, func(ctx context.Context, c *delaynoise.Case, opt delaynoise.Options) (*delaynoise.Result, error) {
		if opt.Align == delaynoise.AlignExhaustive {
			return nil, noiseerr.InStage(noiseerr.StageAlign,
				noiseerr.Convergencef("align: no alignment produced an output crossing"))
		}
		if opt.Table == nil {
			t.Error("fallback retry did not carry a prechar table")
		}
		return delaynoise.AnalyzeContext(ctx, c, opt)
	})
	r := tool.AnalyzeNet(context.Background(), names[0], cases[0])
	if r.Err != nil {
		t.Fatalf("fallback net failed: %v", r.Err)
	}
	if r.Res == nil || r.Res.DelayNoise == 0 {
		t.Fatal("fallback produced no result")
	}
	m := tool.Metrics()
	if got := m.Counter("nets.fallback").Value(); got != 1 {
		t.Fatalf("nets.fallback = %d, want 1", got)
	}
	if got := m.Counter("nets.failed").Value(); got != 0 {
		t.Fatalf("nets.failed = %d, want 0", got)
	}
}

// TestConvergenceSurfacesWithoutFallback is the control: the same
// failure with fallback disabled must reach the caller classified as a
// convergence error in the align stage.
func TestConvergenceSurfacesWithoutFallback(t *testing.T) {
	names, cases, lib := population(t, 1)
	tool := MustNew(lib, Config{
		Hold:  delaynoise.HoldTransient,
		Align: delaynoise.AlignExhaustive,
	})
	stubAnalyze(t, func(context.Context, *delaynoise.Case, delaynoise.Options) (*delaynoise.Result, error) {
		return nil, noiseerr.InStage(noiseerr.StageAlign,
			noiseerr.Convergencef("align: no alignment produced an output crossing"))
	})
	r := tool.AnalyzeNet(context.Background(), names[0], cases[0])
	if !errors.Is(r.Err, noiseerr.ErrConvergence) {
		t.Fatalf("err = %v, want noiseerr.ErrConvergence in chain", r.Err)
	}
	var se *noiseerr.StageError
	if !errors.As(r.Err, &se) || se.Stage != noiseerr.StageAlign {
		t.Fatalf("err = %v, want StageAlign attribution", r.Err)
	}
	if got := tool.Metrics().Counter("nets.fallback").Value(); got != 0 {
		t.Fatalf("nets.fallback = %d, want 0", got)
	}
}
