package lsim

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/mna"
	"repro/internal/noiseerr"
	"repro/internal/waveform"
)

// flipCtx reports Canceled starting with the (after+1)-th Err call,
// letting tests fire a cancellation at an exact solver checkpoint.
type flipCtx struct {
	context.Context
	calls atomic.Int64
	after int64
}

func (f *flipCtx) Err() error {
	if f.calls.Add(1) > f.after {
		return context.Canceled
	}
	return nil
}

func TestPreCanceledContextFailsFast(t *testing.T) {
	ckt := rcCircuit(1000, 1e-12, waveform.Ramp(0, 1e-13, 0, 1))
	sys, _ := mna.Build(ckt)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(sys, Options{TStop: 5e-9, Step: 1e-12, Ctx: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !errors.Is(err, noiseerr.ErrCanceled) {
		t.Fatalf("err = %v, want noiseerr.ErrCanceled", err)
	}
	_, err = RunToCrossingContext(ctx, sys, Options{TStop: 5e-9, Step: 1e-12}, "out", 0.5, true)
	if !errors.Is(err, context.Canceled) || !errors.Is(err, noiseerr.ErrCanceled) {
		t.Fatalf("RunToCrossingContext err = %v, want a canceled error", err)
	}
}

// TestCancellationBoundedSteps flips the context mid-run and checks the
// integration loop aborts within CtxCheckInterval steps of the flip:
// the entry check consumes one Err call, so with after=1 the first
// in-loop check (step CtxCheckInterval) observes the cancellation.
func TestCancellationBoundedSteps(t *testing.T) {
	ckt := rcCircuit(1000, 1e-12, waveform.Ramp(0, 1e-13, 0, 1))
	sys, _ := mna.Build(ckt)
	fc := &flipCtx{Context: context.Background(), after: 1}
	_, err := Run(sys, Options{TStop: 5e-9, Step: 1e-12, Ctx: fc})
	if err == nil {
		t.Fatal("canceled run succeeded")
	}
	if !errors.Is(err, context.Canceled) || !errors.Is(err, noiseerr.ErrCanceled) {
		t.Fatalf("err = %v, want both context.Canceled and noiseerr.ErrCanceled", err)
	}
	var step, steps int
	if _, serr := fmt.Sscanf(err.Error(), "lsim: canceled at step %d of %d", &step, &steps); serr != nil {
		t.Fatalf("unexpected error format: %v", err)
	}
	if step != CtxCheckInterval {
		t.Fatalf("aborted at step %d, want the first checkpoint %d", step, CtxCheckInterval)
	}
	if step >= steps {
		t.Fatalf("abort step %d not mid-run (total %d)", step, steps)
	}
}

func TestNilContextRunsToCompletion(t *testing.T) {
	ckt := rcCircuit(1000, 1e-12, waveform.Ramp(0, 1e-13, 0, 1))
	sys, _ := mna.Build(ckt)
	if _, err := Run(sys, Options{TStop: 5e-9, Step: 1e-12}); err != nil {
		t.Fatalf("nil-context run failed: %v", err)
	}
}
