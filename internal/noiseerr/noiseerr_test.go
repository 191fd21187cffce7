package noiseerr

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

func TestClassSentinels(t *testing.T) {
	cases := []struct {
		err   error
		class error
		name  string
	}{
		{Invalidf("bad net"), ErrInvalidCase, "invalid-case"},
		{Convergencef("newton stalled"), ErrConvergence, "convergence"},
		{Numericalf("singular"), ErrNumerical, "numerical"},
		{Canceled(context.Canceled), ErrCanceled, "canceled"},
		{As(ErrDeadline, context.DeadlineExceeded), ErrDeadline, "deadline"},
		{Internalf("broken invariant"), ErrInternal, "internal"},
		{&PanicError{Value: "boom"}, ErrInternal, "internal"},
	}
	for _, c := range cases {
		if !errors.Is(c.err, c.class) {
			t.Errorf("%v: errors.Is(%v) = false", c.err, c.class)
		}
		if Class(c.err) != c.class {
			t.Errorf("Class(%v) = %v, want %v", c.err, Class(c.err), c.class)
		}
		if ClassName(c.err) != c.name {
			t.Errorf("ClassName(%v) = %q, want %q", c.err, ClassName(c.err), c.name)
		}
	}
	if Class(nil) != nil {
		t.Errorf("Class(nil) = %v, want nil", Class(nil))
	}
	if got := ClassName(errors.New("plain")); got != "unclassified" {
		t.Errorf("ClassName(plain) = %q", got)
	}
}

func TestCanceledMatchesBothChains(t *testing.T) {
	err := Canceled(fmt.Errorf("lsim: canceled at step 64: %w", context.Canceled))
	if !errors.Is(err, ErrCanceled) {
		t.Error("canceled error does not match ErrCanceled")
	}
	if !errors.Is(err, context.Canceled) {
		t.Error("canceled error does not match context.Canceled")
	}
	// Bare context errors classify without any wrapping.
	if Class(context.DeadlineExceeded) != ErrCanceled {
		t.Error("bare DeadlineExceeded did not classify as canceled")
	}
}

func TestCancellationWinsClassification(t *testing.T) {
	// A run aborted by cancellation may surface a secondary numerical
	// symptom; the canceled class must win.
	err := As(ErrNumerical, fmt.Errorf("aborted: %w", Canceled(context.Canceled)))
	if Class(err) != ErrCanceled {
		t.Errorf("Class = %v, want ErrCanceled", Class(err))
	}
}

func TestDeadlineOutranksCancellation(t *testing.T) {
	// A deadlined net surfaces the solver's cancellation symptom on the
	// way out; the explicit deadline tag must still win so the net is
	// reported as a per-net failure, not a caller abort.
	solver := Canceled(fmt.Errorf("nlsim: canceled at t=1e-9: %w", context.DeadlineExceeded))
	err := As(ErrDeadline, solver)
	if Class(err) != ErrDeadline {
		t.Errorf("Class = %v, want ErrDeadline", Class(err))
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Error("deadline error lost the context chain")
	}
}

func TestReclassKeepsStageAttribution(t *testing.T) {
	staged := WithNet("net7", InStage(StageSimulate, Canceled(context.DeadlineExceeded)))
	re := Reclass(ErrDeadline, staged)
	var se *StageError
	if !errors.As(re, &se) || se.Net != "net7" || se.Stage != StageSimulate {
		t.Fatalf("attribution lost through Reclass: %+v", se)
	}
	if Class(re) != ErrDeadline {
		t.Errorf("Class = %v, want ErrDeadline", Class(re))
	}
	if Reclass(ErrDeadline, nil) != nil {
		t.Error("Reclass(nil) != nil")
	}
	// Plain errors are tagged directly.
	if Class(Reclass(ErrInternal, errors.New("x"))) != ErrInternal {
		t.Error("Reclass on a plain error did not tag the class")
	}
}

func TestPanicError(t *testing.T) {
	pe := &PanicError{Value: "index out of range", Stack: []byte("goroutine 7 [running]:\n")}
	if got := pe.Error(); got != "panic: index out of range" {
		t.Errorf("Error() = %q", got)
	}
	wrapped := WithNet("net3", InStage(StageResilience, pe))
	var back *PanicError
	if !errors.As(wrapped, &back) || len(back.Stack) == 0 {
		t.Fatal("PanicError not recoverable from chain")
	}
	if !errors.Is(wrapped, ErrInternal) {
		t.Error("panic did not classify as internal")
	}
}

func TestClassFromNameRoundTrip(t *testing.T) {
	for _, class := range []error{ErrInvalidCase, ErrConvergence, ErrNumerical, ErrCanceled, ErrDeadline, ErrInternal} {
		name := ClassName(As(class, errors.New("x")))
		if got := ClassFromName(name); got != class {
			t.Errorf("ClassFromName(%q) = %v, want %v", name, got, class)
		}
	}
	if ClassFromName("unclassified") != nil || ClassFromName("nonsense") != nil {
		t.Error("unknown names must resolve to nil")
	}
}

func TestWrappedClassSurvivesChains(t *testing.T) {
	inner := Convergencef("no crossing after refinement")
	wrapped := fmt.Errorf("delaynoise: exhaustive alignment: %w", inner)
	staged := InStage(StageAlign, wrapped)
	if !errors.Is(staged, ErrConvergence) {
		t.Error("class lost through fmt.Errorf + InStage")
	}
	var se *StageError
	if !errors.As(staged, &se) || se.Stage != StageAlign {
		t.Errorf("StageError not recoverable, got %+v", se)
	}
}

func TestInStageKeepsInnermostAttribution(t *testing.T) {
	inner := InStage(StageReduce, Numericalf("empty Krylov basis"))
	outer := InStage(StageSimulate, fmt.Errorf("victim sim: %w", inner))
	var se *StageError
	if !errors.As(outer, &se) {
		t.Fatal("no StageError in chain")
	}
	if se.Stage != StageReduce {
		t.Errorf("stage = %s, want %s (innermost wins)", se.Stage, StageReduce)
	}
}

func TestWithNet(t *testing.T) {
	if WithNet("n0", nil) != nil {
		t.Error("WithNet(nil) != nil")
	}
	staged := InStage(StageAlign, Convergencef("stuck"))
	named := WithNet("net0042", staged)
	var se *StageError
	if !errors.As(named, &se) {
		t.Fatal("no StageError")
	}
	if se.Net != "net0042" || se.Stage != StageAlign {
		t.Errorf("got net=%q stage=%q", se.Net, se.Stage)
	}
	// The original (possibly shared) error must not have been mutated.
	var orig *StageError
	errors.As(staged, &orig)
	if orig.Net != "" {
		t.Error("WithNet mutated the shared StageError")
	}
	// Errors without a StageError get one carrying only the net.
	named2 := WithNet("n1", Invalidf("bad"))
	if !errors.As(named2, &se) || se.Net != "n1" || se.Stage != "" {
		t.Errorf("got %+v", se)
	}
	if !errors.Is(named2, ErrInvalidCase) {
		t.Error("class lost through WithNet")
	}
	// An already-named error is left alone.
	if WithNet("other", named) != named {
		t.Error("WithNet re-wrapped a named error")
	}
}

func TestErrorStrings(t *testing.T) {
	e := &StageError{Net: "n0", Stage: StageSimulate, Err: errors.New("boom")}
	if got := e.Error(); got != "net n0: stage simulate: boom" {
		t.Errorf("Error() = %q", got)
	}
	e2 := &StageError{Stage: StageAlign, Err: errors.New("boom")}
	if got := e2.Error(); got != "stage align: boom" {
		t.Errorf("Error() = %q", got)
	}
	e3 := &StageError{Net: "n0", Err: errors.New("boom")}
	if got := e3.Error(); got != "net n0: boom" {
		t.Errorf("Error() = %q", got)
	}
}

func TestStageTimerNames(t *testing.T) {
	if len(Stages) == 0 {
		t.Fatal("Stages is empty")
	}
	seen := map[Stage]bool{}
	for _, s := range Stages {
		if s == "" {
			t.Fatal("empty stage in Stages")
		}
		if seen[s] {
			t.Errorf("stage %q listed twice", s)
		}
		seen[s] = true
		name := s.TimerName()
		if want := "stage." + string(s); name != want {
			t.Errorf("TimerName(%q) = %q, want %q", s, name, want)
		}
		back, ok := StageForTimer(name)
		if !ok || back != s {
			t.Errorf("StageForTimer(%q) = %q, %v; want %q, true", name, back, ok, s)
		}
	}
	for _, s := range []Stage{StageCharacterize, StageReduce, StageSimulate, StageAlign, StageHoldres, StageReport, StageRescue, StageResilience} {
		if !seen[s] {
			t.Errorf("declared stage %q missing from Stages", s)
		}
	}
}

func TestStageForTimerRejectsUnknownNames(t *testing.T) {
	for _, name := range []string{
		"stage.",           // empty stage
		"stage.frobnicate", // no such stage
		"cache.tables.hit", // different namespace
		"simulate",         // missing prefix
		"stage",            // bare prefix
	} {
		if s, ok := StageForTimer(name); ok {
			t.Errorf("StageForTimer(%q) = %q, true; want false", name, s)
		}
	}
}
