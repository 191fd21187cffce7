// Package noiseerr is the typed error taxonomy of the analysis engine.
// Every failure surfaced by the delaynoise/clarinet stack classifies
// under one of six sentinel classes, testable with errors.Is:
//
//   - ErrInvalidCase: the input could never be analyzed (bad topology,
//     non-physical parameters, missing options).
//   - ErrConvergence: an iterative method gave up (Newton, alignment
//     search). Retrying with a cheaper or more robust method may help;
//     batch engines use this class to drive their rescue ladder.
//   - ErrNumerical: linear algebra or waveform measurement broke down
//     (singular matrix, missing crossing). Usually a modeling problem.
//   - ErrCanceled: the caller's context fired. These errors also match
//     context.Canceled / context.DeadlineExceeded, so errors.Is works
//     with either vocabulary.
//   - ErrDeadline: a per-net deadline budget expired while the rest of
//     the batch kept running. Unlike ErrCanceled this is a real per-net
//     failure (the net exhausted its own time budget), not a caller
//     abort, so batch metrics count it among the failures.
//   - ErrInternal: the engine itself misbehaved — a recovered worker
//     panic or a broken invariant. PanicError carries the recovered
//     value and stack.
//
// On top of the classes, StageError attributes a failure to one stage of
// the per-net pipeline (characterize → reduce → simulate → align →
// holdres → report, mirroring the "stage.*" metrics timers) and optionally to a
// named net, giving batch reports a machine-readable failure breakdown.
package noiseerr

import (
	"context"
	"errors"
	"fmt"
)

// Sentinel error classes. Match with errors.Is.
var (
	ErrInvalidCase = errors.New("invalid case")
	ErrConvergence = errors.New("convergence failure")
	ErrNumerical   = errors.New("numerical failure")
	ErrCanceled    = errors.New("analysis canceled")
	ErrDeadline    = errors.New("net deadline exceeded")
	ErrInternal    = errors.New("internal failure")
)

// classified tags an error with a sentinel class. Unwrap returns both
// the original error and the class, so errors.Is matches either chain
// (a canceled error still matches context.Canceled).
type classified struct {
	class error
	err   error
}

func (c *classified) Error() string   { return c.err.Error() }
func (c *classified) Unwrap() []error { return []error{c.err, c.class} }

// As tags err with a sentinel class, preserving the original chain.
// A nil err stays nil.
func As(class, err error) error {
	if err == nil {
		return nil
	}
	return &classified{class: class, err: err}
}

// Invalidf builds an ErrInvalidCase-classified error.
func Invalidf(format string, args ...any) error {
	return As(ErrInvalidCase, fmt.Errorf(format, args...))
}

// Convergencef builds an ErrConvergence-classified error.
func Convergencef(format string, args ...any) error {
	return As(ErrConvergence, fmt.Errorf(format, args...))
}

// Numericalf builds an ErrNumerical-classified error.
func Numericalf(format string, args ...any) error {
	return As(ErrNumerical, fmt.Errorf(format, args...))
}

// Canceled wraps a context error (or any error raised on cancellation)
// so it classifies as ErrCanceled while still matching the original
// error via errors.Is.
func Canceled(err error) error { return As(ErrCanceled, err) }

// Internalf builds an ErrInternal-classified error.
func Internalf(format string, args ...any) error {
	return As(ErrInternal, fmt.Errorf(format, args...))
}

// Reclass tags err with a sentinel class like As, but hoists the tag
// beneath any outermost StageError so net/stage attribution stays the
// first match of errors.As. Nil-safe.
func Reclass(class, err error) error {
	if err == nil {
		return nil
	}
	if se, ok := err.(*StageError); ok {
		return &StageError{Net: se.Net, Stage: se.Stage, Err: As(class, se.Err)}
	}
	return As(class, err)
}

// PanicError is a worker panic recovered by the batch engine, carrying
// the panicking value and the goroutine stack. It classifies as
// ErrInternal. Retrieve it from a chain with errors.As to render the
// stack.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

// Unwrap classifies every recovered panic as an internal failure.
func (e *PanicError) Unwrap() error { return ErrInternal }

// Class returns the sentinel class of err, or nil when unclassified.
// An explicit ErrDeadline tag wins over everything (a deadlined net
// usually also carries the solver's cancellation symptom); cancellation
// wins over the remaining classes (a canceled run often fails with a
// secondary symptom), and bare context errors classify as ErrCanceled
// even without a Canceled wrap.
func Class(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, ErrDeadline):
		return ErrDeadline
	case errors.Is(err, ErrCanceled),
		errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded):
		return ErrCanceled
	case errors.Is(err, ErrInvalidCase):
		return ErrInvalidCase
	case errors.Is(err, ErrConvergence):
		return ErrConvergence
	case errors.Is(err, ErrNumerical):
		return ErrNumerical
	case errors.Is(err, ErrInternal):
		return ErrInternal
	}
	return nil
}

// ClassName names err's class for reports ("invalid-case",
// "convergence", "numerical", "canceled", "deadline", "internal", or
// "unclassified").
func ClassName(err error) string {
	switch Class(err) {
	case ErrInvalidCase:
		return "invalid-case"
	case ErrConvergence:
		return "convergence"
	case ErrNumerical:
		return "numerical"
	case ErrCanceled:
		return "canceled"
	case ErrDeadline:
		return "deadline"
	case ErrInternal:
		return "internal"
	}
	return "unclassified"
}

// ClassFromName is the inverse of ClassName: it resolves a rendered
// class name back to its sentinel, or nil for "unclassified" and
// unknown names. Batch journals use it to rehydrate errors.Is matching
// across a checkpoint/resume cycle.
func ClassFromName(name string) error {
	switch name {
	case "invalid-case":
		return ErrInvalidCase
	case "convergence":
		return ErrConvergence
	case "numerical":
		return ErrNumerical
	case "canceled":
		return ErrCanceled
	case "deadline":
		return ErrDeadline
	case "internal":
		return ErrInternal
	}
	return nil
}

// Stage names one step of the per-net analysis pipeline. The values
// match the engine's metrics timers ("stage.<name>"): StageError
// attribution and timer registration draw from the same constant set, so
// a failure breakdown and a timing breakdown always agree on stage
// names. The noiselint stagename analyzer enforces that no call site
// mints a stage string outside this set.
type Stage string

// Pipeline stages, in execution order. StageHoldres is the transient
// holding-resistance derivation, a sub-step of characterization that is
// timed separately because it dominates pass-2 cost. Under transient
// hold, StageCharacterize's timer includes the victim's noiseless hold
// drive: it depends only on the victim's operating point, so it runs
// in the victim's characterization, and StageHoldres times the
// derivations that reuse it. StageRescue and
// StageResilience sit outside the per-net flow proper: StageRescue
// covers the convergence rescue ladder (retry attempts after a failed
// first pass), StageResilience the batch containment machinery itself
// (panic recovery, deadline budgets, journal replay).
const (
	StageCharacterize Stage = "characterize"
	StageReduce       Stage = "reduce"
	StageSimulate     Stage = "simulate"
	StageAlign        Stage = "align"
	StageHoldres      Stage = "holdres"
	StageReport       Stage = "report"
	StageRescue       Stage = "rescue"
	StageResilience   Stage = "resilience"
	// StageReplica and StageReshard attribute cluster-layer failures:
	// StageReplica covers one replica's sub-request (connect, shed,
	// torn/stalled stream), StageReshard the gateway's redistribution of
	// unfinished nets onto survivors (exhausted retry budgets, no
	// healthy replicas left).
	StageReplica Stage = "replica"
	StageReshard Stage = "reshard"
)

// Stages lists every pipeline stage, in execution order (the resilience
// stages last: they wrap the per-net flow rather than sit inside it).
var Stages = []Stage{
	StageCharacterize,
	StageReduce,
	StageSimulate,
	StageAlign,
	StageHoldres,
	StageReport,
	StageRescue,
	StageResilience,
	StageReplica,
	StageReshard,
}

// stageTimerPrefix namespaces the per-stage metrics timers.
const stageTimerPrefix = "stage."

// TimerName returns the metrics timer name of the stage ("stage.<name>").
// Registering stage timers through this method (rather than a string
// literal) keeps timer names and StageError attribution in lockstep.
func (s Stage) TimerName() string { return stageTimerPrefix + string(s) }

// StageForTimer maps a metrics timer name back to its pipeline stage.
// It returns false for names outside the "stage.*" namespace and for
// "stage.*" names that do not correspond to a declared stage — the
// latter is exactly the drift the metrics naming tests guard against.
//
//lint:ignore noiselint/testonly the runtime half of the stagename invariant: TestStageTimersMatchSharedConstants maps every stage.* timer back through it
func StageForTimer(name string) (Stage, bool) {
	if len(name) <= len(stageTimerPrefix) || name[:len(stageTimerPrefix)] != stageTimerPrefix {
		return "", false
	}
	s := Stage(name[len(stageTimerPrefix):])
	for _, known := range Stages {
		if s == known {
			return s, true
		}
	}
	return "", false
}

// StageError attributes a failure to one pipeline stage of one net.
// Either field may be empty when the corresponding attribution is
// unknown. Retrieve it from a chain with errors.As.
type StageError struct {
	Net   string
	Stage Stage
	Err   error
}

func (e *StageError) Error() string {
	switch {
	case e.Net == "" && e.Stage == "":
		return e.Err.Error()
	case e.Net == "":
		return fmt.Sprintf("stage %s: %v", e.Stage, e.Err)
	case e.Stage == "":
		return fmt.Sprintf("net %s: %v", e.Net, e.Err)
	}
	return fmt.Sprintf("net %s: stage %s: %v", e.Net, e.Stage, e.Err)
}

func (e *StageError) Unwrap() error { return e.Err }

// InStage attributes err to a pipeline stage. An error already carrying
// a stage attribution anywhere in its chain is returned unchanged: the
// innermost attribution is the most precise (a PRIMA failure inside a
// simulate-stage call stays a reduce failure). Nil-safe.
func InStage(stage Stage, err error) error {
	if err == nil {
		return nil
	}
	var se *StageError
	if errors.As(err, &se) {
		return err
	}
	return &StageError{Stage: stage, Err: err}
}

// WithNet attributes err to a named net. When the outermost error is a
// net-less StageError, a copy with the net filled in is returned (never
// mutated — the underlying error may be shared across goroutines by a
// single-flight cache); otherwise err is wrapped in a fresh StageError
// carrying only the net. Nil-safe.
func WithNet(net string, err error) error {
	if err == nil || net == "" {
		return err
	}
	if se, ok := err.(*StageError); ok {
		if se.Net != "" {
			return err
		}
		return &StageError{Net: net, Stage: se.Stage, Err: se.Err}
	}
	return &StageError{Net: net, Err: err}
}
