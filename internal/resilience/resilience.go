// Package resilience defines the batch engine's failure-recovery policy:
// the convergence rescue ladder, per-net deadline budgets, and the
// quality levels that tag every surviving result. It sits below
// internal/clarinet (which executes the ladder) and above
// internal/nlsim (which implements the solver-level rungs), and carries
// solver rescue options through context so the deeply nested
// gatesim/align call chains need no signature changes.
//
// The ladder, in order of decreasing fidelity:
//
//  1. "homotopy": re-run the failing net with nlsim DC continuation
//     (gmin stepping, then source stepping) so the operating point that
//     defeated plain Newton is reached along an easier path.
//  2. "timestep": keep the homotopy aids and additionally let the
//     transient solver halve its timestep below the configured floor a
//     bounded number of times.
//  3. "prechar": fall back to precharacterized alignment — the bounded,
//     pessimistic answer the paper's flow degrades to when the
//     nonlinear search cannot be trusted.
//
// A net that succeeds on the first pass is QualityExact; one saved by a
// solver rung is QualityRescued; one saved by the prechar rung is
// QualityFallback. Reports and metrics surface the level so downstream
// signoff can tell a tight answer from a degraded-but-bounded one.
package resilience

import (
	"context"
	"time"
)

// Quality grades how a net's result was obtained. The zero value is
// QualityExact so untouched reports read as first-pass results.
type Quality int

const (
	// QualityExact: the first-pass analysis converged; nothing degraded.
	QualityExact Quality = iota
	// QualityRescued: a solver rescue rung (homotopy or timestep
	// halving) converged after the first pass failed. Full-accuracy
	// model, harder numerical path.
	QualityRescued
	// QualityFallback: the prechar-alignment fallback produced the
	// result. Bounded and pessimistic rather than exact.
	QualityFallback
)

// String renders the quality level as it appears in reports and
// journals ("exact", "rescued", "fallback").
func (q Quality) String() string {
	switch q {
	case QualityRescued:
		return "rescued"
	case QualityFallback:
		return "fallback"
	}
	return "exact"
}

// QualityFromString is the inverse of String; unknown names map to
// QualityExact (the zero value), matching the journal's tolerance for
// records written by older builds.
func QualityFromString(s string) Quality {
	switch s {
	case "rescued":
		return QualityRescued
	case "fallback":
		return QualityFallback
	}
	return QualityExact
}

// SolverRescue configures the nlsim-level rescue aids. The zero value
// disables them all.
type SolverRescue struct {
	// GminSteps is the number of gmin-stepping continuation rungs for
	// the DC operating-point solve (each rung shrinks the artificial
	// diagonal conductance by 10x, warm-starting the next).
	GminSteps int
	// SourceSteps is the number of source-stepping continuation rungs
	// tried when gmin stepping fails: sources are ramped from 0 to
	// full strength in SourceSteps increments.
	SourceSteps int
	// StepHalvings bounds how many times the transient solver may
	// halve its timestep below the adaptive floor before giving up.
	StepHalvings int
}

// Enabled reports whether any rescue aid is configured.
func (r SolverRescue) Enabled() bool {
	return r.GminSteps > 0 || r.SourceSteps > 0 || r.StepHalvings > 0
}

// DCEnabled reports whether a DC continuation aid is configured.
func (r SolverRescue) DCEnabled() bool { return r.GminSteps > 0 || r.SourceSteps > 0 }

// Policy is the batch engine's resilience configuration: which rescue
// rungs to climb on a convergence failure and how much wall-clock each
// net may spend. The zero value disables everything (first-pass result
// or failure, no per-net deadline) and reproduces the pre-resilience
// engine behavior.
type Policy struct {
	// DCHomotopy enables the solver homotopy rung (gmin stepping then
	// source stepping for the DC solve).
	DCHomotopy bool
	// GminSteps, SourceSteps, StepHalvings tune the solver rungs; zero
	// values take the defaults (8, 8, 4) when the corresponding rung
	// is enabled.
	GminSteps    int
	SourceSteps  int
	StepHalvings int
	// FallbackToPrechar enables the final, always-converging prechar
	// alignment rung (cmd/clarinet's -fallback flag).
	FallbackToPrechar bool
	// NetTimeout bounds each net's analysis, rescue attempts included.
	// Zero means no per-net deadline.
	NetTimeout time.Duration
}

// Default rung sizes, applied when a rung is enabled with zero tuning.
const (
	DefaultGminSteps    = 8
	DefaultSourceSteps  = 8
	DefaultStepHalvings = 4
)

// DefaultPolicy is the recommended production configuration: the full
// ladder with default rung sizes and no per-net deadline (deadlines
// depend on the deployment's latency budget, so they stay opt-in).
func DefaultPolicy() Policy {
	return Policy{
		DCHomotopy:        true,
		StepHalvings:      DefaultStepHalvings,
		FallbackToPrechar: true,
	}
}

// Rung is one step of the rescue ladder, produced by Policy.Ladder in
// the order it should be attempted.
type Rung struct {
	// Name identifies the rung in metrics ("rescue.<name>" counters)
	// and logs: "homotopy", "timestep", or "prechar".
	Name string
	// Solver carries the nlsim rescue aids for this rung; zero when
	// the rung does not involve re-running the solver (prechar).
	Solver SolverRescue
	// Prechar marks the prechar-alignment fallback rung.
	Prechar bool
}

// Quality returns the quality level a net earns when this rung saves it.
func (r Rung) Quality() Quality {
	if r.Prechar {
		return QualityFallback
	}
	return QualityRescued
}

// Ladder expands the policy into the ordered rescue rungs to climb when
// a net's first pass fails with a convergence error. An empty ladder
// means failures surface immediately.
func (p Policy) Ladder() []Rung {
	gmin, src, halve := p.GminSteps, p.SourceSteps, p.StepHalvings
	if gmin == 0 {
		gmin = DefaultGminSteps
	}
	if src == 0 {
		src = DefaultSourceSteps
	}
	if halve == 0 {
		halve = DefaultStepHalvings
	}
	var rungs []Rung
	if p.DCHomotopy {
		rungs = append(rungs, Rung{
			Name:   "homotopy",
			Solver: SolverRescue{GminSteps: gmin, SourceSteps: src},
		})
		rungs = append(rungs, Rung{
			Name:   "timestep",
			Solver: SolverRescue{GminSteps: gmin, SourceSteps: src, StepHalvings: halve},
		})
	} else if p.StepHalvings > 0 {
		rungs = append(rungs, Rung{
			Name:   "timestep",
			Solver: SolverRescue{StepHalvings: halve},
		})
	}
	if p.FallbackToPrechar {
		rungs = append(rungs, Rung{Name: "prechar", Prechar: true})
	}
	return rungs
}

// Enabled reports whether the policy has any rescue rung at all.
func (p Policy) Enabled() bool {
	return p.DCHomotopy || p.StepHalvings > 0 || p.FallbackToPrechar
}

// ctxKey is the private type for this package's context values.
type ctxKey int

const (
	netNameKey ctxKey = iota
	solverRescueKey
)

// WithNet tags ctx with the name of the net being analyzed. Fault
// injection and diagnostics read it back with NetName; the analysis
// code itself never depends on it.
func WithNet(ctx context.Context, name string) context.Context {
	return context.WithValue(ctx, netNameKey, name)
}

// NetName returns the net name tagged by WithNet, or "".
func NetName(ctx context.Context) string {
	name, _ := ctx.Value(netNameKey).(string)
	return name
}

// WithSolverRescue arms the nlsim rescue aids for every solve under
// ctx. Carrying the options through context (rather than through every
// Options struct between clarinet and nlsim) keeps the
// gatesim/align/golden signatures untouched: only the solver itself
// consults the value.
func WithSolverRescue(ctx context.Context, r SolverRescue) context.Context {
	return context.WithValue(ctx, solverRescueKey, r)
}

// SolverRescueFrom returns the rescue aids armed by WithSolverRescue
// and whether any were set.
func SolverRescueFrom(ctx context.Context) (SolverRescue, bool) {
	r, ok := ctx.Value(solverRescueKey).(SolverRescue)
	return r, ok
}
