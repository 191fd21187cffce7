// Package lib is the analyzed half of the testonly fixture: its
// exported API is used by the fixture's root package, by its own
// tests, or by nothing.
package lib

import (
	"context"
	"errors"
)

// Used has a non-test use in the other package.
func Used() {}

// usedHere is unexported: never checked.
func usedHere() { UsedInPackage() }

// UsedInPackage has a non-test use in its own package.
func UsedInPackage() {}

func TestOnlyFunc() {} // want "exported TestOnlyFunc has no use outside tests"

// T carries the method cases.
type T struct{}

func (T) TestOnlyMethod() {} // want "exported T.TestOnlyMethod has no use outside tests"

// String, MarshalJSON and Unwrap are found by name by fmt,
// encoding/json and errors.
func (T) String() string               { return "t" }
func (T) MarshalJSON() ([]byte, error) { return nil, nil }
func (e *Err) Unwrap() error           { return errors.ErrUnsupported }
func (e *Err) Error() string           { return "err" }

// Err is an error type.
type Err struct{}

// Analyze is used by the other package, so its context twin is exempt.
func Analyze() error { return AnalyzeContext(context.TODO()) }

// AnalyzeContext is the used half's twin.
func AnalyzeContext(ctx context.Context) error { return ctx.Err() }

// Solve has no use, but its context twin is used by the other package.
func Solve() error { return SolveContext(context.TODO()) }

// SolveContext is the used half of its twin.
func SolveContext(ctx context.Context) error { return ctx.Err() }

// Simulate and SimulateContext are called only by tests: Simulate's
// delegation is no use of the pair, so both halves are flagged.
func Simulate() error { return SimulateContext(context.TODO()) } // want "exported Simulate has no use outside tests"

// SimulateContext is Simulate's twin.
func SimulateContext(ctx context.Context) error { return ctx.Err() } // want "exported SimulateContext has no use outside tests"

// Buf implements the other package's Sink.
type Buf struct{ n int }

func (b *Buf) Put(v int) { b.n += v }

// Rec implements the other package's generic Exchange[int] through
// an instance.
type Rec struct{}

func (Rec) Record(v int) string { return "" }

//lint:ignore noiselint/testonly kept for an outside tool that links it
func Kept() {}
