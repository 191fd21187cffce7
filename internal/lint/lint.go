// Package lint is the noiselint framework: a small, dependency-free
// go/analysis-style harness for the repository's domain-specific
// analyzers. It exists because the engine grew conventions that the
// compiler cannot check — every analysis entry point needs a ...Context
// twin, noiseerr stage names must match the stage.* metrics timers,
// single-flight cache keys must be pure comparable values, and the
// numeric kernels must not compare floats for equality — and drift in
// any of them silently corrupts cancellation, error attribution, or
// cache sharing.
//
// The framework mirrors the golang.org/x/tools/go/analysis API shape
// (Analyzer, Pass, Diagnostic) but is built exclusively on the standard
// library: packages are enumerated and compiled with `go list -export`,
// dependencies are imported from the resulting export data, and the
// target packages are parsed and type-checked with go/parser + go/types.
// The repository deliberately has no third-party dependencies, and the
// lint layer keeps it that way.
//
// Most analyzers see one package at a time. A module analyzer (one with
// RunModule) runs once after every package is loaded and sees the whole
// module tree: the root module and the modules nested in it, whatever
// patterns selected the targets. It is how a check sees uses across
// package and module boundaries.
//
// Suppression: a finding can be silenced with a staticcheck-style
// directive on the flagged line or the line above it:
//
//	//lint:ignore noiselint/<analyzer> <reason>
//
// The reason is mandatory — an unexplained suppression is itself
// reported (as noiselint/ignore), as is a directive naming an unknown
// analyzer.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// An Analyzer is one named invariant check over type-checked packages.
// It sets one of Run and RunModule.
type Analyzer struct {
	// Name is the short analyzer name; diagnostics and suppression
	// directives qualify it as "noiselint/<name>".
	Name string
	// Doc is a one-paragraph description of the enforced invariant.
	Doc string
	// Run reports the analyzer's findings on one target package via
	// pass.Reportf.
	Run func(pass *Pass) error
	// RunModule runs once over every loaded package and reports the
	// analyzer's findings in the target packages via pass.Reportf.
	RunModule func(pass *ModulePass) error
}

// A Pass carries one analyzer run over one package.
type Pass struct {
	Analyzer *Analyzer
	// Path is the package's import path (testdata packages are checked
	// under a caller-chosen path, so scope rules behave as in the real
	// tree).
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	report func(Diagnostic)
	// cfgs caches FuncCFG results. Run shares one map across the
	// analyzers of a package so each function body is translated once
	// per package, not once per analyzer.
	cfgs map[ast.Node]*CFG
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// A ModulePass carries one module analyzer's run over every loaded
// package.
type ModulePass struct {
	Analyzer *Analyzer
	// Packages holds every loaded package, targets and the rest of the
	// module tree alike.
	Packages []*Package

	report func(*Package, Diagnostic)
}

// Reportf records a finding at pos in pkg. Findings outside the target
// packages are dropped, so a run over some packages reports exactly
// their share of a ./... run.
func (p *ModulePass) Reportf(pkg *Package, pos token.Pos, format string, args ...any) {
	p.report(pkg, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      pkg.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one reported finding.
type Diagnostic struct {
	Analyzer string // short analyzer name ("ctxvariant", ..., or "ignore")
	Pos      token.Position
	Message  string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (noiselint/%s)", d.Pos, d.Message, d.Analyzer)
}
