// Package rules holds the noiselint analyzers: the machine-checked form
// of the engine's conventions. Each analyzer enforces one invariant that
// the compiler cannot see but whose violation silently corrupts
// cancellation (ctxvariant), error attribution (stagename, errwrap),
// cache sharing (cachekey), numeric robustness (floatsafe), or panic
// accounting (recoverscope).
package rules

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/lint"
)

// All returns every noiselint analyzer, in stable order.
func All() []*lint.Analyzer {
	return []*lint.Analyzer{
		CtxVariant, StageName, ErrWrap, CacheKey, FloatSafe, RecoverScope,
		GoLeak, LockFlow, HotAlloc, MetricFlow, TestOnly,
	}
}

// internalPrefix scopes the analyzers to the module's library packages.
// examples/ is deliberately out of scope.
const internalPrefix = "repro/internal/"

// cmdPrefix scopes the subset of analyzers that are sound on entry
// points (errwrap's chain-severing check, ctxvariant's root-context
// ban, goleak) to the CLIs as well: cmd/noised and cmd/noisectl own
// real goroutines and real error chains.
const cmdPrefix = "repro/cmd/"

// noiseerrPath is the home of the error taxonomy and the stage set.
const noiseerrPath = "repro/internal/noiseerr"

// inInternal reports whether path is a library package.
func inInternal(path string) bool {
	return strings.HasPrefix(path, internalPrefix)
}

// inModule reports whether path is a library package or a CLI — the
// scope of the analyzers that also apply to entry points.
func inModule(path string) bool {
	return inInternal(path) || strings.HasPrefix(path, cmdPrefix)
}

// inPackages reports whether path is one of the named internal packages
// (or a sub-package of one).
func inPackages(path string, names ...string) bool {
	for _, n := range names {
		full := internalPrefix + n
		if path == full || strings.HasPrefix(path, full+"/") {
			return true
		}
	}
	return false
}

// callee resolves the static callee of a call expression, or nil for
// dynamic calls, conversions, and builtins.
func callee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// isPkgFunc reports whether fn is the named function (or method) of the
// package at path.
func isPkgFunc(fn *types.Func, path, name string) bool {
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == path && fn.Name() == name
}

// mentionsPackage reports whether any identifier inside expr resolves to
// an object declared in the package at path.
func mentionsPackage(info *types.Info, expr ast.Expr, path string) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || found {
			return !found
		}
		if obj := info.Uses[id]; obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == path {
			found = true
		}
		return !found
	})
	return found
}

// constString returns the compile-time string value of expr, if any.
func constString(info *types.Info, expr ast.Expr) (string, bool) {
	tv, ok := info.Types[expr]
	if !ok || tv.Value == nil {
		return "", false
	}
	if b, ok := tv.Type.Underlying().(*types.Basic); !ok || b.Info()&types.IsString == 0 {
		return "", false
	}
	s := tv.Value.ExactString()
	if len(s) >= 2 && s[0] == '"' {
		s = s[1 : len(s)-1]
	}
	return s, true
}
