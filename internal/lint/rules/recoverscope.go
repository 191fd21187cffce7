package rules

import (
	"go/ast"
	"go/types"

	"repro/internal/lint"
)

// RecoverScope confines panic recovery to the batch engine's
// containment seam. The worker pool in internal/clarinet converts a
// recovered panic into a classified noiseerr.PanicError, counts it in
// nets.panicked, and keeps the batch alive; internal/faultinject owns
// the harness that injects such panics; internal/spare recovers a
// fork's part only to re-raise it on the fork's caller, the goroutine
// the pool contains, once every helper has joined. A recover() anywhere else in
// the library swallows the panic before the pool can account for it:
// the net silently reports whatever half-built state the deferred
// function left behind, and the run's failure totals lie.
var RecoverScope = &lint.Analyzer{
	Name: "recoverscope",
	Doc: "recover() is confined to the clarinet worker pool's panic containment, " +
		"the fault-injection harness, and the fork that re-raises on its caller",
	Run: runRecoverScope,
}

// recoverAllowed is the containment scope: the worker pool that turns
// panics into accounted failures, the harness that injects them, and
// the fork that carries a helper's panic back to the pool's goroutine.
var recoverAllowed = []string{"clarinet", "faultinject", "spare"}

func runRecoverScope(pass *lint.Pass) error {
	if !inInternal(pass.Path) || inPackages(pass.Path, recoverAllowed...) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			id, ok := ast.Unparen(call.Fun).(*ast.Ident)
			if !ok || id.Name != "recover" {
				return true
			}
			if b, ok := pass.Info.Uses[id].(*types.Builtin); !ok || b.Name() != "recover" {
				return true
			}
			pass.Reportf(call.Pos(),
				"recover() outside the worker-pool containment seam hides panics from the "+
					"batch accounting; let the panic reach clarinet's pool (which classifies "+
					"it as a noiseerr.PanicError and counts nets.panicked)")
			return true
		})
	}
	return nil
}
