package rules

import (
	"go/ast"
	"go/types"

	"repro/internal/lint"
)

// CacheKey audits the key types of the single-flight caches in
// internal/memo and the identity values addressing the warm-start store
// in internal/warmstore. Both deduplicate by key equality — the caches
// at runtime, the store across processes — so a key must be a pure
// comparable value: a pointer, slice, map, channel, function, or
// interface component makes equality mean identity (two structurally
// equal requests miss each other, or worse, two different requests
// collide after the pointee mutates), and a float component breaks the
// cache for NaN (NaN != NaN, so the entry can never be hit again). For
// the store the float hazard is formatting, not NaN alone: the key is
// derived from the identity's rendered value, so any component whose
// rendering can drift must be pinned to exact bits first. Content that is
// not comparable (a circuit, a waveform) is keyed by its exact byte
// encoding held in a string, never by a digest of it: a digest lets two
// different contents collide into one entry.
var CacheKey = &lint.Analyzer{
	Name: "cachekey",
	Doc: "memo cache key and warmstore identity types must be pure comparable " +
		"values: no pointers, slices, maps, channels, funcs, interfaces, or floats; " +
		"key non-comparable content by its exact byte encoding (a string)",
	Run: runCacheKey,
}

func runCacheKey(pass *lint.Pass) error {
	if !inInternal(pass.Path) {
		return nil
	}
	memoPath := internalPrefix + "memo"
	warmPath := internalPrefix + "warmstore"
	if pass.Path == memoPath {
		// memo's own generic code instantiates Cache[K, V] with its
		// abstract type parameters; only concrete client keys matter.
		return nil
	}
	for id, inst := range pass.Info.Instances {
		obj := pass.Info.Uses[id]
		if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != memoPath {
			continue
		}
		if inst.TypeArgs == nil || inst.TypeArgs.Len() == 0 {
			continue
		}
		key := inst.TypeArgs.At(0)
		if msg := keyProblem(key, map[types.Type]bool{}); msg != "" {
			pass.Reportf(id.Pos(), "cache key type %s %s",
				types.TypeString(key, types.RelativeTo(pass.Pkg)), msg)
		}
	}
	if pass.Path == warmPath {
		// warmstore.Key's own body handles the opaque any; only concrete
		// identity values at call sites matter.
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Name() != "Key" || fn.Pkg() == nil || fn.Pkg().Path() != warmPath {
				return true
			}
			arg := pass.Info.Types[call.Args[0]].Type
			if arg == nil {
				return true
			}
			if msg := keyProblem(arg, map[types.Type]bool{}); msg != "" {
				pass.Reportf(call.Args[0].Pos(), "warm-store identity type %s %s",
					types.TypeString(arg, types.RelativeTo(pass.Pkg)), msg)
			}
			return true
		})
	}
	return nil
}

// keyProblem recursively validates a cache key type, returning a
// human-readable defect or "" when the type is a pure comparable value.
// seen breaks cycles through recursive named types.
func keyProblem(t types.Type, seen map[types.Type]bool) string {
	if seen[t] {
		return ""
	}
	seen[t] = true
	if _, ok := t.(*types.TypeParam); ok {
		// A generic wrapper passing its own K through: judged at the
		// wrapper's concrete instantiation sites instead.
		return ""
	}
	switch u := t.Underlying().(type) {
	case *types.Basic:
		if u.Info()&(types.IsFloat|types.IsComplex) != 0 {
			return "embeds a float (NaN never equals itself, so a NaN-keyed entry can never hit; " +
				"hash the exact bits into a uint64 with math.Float64bits instead)"
		}
		return ""
	case *types.Pointer:
		return "embeds a pointer (key equality becomes identity and aliases mutable state; " +
			"key by value or by the contents' exact byte encoding (a string) instead)"
	case *types.Slice:
		return "embeds a slice (not comparable; key by the contents' exact byte encoding (a string) instead)"
	case *types.Map:
		return "embeds a map (not comparable; key by the contents' exact byte encoding (a string) instead)"
	case *types.Chan:
		return "embeds a channel (key equality becomes identity)"
	case *types.Signature:
		return "embeds a func value (not comparable)"
	case *types.Interface:
		return "embeds an interface (dynamic values alias mutable state and may be incomparable at runtime)"
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if msg := keyProblem(u.Field(i).Type(), seen); msg != "" {
				return "field " + u.Field(i).Name() + " " + msg
			}
		}
		return ""
	case *types.Array:
		return keyProblem(u.Elem(), seen)
	default:
		// Type parameters and anything exotic: accept; the memo package's
		// own comparable constraint still applies.
		return ""
	}
}
