package rules

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/lint"
)

// TestOnly keeps the library's exported API earning its place. An
// exported function or method in internal/ that no non-test code uses,
// in this module or in a module nested in it (cmd/noisebench), is code
// that no tool or flow runs: it costs reading and upkeep and pins
// nothing a user sees. Exempt by rule are either half of an
// X/XContext twin when the other half has a use (the cancellation
// convention asks for both; a use inside the other half's body, such
// as the plain half's delegation, does not count), methods that
// implement an interface, and the API of packages that only tests
// import (faultinject, linttest). Anything else that stays carries a
// //lint:ignore with its reason.
var TestOnly = &lint.Analyzer{
	Name: "testonly",
	Doc: "exported funcs and methods in internal/ need a use in non-test code " +
		"of the module or its nested modules",
	RunModule: runTestOnly,
}

// reflectedMethods are the methods the standard library finds by name
// through interfaces that no expression of the module names: errors'
// unexported Unwrap/Is/As interfaces, and fmt.Stringer or
// json.Marshaler reached through an any argument.
var reflectedMethods = map[string]bool{
	"Error": true, "String": true, "GoString": true, "Format": true,
	"Unwrap": true, "Is": true, "As": true,
	"MarshalJSON": true, "UnmarshalJSON": true,
	"MarshalText": true, "UnmarshalText": true,
}

func runTestOnly(pass *lint.ModulePass) error {
	// uses maps each function's key to the keys of the functions whose
	// declarations use it ("" for a use outside any function).
	uses := map[string]map[string]bool{}
	importedByCode := map[string]bool{}
	importedByTests := map[string]bool{}
	ifaces := ifaceSet{}
	for _, pkg := range pass.Packages {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				from := ""
				if fd, ok := d.(*ast.FuncDecl); ok {
					if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
						from = funcKey(fn)
					}
				}
				ast.Inspect(d, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					if fn, ok := pkg.Info.Uses[id].(*types.Func); ok {
						key := funcKey(fn)
						if uses[key] == nil {
							uses[key] = map[string]bool{}
						}
						uses[key][from] = true
					}
					return true
				})
			}
		}
		// Every interface the code names is the type of some
		// expression: a declaration's type, a parameter of a called
		// function, or an instance such as the Exchange[E, R, S] that
		// Handle's type arguments make.
		for _, tv := range pkg.Info.Types {
			ifaces.addType(tv.Type)
		}
		for _, imp := range pkg.Pkg.Imports() {
			importedByCode[imp.Path()] = true
		}
		for _, path := range pkg.TestImports {
			importedByTests[path] = true
		}
	}
	// usedBeyond reports whether key has a use anywhere but in the
	// declaration of the function keyed except.
	usedBeyond := func(key, except string) bool {
		for from := range uses[key] {
			if from != except {
				return true
			}
		}
		return false
	}
	for _, pkg := range pass.Packages {
		if !pkg.Target || !inInternal(pkg.Path) {
			continue
		}
		if importedByTests[pkg.Path] && !importedByCode[pkg.Path] {
			continue // test support: its whole API serves tests
		}
		var exported []*types.Func
		declared := map[string]bool{}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					exported = append(exported, fn)
					declared[funcKey(fn)] = true
				}
			}
		}
		for _, fn := range exported {
			key := funcKey(fn)
			twin := twinKey(key)
			if usedBeyond(key, twin) || declared[twin] && usedBeyond(twin, key) || ifaces.implemented(fn) {
				continue
			}
			pass.Reportf(pkg, fn.Pos(),
				"exported %s has no use outside tests; delete it or move it into the tests that use it",
				displayName(fn))
		}
	}
	return nil
}

// funcKey names a function or method by package path, receiver base
// type, and name. Each package is type-checked against export data,
// so one function is several *types.Func objects across the module,
// and only this key joins them.
func funcKey(fn *types.Func) string {
	fn = fn.Origin()
	if fn.Pkg() == nil {
		return "." + fn.Name() // the universe's error.Error
	}
	return fn.Pkg().Path() + "." + recvName(fn) + "." + fn.Name()
}

// recvName returns the base type name of fn's receiver, or "" for a
// plain function.
func recvName(fn *types.Func) string {
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// displayName renders fn as "Name" or "Recv.Name".
func displayName(fn *types.Func) string {
	if r := recvName(fn); r != "" {
		return r + "." + fn.Name()
	}
	return fn.Name()
}

// twinKey returns the key of the other half of an X/XContext twin.
func twinKey(key string) string {
	if base, ok := strings.CutSuffix(key, "Context"); ok {
		return base
	}
	return key + "Context"
}

// An ifaceSet holds every interface the module's code can see, each as
// its methods' signatures rendered with full package paths, so an
// interface from one package's export data matches a type checked from
// another package's source.
type ifaceSet map[string][]map[string]string

// add records iface under each of its method names.
func (s ifaceSet) add(iface *types.Interface) {
	methods := map[string]string{}
	for i := 0; i < iface.NumMethods(); i++ {
		m := iface.Method(i)
		methods[m.Name()] = typeString(m.Type())
	}
	for name := range methods {
		s[name] = append(s[name], methods)
	}
}

// addType records t if it is an interface, and the interfaces among a
// signature's parameters and results.
func (s ifaceSet) addType(t types.Type) {
	if sig, ok := t.(*types.Signature); ok {
		for _, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
			for i := 0; i < tuple.Len(); i++ {
				s.addType(tuple.At(i).Type())
			}
		}
		return
	}
	if iface, ok := t.Underlying().(*types.Interface); ok {
		s.add(iface)
	}
}

// implemented reports whether fn is a method through which its
// receiver type implements some interface.
func (s ifaceSet) implemented(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	if reflectedMethods[fn.Name()] {
		return true
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	mset := types.NewMethodSet(types.NewPointer(t))
	have := map[string]string{}
	for i := 0; i < mset.Len(); i++ {
		m := mset.At(i).Obj()
		have[m.Name()] = typeString(m.Type())
	}
next:
	for _, methods := range s[fn.Name()] {
		for name, sig := range methods {
			if have[name] != sig {
				continue next
			}
		}
		return true
	}
	return false
}

// typeString renders t with package-path-qualified names and, in
// signatures, without parameter names or receiver: an interface and
// its implementation name parameters differently.
func typeString(t types.Type) string {
	sig, ok := t.(*types.Signature)
	if !ok {
		return types.TypeString(t, (*types.Package).Path)
	}
	s := "func" + tupleString(sig.Params()) + tupleString(sig.Results())
	if sig.Variadic() {
		s += "..."
	}
	return s
}

func tupleString(t *types.Tuple) string {
	parts := make([]string, t.Len())
	for i := range parts {
		parts[i] = typeString(t.At(i).Type())
	}
	return "(" + strings.Join(parts, ", ") + ")"
}
